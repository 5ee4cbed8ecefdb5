#include "leodivide/io/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>

namespace leodivide::io {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string_view json_number_text(NumberBuffer& buf, double v) {
  if (!std::isfinite(v)) return "null";
  return general12_text(buf, v);
}

namespace {

[[nodiscard]] bool needs_escape(std::string_view s) noexcept {
  for (char c : s) {
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
      return true;
    }
  }
  return false;
}

}  // namespace

JsonWriter::JsonWriter(std::ostream& out, bool pretty)
    : out_(out), pretty_(pretty) {}

JsonWriter::~JsonWriter() {
  // A document abandoned mid-way (an exception unwound past its writer)
  // still hands its staged tail to the stream. A failure here stays
  // recorded in the stream's state; there is no caller left to throw to.
  try {
    flush();
  } catch (const std::ios_base::failure&) {
  }
}

void JsonWriter::flush() {
  out_.write(pending_.data(), static_cast<std::streamsize>(pending_.size()));
  pending_.clear();
}

void JsonWriter::commit() {
  if (stack_.empty() || pending_.size() >= kFlushBytes) flush();
  if (!out_) {
    throw std::runtime_error("JsonWriter: stream write failed");
  }
}

void JsonWriter::newline_indent() {
  pending_.push_back('\n');
  pending_.append(2 * stack_.size(), ' ');
}

void JsonWriter::write_string(std::string_view s) {
  pending_.push_back('"');
  if (needs_escape(s)) {
    pending_ += json_escape(s);
  } else {
    pending_ += s;
  }
  pending_.push_back('"');
}

void JsonWriter::write_number(double v) {
  NumberBuffer buf;
  pending_ += json_number_text(buf, v);
}

void JsonWriter::write_number(long long v) {
  NumberBuffer buf;
  const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  pending_.append(buf.data(), end);
}

void JsonWriter::comma_and_indent() {
  if (!stack_.empty()) {
    if (has_items_.back()) pending_.push_back(',');
    has_items_.back() = true;
    if (pretty_) newline_indent();
  }
}

void JsonWriter::key_prefix(std::string_view key) {
  if (stack_.empty() || stack_.back() != Frame::kObject) {
    throw std::logic_error("JsonWriter: key outside object");
  }
  comma_and_indent();
  write_string(key);
  pending_ += pretty_ ? ": " : ":";
}

void JsonWriter::element_prefix() {
  if (stack_.empty() || stack_.back() != Frame::kArray) {
    throw std::logic_error("JsonWriter: element outside array");
  }
  comma_and_indent();
}

void JsonWriter::open(Frame frame) {
  pending_.push_back(frame == Frame::kObject ? '{' : '[');
  stack_.push_back(frame);
  has_items_.push_back(false);
  commit();
}

void JsonWriter::close(Frame frame) {
  if (stack_.empty() || stack_.back() != frame) {
    throw std::logic_error(frame == Frame::kObject
                               ? "JsonWriter: end_object without begin_object"
                               : "JsonWriter: end_array without begin_array");
  }
  const bool had = has_items_.back();
  stack_.pop_back();
  has_items_.pop_back();
  if (pretty_ && had) newline_indent();
  pending_.push_back(frame == Frame::kObject ? '}' : ']');
  commit();
}

void JsonWriter::begin_object() {
  if (!stack_.empty() && stack_.back() == Frame::kObject) {
    throw std::logic_error("JsonWriter: keyless object inside object");
  }
  comma_and_indent();
  open(Frame::kObject);
}

void JsonWriter::begin_object(std::string_view key) {
  key_prefix(key);
  open(Frame::kObject);
}

void JsonWriter::end_object() { close(Frame::kObject); }

void JsonWriter::begin_array() {
  if (!stack_.empty() && stack_.back() == Frame::kObject) {
    throw std::logic_error("JsonWriter: keyless array inside object");
  }
  comma_and_indent();
  open(Frame::kArray);
}

void JsonWriter::begin_array(std::string_view key) {
  key_prefix(key);
  open(Frame::kArray);
}

void JsonWriter::end_array() { close(Frame::kArray); }

void JsonWriter::value(std::string_view key, std::string_view v) {
  key_prefix(key);
  write_string(v);
  commit();
}

void JsonWriter::value(std::string_view key, double v) {
  key_prefix(key);
  write_number(v);
  commit();
}

void JsonWriter::value(std::string_view key, long long v) {
  key_prefix(key);
  write_number(v);
  commit();
}

void JsonWriter::element(std::string_view v) {
  element_prefix();
  write_string(v);
  commit();
}

void JsonWriter::element(double v) {
  element_prefix();
  write_number(v);
  commit();
}

void JsonWriter::element(long long v) {
  element_prefix();
  write_number(v);
  commit();
}

}  // namespace leodivide::io
