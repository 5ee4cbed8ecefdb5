#include "leodivide/io/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>

#include "leodivide/io/csv.hpp"

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
  if (!std::isfinite(v)) {
    pending_ += "null";
    return;
  }
  // std::to_chars in general format at precision 12 is specified to
  // produce what printf("%.12g") does in the C locale.
  NumberBuffer buf;
  const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v,
                                       std::chars_format::general, 12);
  pending_.append(buf.data(), end);
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

void JsonWriter::value(std::string_view key, bool v) {
  key_prefix(key);
  if (v) {
    pending_ += "true";
  } else {
    pending_ += "false";
  }
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

// ------------------------------------------------------------------ parser --

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) {
    throw JsonParseError("JsonValue: missing member \"" + std::string(key) +
                         "\"");
  }
  return *v;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonParseError("json_parse: " + what + " at offset " +
                         std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    if (++depth_ > kMaxDepth) fail("nesting too deep");
    JsonValue v = parse_value_inner();
    --depth_;
    return v;
  }

  JsonValue parse_value_inner() {
    JsonValue v;
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"':
        v.type = JsonValue::Type::kString;
        v.str_v = parse_string();
        return v;
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        v.type = JsonValue::Type::kBool;
        v.bool_v = true;
        return v;
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        v.type = JsonValue::Type::kBool;
        return v;
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        return v;
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.members.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.items.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_utf8(parse_hex4(), out); break;
        default: fail("invalid escape");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) fail("truncated \\u escape");
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape");
      }
    }
    return code;
  }

  static void append_utf8(unsigned code, std::string& out) {
    // BMP only — surrogate pairs decode as two replacement-free code units,
    // which is sufficient for validation (the library never emits them).
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (pos_ >= text_.size() || !is_digit(text_[pos_])) fail("invalid number");
    if (text_[pos_] == '0') {
      ++pos_;  // leading zeros are invalid JSON
    } else {
      while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || !is_digit(text_[pos_])) {
        fail("invalid number");
      }
      while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || !is_digit(text_[pos_])) {
        fail("invalid number");
      }
      while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    }
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    try {
      v.num_v = std::stod(std::string(text_.substr(start, pos_ - start)));
    } catch (const std::out_of_range&) {
      // e.g. "1e999" — syntactically valid JSON whose magnitude exceeds
      // double range. Surface it as a parse error, not a foreign
      // exception type.
      pos_ = start;
      fail("number out of range");
    }
    return v;
  }

  static bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

  static constexpr int kMaxDepth = 256;
  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue json_parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace leodivide::io
