#include "leodivide/io/cli.hpp"

namespace leodivide::io {

std::optional<std::string_view> flag_value(int argc, char** argv, int& i,
                                           std::string_view flag) {
  const std::string_view arg = argv[i];
  if (arg == flag) {
    if (i + 1 >= argc) {
      throw std::runtime_error(std::string(flag) + " requires a value");
    }
    return std::string_view(argv[++i]);
  }
  if (arg.size() > flag.size() && arg.substr(0, flag.size()) == flag &&
      arg[flag.size()] == '=') {
    return arg.substr(flag.size() + 1);
  }
  return std::nullopt;
}

}  // namespace leodivide::io
