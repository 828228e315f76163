#pragma once

// A small strict JSON reader used only to check the server's replies. It is
// written independently of the program's own JSON code so that a fault in
// that code cannot hide itself from the checks. Every value remembers the
// byte range it was parsed from, so two documents can be compared by text.

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench::mj {

struct ParseError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.;
  std::string text; ///< string contents
  std::vector<Value> items;
  std::vector<std::pair<std::string, Value>> members;
  std::size_t begin = 0; ///< byte range in the parsed document
  std::size_t end = 0;

  [[nodiscard]] const Value* find(std::string_view key) const;
  /// Member `key`; throws ParseError when absent.
  [[nodiscard]] const Value& at(std::string_view key) const;
  [[nodiscard]] double num(std::string_view key) const;
  [[nodiscard]] const std::string& str(std::string_view key) const;
};

/// Parses one complete document; throws ParseError on any deviation from
/// RFC 8259 (trailing bytes included).
Value parse(std::string_view doc);

} // namespace perfbench::mj
