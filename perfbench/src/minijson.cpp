#include "minijson.hpp"

#include <cstdlib>

namespace perfbench::mj {

namespace {

class Reader {
public:
  explicit Reader(std::string_view doc) : s(doc) {}

  Value document() {
    Value v = value(0);
    skipSpace();
    if (pos != s.size()) {
      fail("trailing bytes");
    }
    return v;
  }

private:
  [[noreturn]] void fail(const char* what) const {
    throw ParseError(std::string("json: ") + what + " at byte " +
                     std::to_string(pos));
  }

  void skipSpace() {
    while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\n' ||
                              s[pos] == '\r' || s[pos] == '\t')) {
      ++pos;
    }
  }

  void expect(std::string_view word) {
    if (s.substr(pos, word.size()) != word) {
      fail("unexpected literal");
    }
    pos += word.size();
  }

  Value value(int depth) {
    if (depth > 64) {
      fail("nesting too deep");
    }
    skipSpace();
    if (pos >= s.size()) {
      fail("unexpected end");
    }
    Value v;
    v.begin = pos;
    switch (s[pos]) {
    case '{':
      v.kind = Value::Kind::Object;
      ++pos;
      skipSpace();
      if (pos < s.size() && s[pos] == '}') {
        ++pos;
        break;
      }
      for (;;) {
        skipSpace();
        if (pos >= s.size() || s[pos] != '"') {
          fail("expected key");
        }
        std::string key = string();
        skipSpace();
        if (pos >= s.size() || s[pos] != ':') {
          fail("expected ':'");
        }
        ++pos;
        v.members.emplace_back(std::move(key), value(depth + 1));
        skipSpace();
        if (pos < s.size() && s[pos] == ',') {
          ++pos;
          continue;
        }
        if (pos < s.size() && s[pos] == '}') {
          ++pos;
          break;
        }
        fail("expected ',' or '}'");
      }
      break;
    case '[':
      v.kind = Value::Kind::Array;
      ++pos;
      skipSpace();
      if (pos < s.size() && s[pos] == ']') {
        ++pos;
        break;
      }
      for (;;) {
        v.items.push_back(value(depth + 1));
        skipSpace();
        if (pos < s.size() && s[pos] == ',') {
          ++pos;
          continue;
        }
        if (pos < s.size() && s[pos] == ']') {
          ++pos;
          break;
        }
        fail("expected ',' or ']'");
      }
      break;
    case '"':
      v.kind = Value::Kind::String;
      v.text = string();
      break;
    case 't':
      expect("true");
      v.kind = Value::Kind::Bool;
      v.boolean = true;
      break;
    case 'f':
      expect("false");
      v.kind = Value::Kind::Bool;
      break;
    case 'n':
      expect("null");
      break;
    default:
      v.kind = Value::Kind::Number;
      v.number = numberValue();
      break;
    }
    v.end = pos;
    return v;
  }

  double numberValue() {
    const std::size_t start = pos;
    if (pos < s.size() && s[pos] == '-') {
      ++pos;
    }
    const auto digits = [this] {
      const std::size_t from = pos;
      while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
        ++pos;
      }
      return pos - from;
    };
    if (digits() == 0) {
      fail("bad number");
    }
    if (pos < s.size() && s[pos] == '.') {
      ++pos;
      if (digits() == 0) {
        fail("bad fraction");
      }
    }
    if (pos < s.size() && (s[pos] == 'e' || s[pos] == 'E')) {
      ++pos;
      if (pos < s.size() && (s[pos] == '+' || s[pos] == '-')) {
        ++pos;
      }
      if (digits() == 0) {
        fail("bad exponent");
      }
    }
    const std::string token(s.substr(start, pos - start));
    return std::strtod(token.c_str(), nullptr);
  }

  std::string string() {
    ++pos; // opening quote
    std::string out;
    while (pos < s.size() && s[pos] != '"') {
      const char c = s[pos++];
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= s.size()) {
        fail("bad escape");
      }
      const char e = s[pos++];
      switch (e) {
      case '"':
      case '\\':
      case '/':
        out += e;
        break;
      case 'b':
        out += '\b';
        break;
      case 'f':
        out += '\f';
        break;
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      case 't':
        out += '\t';
        break;
      case 'u': {
        if (pos + 4 > s.size()) {
          fail("bad \\u escape");
        }
        const std::string hex(s.substr(pos, 4));
        pos += 4;
        const long code = std::strtol(hex.c_str(), nullptr, 16);
        // the replies only escape control characters; keep it to one byte
        out += static_cast<char>(code & 0x7F);
        break;
      }
      default:
        fail("bad escape");
      }
    }
    if (pos >= s.size()) {
      fail("unterminated string");
    }
    ++pos; // closing quote
    return out;
  }

  std::string_view s;
  std::size_t pos = 0;
};

} // namespace

const Value* Value::find(std::string_view key) const {
  for (const auto& [k, v] : members) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr) {
    throw ParseError("json: missing member \"" + std::string(key) + "\"");
  }
  return *v;
}

double Value::num(std::string_view key) const {
  const Value& v = at(key);
  if (v.kind != Kind::Number) {
    throw ParseError("json: member \"" + std::string(key) +
                     "\" is not a number");
  }
  return v.number;
}

const std::string& Value::str(std::string_view key) const {
  const Value& v = at(key);
  if (v.kind != Kind::String) {
    throw ParseError("json: member \"" + std::string(key) +
                     "\" is not a string");
  }
  return v.text;
}

Value parse(std::string_view doc) { return Reader(doc).document(); }

} // namespace perfbench::mj
