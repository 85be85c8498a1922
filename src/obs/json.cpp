#include "obs/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace ecfd::obs::json {

const Value& Value::at(const std::string& key) const {
  static const Value kNull;
  if (kind_ != Kind::kObject || !object_) return kNull;
  auto it = object_->find(key);
  return it == object_->end() ? kNull : it->second;
}

namespace {

struct Parser {
  const std::string& text;
  std::size_t pos{0};
  std::string error{};

  [[nodiscard]] bool failed() const { return !error.empty(); }

  void fail(const std::string& what) {
    if (error.empty()) {
      error = what + " at offset " + std::to_string(pos);
    }
  }

  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  [[nodiscard]] char peek() { return pos < text.size() ? text[pos] : '\0'; }

  bool consume(char c) {
    skip_ws();
    if (peek() != c) return false;
    ++pos;
    return true;
  }

  bool expect(char c) {
    if (!consume(c)) {
      fail(std::string("expected '") + c + "'");
      return false;
    }
    return true;
  }

  Value parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't':
        return match("true") ? Value(true) : Value();
      case 'f':
        return match("false") ? Value(false) : Value();
      case 'n':
        match("null");
        return Value();
      default:
        return parse_number();
    }
  }

  bool match(const char* word) {
    std::size_t i = 0;
    while (word[i] != '\0') {
      if (pos + i >= text.size() || text[pos + i] != word[i]) {
        fail(std::string("expected '") + word + "'");
        return false;
      }
      ++i;
    }
    pos += i;
    return true;
  }

  std::string parse_string() {
    std::string out;
    if (!expect('"')) return out;
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos >= text.size()) break;
      const char esc = text[pos++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos + 4 > text.size()) {
            fail("truncated \\u escape");
            return out;
          }
          const std::string hex = text.substr(pos, 4);
          pos += 4;
          const auto code =
              static_cast<unsigned>(std::strtoul(hex.c_str(), nullptr, 16));
          // Our writers only emit \u for control characters; decode the
          // BMP code point as UTF-8.
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
          break;
        }
        default:
          fail("unknown escape");
          return out;
      }
    }
    fail("unterminated string");
    return out;
  }

  Value parse_number() {
    skip_ws();
    const std::size_t start = pos;
    if (peek() == '-') ++pos;
    bool is_double = false;
    while (pos < text.size()) {
      const char c = text[pos];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = is_double || c == '.' || c == 'e' || c == 'E';
        ++pos;
      } else {
        break;
      }
    }
    if (pos == start) {
      fail("expected a value");
      return Value();
    }
    const std::string num = text.substr(start, pos - start);
    if (is_double) return Value(std::strtod(num.c_str(), nullptr));
    return Value(static_cast<std::int64_t>(
        std::strtoll(num.c_str(), nullptr, 10)));
  }

  Value parse_array() {
    Array arr;
    if (!expect('[')) return Value();
    skip_ws();
    if (consume(']')) return Value(std::move(arr));
    while (true) {
      arr.push_back(parse_value());
      if (failed()) return Value();
      if (consume(']')) return Value(std::move(arr));
      if (!expect(',')) return Value();
    }
  }

  Value parse_object() {
    Object obj;
    if (!expect('{')) return Value();
    skip_ws();
    if (consume('}')) return Value(std::move(obj));
    while (true) {
      skip_ws();
      std::string key = parse_string();
      if (failed()) return Value();
      if (!expect(':')) return Value();
      obj.emplace(std::move(key), parse_value());
      if (failed()) return Value();
      if (consume('}')) return Value(std::move(obj));
      if (!expect(',')) return Value();
    }
  }
};

}  // namespace

Value parse(const std::string& text, std::string* error) {
  Parser p{text};
  Value v = p.parse_value();
  if (!p.failed()) {
    p.skip_ws();
    if (p.pos != text.size()) p.fail("trailing characters");
  }
  if (p.failed()) {
    if (error != nullptr) *error = p.error;
    return Value();
  }
  return v;
}

void escape_into(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
}

}  // namespace ecfd::obs::json
