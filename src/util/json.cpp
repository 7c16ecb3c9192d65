#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>

namespace simas::json {

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::Null: return "null";
    case Kind::Bool: return "bool";
    case Kind::Number: return "number";
    case Kind::String: return "string";
    case Kind::Array: return "array";
    case Kind::Object: return "object";
  }
  return "?";
}

const Value* Value::find(std::string_view key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [k, v] : obj_)
    if (k == key) return &v;
  return nullptr;
}

// ---------------------------------------------------------------------
// Parser

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* err) : text_(text), err_(err) {}

  bool run(Value* out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters");
    return true;
  }

 private:
  bool fail(const std::string& what) {
    if (err_ != nullptr)
      *err_ = what + " at byte " + std::to_string(pos_);
    return false;
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word)
      return fail("invalid literal");
    pos_ += word.size();
    return true;
  }

  bool parse_value(Value* out) {
    if (eof()) return fail("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': {
        std::string s;
        if (!parse_string(&s)) return false;
        *out = Value(std::move(s));
        return true;
      }
      case 't':
        if (!literal("true")) return false;
        *out = Value(true);
        return true;
      case 'f':
        if (!literal("false")) return false;
        *out = Value(false);
        return true;
      case 'n':
        if (!literal("null")) return false;
        *out = Value(nullptr);
        return true;
      default: return parse_number(out);
    }
  }

  bool parse_object(Value* out) {
    ++pos_;  // '{'
    Value::Object obj;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      *out = Value(std::move(obj));
      return true;
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') return fail("expected object key");
      std::string key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (eof() || peek() != ':') return fail("expected ':'");
      ++pos_;
      skip_ws();
      Value v;
      if (!parse_value(&v)) return false;
      obj.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (eof()) return fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        *out = Value(std::move(obj));
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(Value* out) {
    ++pos_;  // '['
    Value::Array arr;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      *out = Value(std::move(arr));
      return true;
    }
    while (true) {
      skip_ws();
      Value v;
      if (!parse_value(&v)) return false;
      arr.push_back(std::move(v));
      skip_ws();
      if (eof()) return fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        *out = Value(std::move(arr));
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool hex4(unsigned* out) {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      if (eof()) return fail("truncated \\u escape");
      const char c = peek();
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else return fail("invalid \\u escape");
      ++pos_;
    }
    *out = v;
    return true;
  }

  static void append_utf8(std::string* s, unsigned cp) {
    if (cp < 0x80) {
      s->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      s->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      s->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      s->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      s->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      s->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      s->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      s->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool parse_string(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (true) {
      if (eof()) return fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(peek());
      ++pos_;
      if (c == '"') return true;
      if (c < 0x20) return fail("raw control character in string");
      if (c != '\\') {
        out->push_back(static_cast<char>(c));
        continue;
      }
      if (eof()) return fail("truncated escape");
      const char e = peek();
      ++pos_;
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned cp = 0;
          if (!hex4(&cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: require a low surrogate to follow.
            if (text_.substr(pos_, 2) != "\\u")
              return fail("lone high surrogate");
            pos_ += 2;
            unsigned lo = 0;
            if (!hex4(&lo)) return false;
            if (lo < 0xDC00 || lo > 0xDFFF)
              return fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("lone low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: return fail("invalid escape");
      }
    }
  }

  bool parse_number(Value* out) {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (eof() || peek() < '0' || peek() > '9')
      return fail("invalid number");
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || peek() < '0' || peek() > '9')
        return fail("digit required after '.'");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || peek() < '0' || peek() > '9')
        return fail("digit required in exponent");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    const std::string tok(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size() || !std::isfinite(v))
      return fail("unrepresentable number");
    *out = Value(v);
    return true;
  }

  std::string_view text_;
  std::string* err_;
  std::size_t pos_ = 0;
};

}  // namespace

bool parse(std::string_view text, Value* out, std::string* err) {
  return Parser(text, err).run(out);
}

// ---------------------------------------------------------------------
// Writer

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::size_t format_number(char* buf, double v) {
  // Integers (the common case for counters) print exactly and compactly.
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 9.0e15) {
    return static_cast<std::size_t>(
        std::to_chars(buf, buf + kNumberChars, static_cast<long long>(v))
            .ptr -
        buf);
  }
  const int n = std::snprintf(buf, kNumberChars, "%.15g", v);
  return static_cast<std::size_t>(n);
}

namespace {

void write_impl(std::ostream& os, const Value& v, int indent, int depth) {
  const auto newline = [&](int d) {
    if (indent <= 0) return;
    os << '\n';
    for (int i = 0; i < d * indent; ++i) os << ' ';
  };
  switch (v.kind()) {
    case Kind::Null: os << "null"; break;
    case Kind::Bool: os << (v.as_bool() ? "true" : "false"); break;
    case Kind::Number: {
      char buf[kNumberChars];
      os.write(buf, static_cast<std::streamsize>(
                        format_number(buf, v.as_number())));
      break;
    }
    case Kind::String: os << '"' << escape(v.as_string()) << '"'; break;
    case Kind::Array: {
      const auto& a = v.as_array();
      if (a.empty()) {
        os << "[]";
        break;
      }
      os << '[';
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (i > 0) os << (indent > 0 ? "," : ", ");
        newline(depth + 1);
        write_impl(os, a[i], indent, depth + 1);
      }
      newline(depth);
      os << ']';
      break;
    }
    case Kind::Object: {
      const auto& o = v.as_object();
      if (o.empty()) {
        os << "{}";
        break;
      }
      os << '{';
      for (std::size_t i = 0; i < o.size(); ++i) {
        if (i > 0) os << (indent > 0 ? "," : ", ");
        newline(depth + 1);
        os << '"' << escape(o[i].first) << "\": ";
        write_impl(os, o[i].second, indent, depth + 1);
      }
      newline(depth);
      os << '}';
      break;
    }
  }
}

}  // namespace

void write(std::ostream& os, const Value& v, int indent) {
  write_impl(os, v, indent, 0);
}

std::string to_string(const Value& v, int indent) {
  std::ostringstream os;
  write(os, v, indent);
  return os.str();
}

}  // namespace simas::json
