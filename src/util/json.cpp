#include "util/json.h"

#include <charconv>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <stdexcept>

namespace meshopt {

namespace {

[[noreturn]] void fail(const char* what) {
  throw std::invalid_argument(std::string("json: ") + what);
}

constexpr char kHexDigits[] = "0123456789abcdef";

/// strtod over a whole number token, for the tokens from_chars does not
/// take: out-of-range values, which strtod rounds (1e999 to inf, 1e-400
/// to 0), and malformed ones, which it leaves partly unread.
double strtod_token(std::string_view tok) {
  // strtod needs NUL termination; numbers are short, copy locally.
  const std::string s(tok);
  char* end = nullptr;
  const double d = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) fail("malformed number");
  return d;
}

}  // namespace

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) fail("not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (type_ != Type::kNumber) fail("not a number");
  return number_;
}

int JsonValue::as_int() const {
  const double v = as_number();
  // Bounds exclusive of the ends: INT_MAX + 1 is exactly representable
  // and anything in (INT_MIN - 1, INT_MAX + 1) truncates into range.
  // Out-of-range float-to-int conversion is UB, so check first.
  constexpr double kLo = static_cast<double>(INT_MIN) - 1.0;
  constexpr double kHi = static_cast<double>(INT_MAX) + 1.0;
  if (!(v > kLo && v < kHi)) fail("number out of int range");
  return static_cast<int>(v);
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) fail("not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (type_ != Type::kArray) fail("not an array");
  return array_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  if (type_ != Type::kObject) fail("not an object");
  return object_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : object_)
    if (k == key) return &v;
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) fail("missing object member");
  return *v;
}

/// Recursive-descent parser over a string_view cursor.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue run() {
    items_.clear();
    members_.clear();
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        // Containers recurse; cap the depth so a hostile document fails
        // with the documented exception instead of overflowing the stack.
        // The snapshot schema needs depth 3.
        if (depth_ >= kMaxDepth) fail("nesting too deep");
        ++depth_;
        JsonValue v = c == '{' ? object() : array();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v;
        v.type_ = JsonValue::Type::kString;
        v.string_ = string();
        return v;
      }
      case 't': {
        if (!consume_literal("true")) fail("bad literal");
        JsonValue v;
        v.type_ = JsonValue::Type::kBool;
        v.bool_ = true;
        return v;
      }
      case 'f': {
        if (!consume_literal("false")) fail("bad literal");
        JsonValue v;
        v.type_ = JsonValue::Type::kBool;
        v.bool_ = false;
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      }
      default:
        return number();
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.type_ = JsonValue::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    const std::size_t mark = members_.size();
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      members_.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      v.object_ = take(members_, mark);
      return v;
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.type_ = JsonValue::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    const std::size_t mark = items_.size();
    for (;;) {
      items_.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      v.array_ = take(items_, mark);
      return v;
    }
  }

  /// Move the entries a container collected above `mark` out of the
  /// shared stack into an exactly sized vector: one allocation per array
  /// or object instead of one per capacity doubling.
  template <typename T>
  static std::vector<T> take(std::vector<T>& stack, std::size_t mark) {
    std::vector<T> out(std::make_move_iterator(stack.begin() + mark),
                       std::make_move_iterator(stack.end()));
    stack.erase(stack.begin() + mark, stack.end());
    return out;
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      // Copy the run up to the next quote or escape in one append: a
      // string without escapes is a single copy.
      std::size_t run = pos_;
      while (run < text_.size() && text_[run] != '"' && text_[run] != '\\')
        ++run;
      if (run == text_.size()) fail("unterminated string");
      out.append(text_.data() + pos_, run - pos_);
      pos_ = run + 1;
      if (text_[run] == '"') return out;
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char c = text_[pos_++];
      switch (c) {
        case '"':
        case '\\':
        case '/':
          out.push_back(c);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9')
              cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              cp |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (the snapshot schema is
          // ASCII-only; surrogate pairs are rejected rather than decoded).
          if (cp >= 0xD800 && cp <= 0xDFFF) fail("surrogates unsupported");
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          fail("bad escape");
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    // strtod would accept a leading '+' (and locale oddities); JSON does
    // not, so reject it before the scan.
    if (peek() == '+') fail("malformed number");
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    // from_chars rounds exactly as strtod does; the token goes to strtod
    // itself only when from_chars stops short of its end or reports it
    // out of range, so every accepted token and every parsed bit match.
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    JsonValue v;
    v.type_ = JsonValue::Type::kNumber;
    const auto [end, ec] = std::from_chars(first, last, v.number_);
    if (ec != std::errc{} || end != last)
      v.number_ = strtod_token(text_.substr(start, pos_ - start));
    return v;
  }

  static constexpr int kMaxDepth = 64;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  // Elements and members of the containers still open, innermost last.
  // Kept per thread, so a warm parse allocates only the exactly sized
  // vectors it returns; a parse that threw may leave entries behind,
  // which run() drops.
  static inline thread_local std::vector<JsonValue> items_;
  static inline thread_local std::vector<std::pair<std::string, JsonValue>>
      members_;
};

JsonValue JsonValue::parse(std::string_view text) {
  return JsonParser(text).run();
}

void json_append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  // The standard defines this conversion as printf's "%.17g".
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v,
                               std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

void json_append_int(std::string& out, long long v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

void json_append_hex(std::string& out, std::uint64_t v) {
  char buf[20] = {'"', '0', 'x'};
  for (int i = 0; i < 16; ++i)
    buf[3 + i] = kHexDigits[(v >> (60 - 4 * i)) & 15];
  buf[19] = '"';
  out.append(buf, sizeof buf);
}

void json_append_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const auto u = static_cast<unsigned char>(c);
          const char esc[6] = {'\\', 'u', '0', '0', kHexDigits[u >> 4],
                               kHexDigits[u & 15]};
          out.append(esc, sizeof esc);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

}  // namespace meshopt
