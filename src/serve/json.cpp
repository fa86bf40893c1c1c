#include "serve/json.hpp"

#include <charconv>

namespace mcmm::serve {
namespace {

constexpr int kMaxDepth = 64;

bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

/// One DOM node from `r`, whose cursor is at the start of a value.
bool build(JsonReader& r, JsonValue& out) {
  if (!r.begin_value(out.kind)) return false;
  switch (out.kind) {
    case JsonKind::Null:
      break;
    case JsonKind::Bool:
      out.boolean = r.boolean();
      break;
    case JsonKind::Number:
      out.number = r.number();
      break;
    case JsonKind::String:
      out.string = r.string();
      break;
    case JsonKind::Array:
      while (r.next_element()) {
        if (!build(r, out.array.emplace_back())) return false;
      }
      break;
    case JsonKind::Object:
      while (r.next_member()) {
        auto& member = out.object.emplace_back(std::string(r.string()),
                                               JsonValue{});
        if (!build(r, member.second)) return false;
      }
      break;
  }
  return !r.failed();
}

}  // namespace

void JsonReader::fail(std::string_view what) {
  if (error_.empty()) {
    error_ = what;
    error_ += " at byte ";
    error_ += std::to_string(pos_);
  }
}

void JsonReader::skip_ws() noexcept {
  while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                 text_[pos_] == '\n' || text_[pos_] == '\r')) {
    ++pos_;
  }
}

bool JsonReader::consume(char c) noexcept {
  if (pos_ >= text_.size() || text_[pos_] != c) return false;
  ++pos_;
  return true;
}

bool JsonReader::begin_value(JsonKind& kind) {
  if (failed()) return false;
  if (depth_ > kMaxDepth) {
    fail("nesting too deep");
    return false;
  }
  skip_ws();
  opened_ = false;
  const std::string_view rest = text_.substr(pos_);
  const char c = rest.empty() ? '\0' : rest.front();
  switch (c) {
    case '{':
    case '[':
      kind = c == '{' ? JsonKind::Object : JsonKind::Array;
      ++pos_;
      ++depth_;
      opened_ = true;
      return true;
    case '"':
      kind = JsonKind::String;
      return read_string();
    case 't':
    case 'f': {
      const std::string_view word = c == 't' ? "true" : "false";
      if (!rest.starts_with(word)) break;
      pos_ += word.size();
      kind = JsonKind::Bool;
      boolean_ = c == 't';
      return true;
    }
    case 'n':
      if (!rest.starts_with("null")) break;
      pos_ += 4;
      kind = JsonKind::Null;
      return true;
    default:
      if (c == '-' || is_digit(c)) {
        kind = JsonKind::Number;
        return read_number();
      }
      break;
  }
  fail("expected a JSON value");
  return false;
}

bool JsonReader::next_element() {
  if (failed()) return false;
  skip_ws();
  if (consume(']')) {
    --depth_;
    opened_ = false;
    return false;
  }
  if (!opened_ && !consume(',')) {
    fail("expected ',' or ']'");
    return false;
  }
  opened_ = false;
  skip_ws();
  return true;
}

bool JsonReader::next_member() {
  if (failed()) return false;
  skip_ws();
  if (consume('}')) {
    --depth_;
    opened_ = false;
    return false;
  }
  if (!opened_ && !consume(',')) {
    fail("expected ',' or '}'");
    return false;
  }
  opened_ = false;
  skip_ws();
  if (pos_ >= text_.size() || text_[pos_] != '"') {
    fail("expected string");
    return false;
  }
  if (!read_string()) return false;
  skip_ws();
  if (!consume(':')) {
    fail("expected ':'");
    return false;
  }
  return true;
}

bool JsonReader::skip_value() {
  JsonKind kind{};
  return begin_value(kind) && skip_rest(kind);
}

bool JsonReader::skip_rest(JsonKind kind) {
  if (kind == JsonKind::Array) {
    while (next_element()) skip_value();
  } else if (kind == JsonKind::Object) {
    while (next_member()) skip_value();
  }
  return !failed();
}

bool JsonReader::finish() {
  if (failed()) return false;
  skip_ws();
  if (pos_ < text_.size()) fail("trailing garbage after document");
  return !failed();
}

bool JsonReader::read_string() {
  const std::size_t start = ++pos_;  // past the opening quote
  bool escaped = false;  // then the string so far is decoded in `decoded_`
  for (;;) {
    if (pos_ >= text_.size()) {
      fail("unterminated string");
      return false;
    }
    const char c = text_[pos_];
    if (c == '"') {
      string_ = escaped ? std::string_view(decoded_)
                        : text_.substr(start, pos_ - start);
      ++pos_;
      return true;
    }
    if (static_cast<unsigned char>(c) < 0x20) {
      fail("unescaped control character in string");
      return false;
    }
    ++pos_;
    if (c != '\\') {
      if (escaped) decoded_ += c;
      continue;
    }
    if (!escaped) {
      decoded_.assign(text_.substr(start, pos_ - 1 - start));
      escaped = true;
    }
    if (pos_ >= text_.size()) {
      fail("truncated escape");
      return false;
    }
    const char esc = text_[pos_++];
    switch (esc) {
      case '"': decoded_ += '"'; break;
      case '\\': decoded_ += '\\'; break;
      case '/': decoded_ += '/'; break;
      case 'b': decoded_ += '\b'; break;
      case 'f': decoded_ += '\f'; break;
      case 'n': decoded_ += '\n'; break;
      case 'r': decoded_ += '\r'; break;
      case 't': decoded_ += '\t'; break;
      case 'u': {
        std::uint32_t cp = 0;
        if (!read_hex4(cp)) return false;
        if (cp >= 0xD800 && cp <= 0xDBFF) {
          // High surrogate: a low surrogate must follow.
          if (!consume('\\') || !consume('u')) {
            fail("lone high surrogate");
            return false;
          }
          std::uint32_t low = 0;
          if (!read_hex4(low)) return false;
          if (low < 0xDC00 || low > 0xDFFF) {
            fail("bad low surrogate");
            return false;
          }
          cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
        } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
          fail("lone low surrogate");
          return false;
        }
        append_utf8(decoded_, cp);
        break;
      }
      default:
        fail("unknown escape");
        return false;
    }
  }
}

bool JsonReader::read_hex4(std::uint32_t& out) {
  if (pos_ + 4 > text_.size()) {
    fail("truncated \\u escape");
    return false;
  }
  std::uint32_t value = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const char c = text_[pos_ + i];
    value <<= 4;
    if (is_digit(c)) {
      value |= static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<std::uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      value |= static_cast<std::uint32_t>(c - 'A' + 10);
    } else {
      fail("bad hex digit in \\u escape");
      return false;
    }
  }
  pos_ += 4;
  out = value;
  return true;
}

bool JsonReader::read_number() {
  const auto at_digit = [&] {
    return pos_ < text_.size() && is_digit(text_[pos_]);
  };
  const std::size_t start = pos_;
  consume('-');
  if (!at_digit()) {
    fail("bad number");
    return false;
  }
  const bool leading_zero = text_[pos_] == '0';
  while (at_digit()) ++pos_;
  if (leading_zero && pos_ - start > (text_[start] == '-' ? 2u : 1u)) {
    fail("leading zero");  // RFC 8259: int is 0 / digit1-9 *DIGIT
    return false;
  }
  if (consume('.')) {
    if (!at_digit()) {
      fail("bad fraction");
      return false;
    }
    while (at_digit()) ++pos_;
  }
  if (consume('e') || consume('E')) {
    if (!consume('+')) consume('-');
    if (!at_digit()) {
      fail("bad exponent");
      return false;
    }
    while (at_digit()) ++pos_;
  }
  const std::string_view token = text_.substr(start, pos_ - start);
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), number_);
  if (ec != std::errc{} || ptr != token.data() + token.size()) {
    fail("unrepresentable number");
    return false;
  }
  return true;
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::optional<JsonValue> json_parse(std::string_view text,
                                    std::string* error) {
  JsonReader reader(text);
  JsonValue root;
  if (!build(reader, root) || !reader.finish()) {
    if (error != nullptr) *error = reader.error();
    return std::nullopt;
  }
  return root;
}

void json_escape(std::string& out, std::string_view in) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // start of the pending pass-through run
  for (std::size_t i = 0; i < in.size(); ++i) {
    const auto c = static_cast<unsigned char>(in[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(in, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xF];
    }
  }
  out.append(in, run);
}

std::string json_quote(std::string_view in) {
  std::string out;
  out.reserve(in.size() + 2);
  out += '"';
  json_escape(out, in);
  out += '"';
  return out;
}

}  // namespace mcmm::serve
