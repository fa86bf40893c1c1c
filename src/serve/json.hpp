#pragma once
// Minimal JSON support for the mcmm serve API: RFC 8259 string escaping on
// the writer side, and on the reader side one pull reader that owns the
// grammar. `json_parse` builds a small DOM with it; `POST /v1/plan` reads
// its body with it straight into a PlannerQuery. Dependency-free on
// purpose — the payloads are tiny and the repo policy is to own its wire
// formats (see yamlx for the same call).

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mcmm::serve {

enum class JsonKind : std::uint8_t {
  Null,
  Bool,
  Number,
  String,
  Array,
  Object,
};

/// One parsed JSON value. A plain struct (not a variant) keeps the parser
/// and its consumers simple; only the members matching `kind` are set.
struct JsonValue {
  using Kind = JsonKind;

  Kind kind{Kind::Null};
  bool boolean{};
  double number{};
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;
};

/// Pull reader over one JSON document. Strict: rejects trailing garbage,
/// unescaped control characters, lone surrogates, leading zeros, numbers a
/// double cannot hold, and nesting deeper than 64 levels.
///
/// `begin_value` reads the start of the next value. A scalar is read whole
/// (then `boolean`, `number` or `string` holds it); an array or object is
/// opened, and its contents are pulled with `next_element` or
/// `next_member` until they return false. `finish` checks that only
/// whitespace follows the root. After the first syntax error every call
/// returns false and `error` holds a one-line diagnostic with the byte
/// offset.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) noexcept : text_(text) {}
  // `string()` may view the reader's own buffer, which a copy would not own.
  JsonReader(const JsonReader&) = delete;
  JsonReader& operator=(const JsonReader&) = delete;

  [[nodiscard]] bool begin_value(JsonKind& kind);
  /// In an open array: true when an element follows (read it next); false
  /// at the closing bracket or on an error.
  [[nodiscard]] bool next_element();
  /// In an open object: true when a member follows, with its decoded key in
  /// `string()` and its value to be read next; false at the closing brace
  /// or on an error.
  [[nodiscard]] bool next_member();
  /// Reads and discards one whole value, still checking its syntax.
  bool skip_value();
  /// Discards the contents of a value whose start `begin_value` returned as
  /// `kind` (nothing for a scalar), still checking their syntax.
  bool skip_rest(JsonKind kind);
  /// Checks that only whitespace follows the root value.
  bool finish();

  [[nodiscard]] bool failed() const noexcept { return !error_.empty(); }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] bool boolean() const noexcept { return boolean_; }
  [[nodiscard]] double number() const noexcept { return number_; }
  /// The decoded string value or member key read last; valid until the
  /// next call.
  [[nodiscard]] std::string_view string() const noexcept { return string_; }

 private:
  void fail(std::string_view what);
  void skip_ws() noexcept;
  bool consume(char c) noexcept;
  bool read_string();
  bool read_hex4(std::uint32_t& out);
  bool read_number();

  std::string_view text_;
  std::size_t pos_{0};
  int depth_{0};         ///< arrays and objects open around the cursor
  bool opened_{false};   ///< the innermost container has no element read yet
  bool boolean_{};
  double number_{};
  std::string_view string_;  ///< into `text_`, or into `decoded_`
  std::string decoded_;      ///< a string that held escapes, decoded
  std::string error_;
};

/// Parses a complete JSON document into a DOM (same grammar and
/// diagnostics as JsonReader). On failure returns nullopt and, when `error`
/// is non-null, stores a one-line diagnostic with the byte offset.
[[nodiscard]] std::optional<JsonValue> json_parse(
    std::string_view text, std::string* error = nullptr);

/// Appends `in` to `out` with all characters that RFC 8259 requires escaped
/// (quote, backslash, and control characters) escaped; everything else —
/// including multi-byte UTF-8 like the category symbols — passes through.
void json_escape(std::string& out, std::string_view in);

/// `in` escaped and wrapped in double quotes.
[[nodiscard]] std::string json_quote(std::string_view in);

}  // namespace mcmm::serve
