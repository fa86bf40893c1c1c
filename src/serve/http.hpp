#pragma once
// HTTP/1.1 wire layer for mcmm serve: an incremental request parser
// hardened against malformed, oversized, and slow input, plus response
// serialization. The parser is socket-free — it consumes bytes and yields
// requests — so the adversarial tests in tests/serve exercise it without a
// network (split reads, pipelining, header bombs, bad escapes).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mcmm::serve {

/// Hard input caps. Exceeding one turns into the named HTTP status instead
/// of unbounded buffering (414/431/413).
struct Limits {
  std::size_t max_request_line = 8 * 1024;   ///< 414 URI Too Long
  std::size_t max_header_bytes = 32 * 1024;  ///< 431 across all header lines
  std::size_t max_header_count = 100;        ///< 431
  std::size_t max_body = 1 << 20;            ///< 413 Payload Too Large
};

/// One parsed request. Header names are lowercased; `path` is the
/// percent-decoded target with the query string stripped; `query` holds the
/// decoded key/value pairs.
struct Request {
  std::string method;
  std::string target;  ///< raw request target as received
  std::string path;
  std::vector<std::pair<std::string, std::string>> query;
  int version_minor{1};  ///< HTTP/1.<minor>
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// First header with that (case-insensitive) name; nullptr when absent.
  [[nodiscard]] const std::string* header(
      std::string_view name) const noexcept;
  /// First query parameter with that key, or `fallback`.
  [[nodiscard]] std::string_view query_param(
      std::string_view key, std::string_view fallback = {}) const noexcept;
  /// Connection persistence per the HTTP/1.0 and /1.1 defaults.
  [[nodiscard]] bool keep_alive() const noexcept;
};

/// Incremental parser. Feed raw bytes as they arrive; when `feed` returns
/// Complete, `take_request()` hands out the request and `reset()` re-arms
/// the parser over any already-buffered pipelined bytes.
class RequestParser {
 public:
  enum class Status : std::uint8_t { NeedMore, Complete, Error };

  explicit RequestParser(Limits limits = {}) : limits_(limits) {}

  /// Appends `data` (may be empty to re-parse buffered bytes) and advances.
  Status feed(std::string_view data);

  [[nodiscard]] Status status() const noexcept { return status_; }
  /// HTTP status to answer with when status() == Error.
  [[nodiscard]] int error_status() const noexcept { return error_status_; }
  [[nodiscard]] const std::string& error_reason() const noexcept {
    return error_reason_;
  }

  /// True once any byte of a not-yet-complete request has been seen —
  /// distinguishes a 408 (mid-request stall) from an idle keep-alive close.
  [[nodiscard]] bool mid_request() const noexcept;

  /// Moves the completed request out. Only valid when status() == Complete.
  [[nodiscard]] Request take_request();

  /// Re-arms for the next request, keeping buffered pipelined bytes.
  void reset();

 private:
  enum class State : std::uint8_t { RequestLine, Headers, Body, Done };

  Status fail(int http_status, std::string reason);
  Status parse();
  Status parse_request_line(std::string_view line);
  Status parse_header_line(std::string_view line);
  Status finish_headers();

  Limits limits_;
  State state_{State::RequestLine};
  Status status_{Status::NeedMore};
  int error_status_{0};
  std::string error_reason_;
  std::string buffer_;
  std::size_t consumed_{0};
  std::size_t header_bytes_{0};
  std::size_t content_length_{0};
  Request request_;
};

/// Percent-decodes one URI component; nullopt on a malformed escape.
[[nodiscard]] std::optional<std::string> percent_decode(std::string_view in);

/// One response about to be serialized. A handler answers with an owned
/// `body`, or by reference: `header_block` and `shared_body` then view a
/// response rendered once into a cache that outlives this Response
/// (Api::answer), and `content_type`, `body` and `etag` go unused.
struct Response {
  int status{200};
  /// Viewed, not owned, so that building a Response allocates nothing for
  /// it: a literal or a cache that outlives the response. Empty sends no
  /// Content-Type header (a proxy passes an upstream one in extra_headers).
  std::string_view content_type{"application/json"};
  std::string body;
  std::string etag;  ///< sent as a strong ETag header when non-empty
  std::vector<std::pair<std::string, std::string>> extra_headers;
  /// Pre-rendered status line through Cache-Control (append_header_block);
  /// non-empty marks a by-reference response.
  std::string_view header_block;
  std::string_view shared_body;  ///< a by-reference response's body
};

/// Canonical reason phrase ("OK", "Not Modified", ...).
[[nodiscard]] std::string_view status_reason(int code) noexcept;

/// Appends the part of a header section that depends on the response alone:
/// the status line through Cache-Control. A 304 carries only its validator;
/// otherwise Content-Type (when non-empty) and Content-Length come first,
/// then ETag and Cache-Control when `etag` is non-empty.
void append_header_block(std::string& out, int status,
                         std::string_view content_type,
                         std::size_t content_length, std::string_view etag);

/// The header writer: appends `r`'s header section to `out`. That is its
/// block, unless `r` carries a pre-rendered one (which then goes on the wire
/// ahead of `out`), followed by the extra headers, X-Request-Id when
/// `request_id` is non-empty, Connection and the blank line.
void append_headers(std::string& out, const Response& r, bool keep_alive,
                    std::string_view request_id);

/// Full wire form: header section, then the body. `head` keeps the headers
/// (including Content-Length) but drops the body, per RFC 9110.
[[nodiscard]] std::string serialize_response(const Response& r, bool head,
                                             bool keep_alive,
                                             std::string_view request_id = {});

/// Tiny JSON error document: {"error":status,"reason":...,"detail":...}.
[[nodiscard]] Response error_response(int status, std::string_view detail);

/// Length of a minted correlation id.
inline constexpr std::size_t kRequestIdLength = 16;

/// Writes a fresh correlation id into `out`: lowercase hex, unique per
/// process and cheap enough for the per-request path (thread-local
/// xorshift, no lock, no allocation).
void mint_request_id(char (&out)[kRequestIdLength]) noexcept;

/// True when a client-supplied X-Request-Id is safe to echo verbatim:
/// 1..128 visible ASCII characters (no separators a header could smuggle).
[[nodiscard]] bool valid_request_id(std::string_view id) noexcept;

}  // namespace mcmm::serve
