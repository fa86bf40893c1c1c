#include "serve/http.hpp"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <functional>
#include <iterator>
#include <thread>

#include "serve/json.hpp"

namespace mcmm::serve {
namespace {

std::string lowered(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string_view trim_ows(std::string_view s) noexcept {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

bool is_token_char(unsigned char c) noexcept {
  if (std::isalnum(c) != 0) return true;
  switch (c) {
    case '!': case '#': case '$': case '%': case '&': case '\'': case '*':
    case '+': case '-': case '.': case '^': case '_': case '`': case '|':
    case '~':
      return true;
    default:
      return false;
  }
}

bool is_token(std::string_view s) noexcept {
  if (s.empty()) return false;
  return std::all_of(s.begin(), s.end(), [](char c) {
    return is_token_char(static_cast<unsigned char>(c));
  });
}

int hex_digit(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Splits "k=v&k2=v2" into decoded pairs; false on a bad escape.
bool parse_query(std::string_view raw,
                 std::vector<std::pair<std::string, std::string>>& out) {
  while (!raw.empty()) {
    const std::size_t amp = raw.find('&');
    const std::string_view pair =
        amp == std::string_view::npos ? raw : raw.substr(0, amp);
    raw = amp == std::string_view::npos ? std::string_view{}
                                        : raw.substr(amp + 1);
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    const std::string_view key =
        eq == std::string_view::npos ? pair : pair.substr(0, eq);
    const std::string_view value = eq == std::string_view::npos
                                       ? std::string_view{}
                                       : pair.substr(eq + 1);
    auto dk = percent_decode(key);
    auto dv = percent_decode(value);
    if (!dk || !dv) return false;
    out.emplace_back(std::move(*dk), std::move(*dv));
  }
  return true;
}

void append_number(std::string& out, std::size_t value) {
  char digits[24];
  out.append(digits, std::to_chars(digits, std::end(digits), value).ptr);
}

}  // namespace

std::optional<std::string> percent_decode(std::string_view in) {
  std::string out;
  out.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (in[i] != '%') {
      out += in[i];
      continue;
    }
    if (i + 2 >= in.size()) return std::nullopt;
    const int hi = hex_digit(in[i + 1]);
    const int lo = hex_digit(in[i + 2]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out += static_cast<char>((hi << 4) | lo);
    i += 2;
  }
  return out;
}

const std::string* Request::header(std::string_view name) const noexcept {
  const std::string key = lowered(name);
  for (const auto& [n, v] : headers) {
    if (n == key) return &v;
  }
  return nullptr;
}

std::string_view Request::query_param(std::string_view key,
                                      std::string_view fallback)
    const noexcept {
  for (const auto& [k, v] : query) {
    if (k == key) return v;
  }
  return fallback;
}

bool Request::keep_alive() const noexcept {
  const std::string* connection = header("connection");
  if (connection != nullptr) {
    const std::string value = lowered(*connection);
    if (value.find("close") != std::string::npos) return false;
    if (value.find("keep-alive") != std::string::npos) return true;
  }
  return version_minor >= 1;  // HTTP/1.1 defaults to persistent
}

RequestParser::Status RequestParser::fail(int http_status,
                                          std::string reason) {
  status_ = Status::Error;
  error_status_ = http_status;
  error_reason_ = std::move(reason);
  return status_;
}

bool RequestParser::mid_request() const noexcept {
  return status_ == Status::NeedMore &&
         (buffer_.size() > consumed_ || state_ != State::RequestLine ||
          consumed_ > 0);
}

RequestParser::Status RequestParser::feed(std::string_view data) {
  if (status_ != Status::NeedMore) return status_;
  buffer_.append(data);
  return parse();
}

RequestParser::Status RequestParser::parse() {
  while (status_ == Status::NeedMore) {
    if (state_ == State::Body) {
      const std::size_t available = buffer_.size() - consumed_;
      if (available < content_length_) return status_;
      request_.body = buffer_.substr(consumed_, content_length_);
      consumed_ += content_length_;
      state_ = State::Done;
      status_ = Status::Complete;
      return status_;
    }
    // Line-oriented states: find the next LF (tolerating bare-LF input,
    // stripping the CR of a CRLF).
    const std::size_t lf = buffer_.find('\n', consumed_);
    if (lf == std::string::npos) {
      const std::size_t pending = buffer_.size() - consumed_;
      if (state_ == State::RequestLine && pending > limits_.max_request_line) {
        return fail(414, "request line too long");
      }
      if (state_ == State::Headers &&
          header_bytes_ + pending > limits_.max_header_bytes) {
        return fail(431, "header section too large");
      }
      return status_;
    }
    std::string_view line(buffer_.data() + consumed_, lf - consumed_);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    const std::size_t line_span = lf + 1 - consumed_;
    consumed_ = lf + 1;
    if (state_ == State::RequestLine) {
      if (line.empty()) continue;  // tolerate leading blank lines (RFC 9112)
      if (line.size() > limits_.max_request_line) {
        return fail(414, "request line too long");
      }
      if (parse_request_line(line) == Status::Error) return status_;
      state_ = State::Headers;
    } else {  // State::Headers
      header_bytes_ += line_span;
      if (header_bytes_ > limits_.max_header_bytes) {
        return fail(431, "header section too large");
      }
      if (line.empty()) {
        if (finish_headers() == Status::Error) return status_;
        continue;
      }
      if (request_.headers.size() >= limits_.max_header_count) {
        return fail(431, "too many header fields");
      }
      if (parse_header_line(line) == Status::Error) return status_;
    }
  }
  return status_;
}

RequestParser::Status RequestParser::parse_request_line(
    std::string_view line) {
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      line.find(' ', sp2 + 1) != std::string_view::npos) {
    return fail(400, "malformed request line");
  }
  const std::string_view method = line.substr(0, sp1);
  const std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = line.substr(sp2 + 1);
  if (!is_token(method) || method.size() > 16) {
    return fail(400, "malformed method");
  }
  if (target.empty() || target.front() != '/') {
    return fail(400, "only origin-form targets are served");
  }
  if (version == "HTTP/1.1") {
    request_.version_minor = 1;
  } else if (version == "HTTP/1.0") {
    request_.version_minor = 0;
  } else {
    return fail(505, "unsupported HTTP version");
  }
  request_.method = std::string(method);
  request_.target = std::string(target);
  const std::size_t qmark = target.find('?');
  const std::string_view raw_path =
      qmark == std::string_view::npos ? target : target.substr(0, qmark);
  auto decoded = percent_decode(raw_path);
  if (!decoded) return fail(400, "bad percent-escape in path");
  request_.path = std::move(*decoded);
  if (qmark != std::string_view::npos &&
      !parse_query(target.substr(qmark + 1), request_.query)) {
    return fail(400, "bad percent-escape in query");
  }
  return status_;
}

RequestParser::Status RequestParser::parse_header_line(std::string_view line) {
  const std::size_t colon = line.find(':');
  if (colon == std::string_view::npos) {
    return fail(400, "header line without ':'");
  }
  const std::string_view name = line.substr(0, colon);
  if (!is_token(name)) {
    // Covers whitespace before the colon too (request smuggling vector).
    return fail(400, "malformed header name");
  }
  if (request_.headers.empty()) {
    // Once per request: a typical client's few headers then never regrow.
    request_.headers.reserve(
        std::min<std::size_t>(8, limits_.max_header_count));
  }
  request_.headers.emplace_back(lowered(name),
                                std::string(trim_ows(line.substr(colon + 1))));
  return status_;
}

RequestParser::Status RequestParser::finish_headers() {
  const std::string* te = request_.header("transfer-encoding");
  if (te != nullptr) {
    return fail(501, "transfer codings are not implemented");
  }
  content_length_ = 0;
  const std::string* cl = nullptr;
  for (const auto& [n, v] : request_.headers) {
    if (n != "content-length") continue;
    if (cl != nullptr && v != *cl) {
      return fail(400, "conflicting content-length headers");
    }
    cl = &v;
  }
  if (cl != nullptr) {
    if (cl->empty() ||
        !std::all_of(cl->begin(), cl->end(), [](unsigned char c) {
          return std::isdigit(c) != 0;
        }) ||
        cl->size() > 12) {
      return fail(400, "malformed content-length");
    }
    content_length_ = std::stoul(*cl);
    if (content_length_ > limits_.max_body) {
      return fail(413, "request body too large");
    }
  }
  if (content_length_ == 0) {
    state_ = State::Done;
    status_ = Status::Complete;
  } else {
    state_ = State::Body;
  }
  return status_;
}

Request RequestParser::take_request() { return std::move(request_); }

void RequestParser::reset() {
  buffer_.erase(0, consumed_);
  consumed_ = 0;
  header_bytes_ = 0;
  content_length_ = 0;
  state_ = State::RequestLine;
  status_ = Status::NeedMore;
  error_status_ = 0;
  error_reason_.clear();
  request_ = Request{};
  if (!buffer_.empty()) parse();  // pipelined bytes may already complete
}

std::string_view status_reason(int code) noexcept {
  switch (code) {
    case 200: return "OK";
    case 304: return "Not Modified";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 414: return "URI Too Long";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 502: return "Bad Gateway";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    case 505: return "HTTP Version Not Supported";
    default: return "Unknown";
  }
}

void append_header_block(std::string& out, int status,
                         std::string_view content_type,
                         std::size_t content_length, std::string_view etag) {
  out += "HTTP/1.1 ";
  append_number(out, static_cast<std::size_t>(status));
  out += ' ';
  out += status_reason(status);
  out += "\r\nServer: mcmm-serve/1\r\n";
  if (status == 304) {
    // A 304 carries validator headers but never a body (RFC 9110 §15.4.5).
    if (!etag.empty()) {
      out += "ETag: ";
      out += etag;
      out += "\r\n";
    }
    return;
  }
  if (!content_type.empty()) {
    out += "Content-Type: ";
    out += content_type;
    out += "\r\n";
  }
  out += "Content-Length: ";
  append_number(out, content_length);
  out += "\r\n";
  if (!etag.empty()) {
    out += "ETag: ";
    out += etag;
    out += "\r\nCache-Control: max-age=0, must-revalidate\r\n";
  }
}

void append_headers(std::string& out, const Response& r, bool keep_alive,
                    std::string_view request_id) {
  if (r.header_block.empty()) {
    append_header_block(out, r.status, r.content_type, r.body.size(), r.etag);
  }
  for (const auto& [name, value] : r.extra_headers) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  if (!request_id.empty()) {
    out += "X-Request-Id: ";
    out += request_id;
    out += "\r\n";
  }
  out += keep_alive ? "Connection: keep-alive\r\n\r\n"
                    : "Connection: close\r\n\r\n";
}

std::string serialize_response(const Response& r, bool head, bool keep_alive,
                               std::string_view request_id) {
  const std::string_view body =
      r.header_block.empty() ? std::string_view(r.body) : r.shared_body;
  std::string out;
  out.reserve(r.header_block.size() + body.size() + 256);
  out += r.header_block;
  append_headers(out, r, keep_alive, request_id);
  if (!head && r.status != 304) out += body;
  return out;
}

Response error_response(int status, std::string_view detail) {
  Response r;
  r.status = status;
  std::string body = "{\"error\":";
  body += std::to_string(status);
  body += ",\"reason\":";
  body += json_quote(status_reason(status));
  body += ",\"detail\":";
  body += json_quote(detail);
  body += "}\n";
  r.body = std::move(body);
  return r;
}

void mint_request_id(char (&out)[kRequestIdLength]) noexcept {
  // Thread-local xorshift64* seeded once per thread from the clock and the
  // thread identity; ids only need process-level uniqueness, not secrecy.
  thread_local std::uint64_t state = [] {
    std::uint64_t seed = static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    seed ^= std::hash<std::thread::id>{}(std::this_thread::get_id());
    seed ^= static_cast<std::uint64_t>(::getpid()) << 32;
    return seed | 1;  // xorshift must not start at zero
  }();
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  std::uint64_t value = state * 2685821657736338717ULL;
  static constexpr char kHex[] = "0123456789abcdef";
  for (std::size_t i = kRequestIdLength; i-- > 0; value >>= 4) {
    out[i] = kHex[value & 0xf];
  }
}

bool valid_request_id(std::string_view id) noexcept {
  if (id.empty() || id.size() > 128) return false;
  return std::all_of(id.begin(), id.end(), [](unsigned char c) {
    return c > 0x20 && c < 0x7f;
  });
}

}  // namespace mcmm::serve
