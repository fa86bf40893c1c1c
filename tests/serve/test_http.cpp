// Adversarial and property tests for the serve HTTP request parser:
// split reads, pipelining, size caps, smuggling vectors, %-escapes.
#include <gtest/gtest.h>

#include <string>

#include "serve/http.hpp"

namespace {

using mcmm::serve::Limits;
using mcmm::serve::percent_decode;
using mcmm::serve::Request;
using mcmm::serve::RequestParser;
using mcmm::serve::Response;
using mcmm::serve::serialize_response;
using Status = mcmm::serve::RequestParser::Status;

TEST(HttpParser, ParsesASimpleGet) {
  RequestParser p;
  ASSERT_EQ(p.feed("GET /v1/matrix?format=txt HTTP/1.1\r\n"
                   "Host: localhost\r\n\r\n"),
            Status::Complete);
  const Request r = p.take_request();
  EXPECT_EQ(r.method, "GET");
  EXPECT_EQ(r.path, "/v1/matrix");
  EXPECT_EQ(r.query_param("format"), "txt");
  EXPECT_EQ(*r.header("host"), "localhost");
  EXPECT_TRUE(r.keep_alive());
}

TEST(HttpParser, OneByteAtATime) {
  const std::string wire =
      "POST /v1/plan HTTP/1.1\r\nContent-Length: 4\r\n"
      "Content-Type: application/json\r\n\r\nnull";
  RequestParser p;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    const Status s = p.feed(wire.substr(i, 1));
    if (i + 1 < wire.size()) {
      ASSERT_EQ(s, Status::NeedMore) << "byte " << i;
      EXPECT_TRUE(p.mid_request());
    } else {
      ASSERT_EQ(s, Status::Complete);
    }
  }
  const Request r = p.take_request();
  EXPECT_EQ(r.method, "POST");
  EXPECT_EQ(r.body, "null");
}

TEST(HttpParser, PipelinedRequestsAreKeptApart) {
  RequestParser p;
  ASSERT_EQ(p.feed("GET /healthz HTTP/1.1\r\n\r\n"
                   "GET /v1/claims HTTP/1.1\r\n\r\n"),
            Status::Complete);
  EXPECT_EQ(p.take_request().path, "/healthz");
  p.reset();  // must re-parse the already-buffered second request
  ASSERT_EQ(p.status(), Status::Complete);
  EXPECT_EQ(p.take_request().path, "/v1/claims");
  p.reset();
  EXPECT_EQ(p.status(), Status::NeedMore);
  EXPECT_FALSE(p.mid_request());
}

TEST(HttpParser, ToleratesBareLfAndLeadingBlankLines) {
  RequestParser p;
  ASSERT_EQ(p.feed("\r\n\nGET / HTTP/1.1\nHost: x\n\n"), Status::Complete);
  EXPECT_EQ(p.take_request().path, "/");
}

TEST(HttpParser, RejectsOversizedRequestLine) {
  Limits limits;
  limits.max_request_line = 64;
  RequestParser p(limits);
  const std::string long_target(200, 'a');
  EXPECT_EQ(p.feed("GET /" + long_target + " HTTP/1.1\r\n\r\n"),
            Status::Error);
  EXPECT_EQ(p.error_status(), 414);
}

TEST(HttpParser, RejectsOversizedRequestLineWithoutNewline) {
  // The cap must bite while the line is still arriving, not only at CRLF —
  // otherwise a peer that never sends a newline grows the buffer forever.
  Limits limits;
  limits.max_request_line = 64;
  RequestParser p(limits);
  Status s = Status::NeedMore;
  for (int i = 0; i < 40 && s == Status::NeedMore; ++i) {
    s = p.feed("aaaaaaaaaa");
  }
  ASSERT_EQ(s, Status::Error);
  EXPECT_EQ(p.error_status(), 414);
}

TEST(HttpParser, RejectsOversizedHeaderSection) {
  Limits limits;
  limits.max_header_bytes = 256;
  RequestParser p(limits);
  std::string wire = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 16; ++i) {
    wire += "X-Filler-" + std::to_string(i) + ": " + std::string(32, 'x') +
            "\r\n";
  }
  wire += "\r\n";
  EXPECT_EQ(p.feed(wire), Status::Error);
  EXPECT_EQ(p.error_status(), 431);
}

TEST(HttpParser, RejectsTooManyHeaders) {
  Limits limits;
  limits.max_header_count = 4;
  const auto with_headers = [](int count) {
    std::string wire = "GET / HTTP/1.1\r\n";
    for (int i = 0; i < count; ++i) {
      wire += 'H';
      wire += std::to_string(i);
      wire += ": v\r\n";
    }
    return wire + "\r\n";
  };
  // Exactly at the limit parses; one more header is a 431.
  RequestParser at_limit(limits);
  EXPECT_EQ(at_limit.feed(with_headers(4)), Status::Complete);
  EXPECT_EQ(at_limit.take_request().headers.size(), 4u);
  RequestParser over(limits);
  EXPECT_EQ(over.feed(with_headers(5)), Status::Error);
  EXPECT_EQ(over.error_status(), 431);
}

TEST(HttpParser, RejectsOversizedBody) {
  Limits limits;
  limits.max_body = 16;
  // A body of exactly max_body bytes is accepted; one more byte is a 413.
  RequestParser at_limit(limits);
  EXPECT_EQ(at_limit.feed("POST /v1/plan HTTP/1.1\r\nContent-Length: 16\r\n"
                          "\r\n0123456789abcdef"),
            Status::Complete);
  EXPECT_EQ(at_limit.take_request().body, "0123456789abcdef");
  RequestParser over(limits);
  EXPECT_EQ(
      over.feed("POST /v1/plan HTTP/1.1\r\nContent-Length: 17\r\n\r\n"),
      Status::Error);
  EXPECT_EQ(over.error_status(), 413);
}

TEST(HttpParser, RejectsBadVerbsAndTargets) {
  {
    RequestParser p;
    EXPECT_EQ(p.feed("GE T / HTTP/1.1\r\n\r\n"), Status::Error);
    EXPECT_EQ(p.error_status(), 400);
  }
  {
    RequestParser p;
    EXPECT_EQ(p.feed("GET example.com HTTP/1.1\r\n\r\n"), Status::Error);
    EXPECT_EQ(p.error_status(), 400);
  }
  {
    RequestParser p;
    EXPECT_EQ(p.feed("G\x01T / HTTP/1.1\r\n\r\n"), Status::Error);
    EXPECT_EQ(p.error_status(), 400);
  }
  {
    RequestParser p;
    EXPECT_EQ(p.feed("GET / HTTP/2.0\r\n\r\n"), Status::Error);
    EXPECT_EQ(p.error_status(), 505);
  }
}

TEST(HttpParser, RejectsSmugglingShapedHeaders) {
  {
    // Whitespace before the colon (RFC 9112 forbids it: smuggling vector).
    RequestParser p;
    EXPECT_EQ(p.feed("GET / HTTP/1.1\r\nHost : x\r\n\r\n"), Status::Error);
    EXPECT_EQ(p.error_status(), 400);
  }
  {
    RequestParser p;
    EXPECT_EQ(p.feed("GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
              Status::Error);
    EXPECT_EQ(p.error_status(), 501);
  }
  {
    RequestParser p;
    EXPECT_EQ(p.feed("POST / HTTP/1.1\r\nContent-Length: 4\r\n"
                     "Content-Length: 5\r\n\r\n"),
              Status::Error);
    EXPECT_EQ(p.error_status(), 400);
  }
  {
    RequestParser p;
    EXPECT_EQ(p.feed("POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n"),
              Status::Error);
    EXPECT_EQ(p.error_status(), 400);
  }
}

TEST(HttpParser, DecodesPercentEscapes) {
  RequestParser p;
  ASSERT_EQ(p.feed("GET /v1/cell/amd/sycl/c%2B%2B?x=a%20b HTTP/1.1\r\n\r\n"),
            Status::Complete);
  const Request r = p.take_request();
  EXPECT_EQ(r.path, "/v1/cell/amd/sycl/c++");
  EXPECT_EQ(r.query_param("x"), "a b");
}

TEST(HttpParser, RejectsBadPercentEscapes) {
  for (const char* target : {"/a%2", "/a%zz", "/a%", "/ok?k=%f"}) {
    RequestParser p;
    EXPECT_EQ(p.feed(std::string("GET ") + target + " HTTP/1.1\r\n\r\n"),
              Status::Error)
        << target;
    EXPECT_EQ(p.error_status(), 400) << target;
  }
}

TEST(HttpParser, KeepAliveDefaultsPerVersion) {
  {
    RequestParser p;
    ASSERT_EQ(p.feed("GET / HTTP/1.0\r\n\r\n"), Status::Complete);
    EXPECT_FALSE(p.take_request().keep_alive());
  }
  {
    RequestParser p;
    ASSERT_EQ(p.feed("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"),
              Status::Complete);
    EXPECT_TRUE(p.take_request().keep_alive());
  }
  {
    RequestParser p;
    ASSERT_EQ(p.feed("GET / HTTP/1.1\r\nConnection: close\r\n\r\n"),
              Status::Complete);
    EXPECT_FALSE(p.take_request().keep_alive());
  }
}

TEST(HttpParser, HeaderNamesAreCaseInsensitive) {
  RequestParser p;
  ASSERT_EQ(p.feed("GET / HTTP/1.1\r\nIf-NONE-Match: \"abc\"\r\n\r\n"),
            Status::Complete);
  const Request r = p.take_request();
  ASSERT_NE(r.header("if-none-match"), nullptr);
  EXPECT_EQ(*r.header("If-None-Match"), "\"abc\"");
}

TEST(PercentDecode, RoundTripsPlainText) {
  EXPECT_EQ(percent_decode("hello"), "hello");
  EXPECT_EQ(percent_decode("a%2Fb%00c").value(),
            std::string("a/b\0c", 5));
  EXPECT_FALSE(percent_decode("%GG").has_value());
  EXPECT_FALSE(percent_decode("%2").has_value());
}

TEST(HttpResponse, SerializesStatusHeadersAndBody) {
  Response r;
  r.status = 200;
  r.body = "hi";
  r.etag = "\"abcd\"";
  const std::string full = serialize_response(r, false, true);
  EXPECT_NE(full.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(full.find("Content-Length: 2\r\n"), std::string::npos);
  EXPECT_NE(full.find("ETag: \"abcd\"\r\n"), std::string::npos);
  EXPECT_NE(full.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_EQ(full.substr(full.size() - 2), "hi");

  const std::string head = serialize_response(r, true, false);
  EXPECT_NE(head.find("Content-Length: 2\r\n"), std::string::npos);
  EXPECT_NE(head.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(head.substr(head.size() - 4), "\r\n\r\n");  // no body
}

TEST(HttpResponse, A304CarriesNoBodyOrContentLength) {
  Response r;
  r.status = 304;
  r.etag = "\"abcd\"";
  r.body = "";
  const std::string wire = serialize_response(r, false, true);
  EXPECT_NE(wire.find("HTTP/1.1 304 Not Modified\r\n"), std::string::npos);
  EXPECT_EQ(wire.find("Content-Length"), std::string::npos);
  EXPECT_NE(wire.find("ETag: \"abcd\"\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - 4), "\r\n\r\n");
}

}  // namespace
