#pragma once
// The seeded request mixes of the serving workloads and the expected answer
// of every request. Expectations come from an in-process serve::Api over
// the same knowledge base, so a served 200 body must be byte-equal to what
// Api::handle returns for the same request bytes, and a conditional GET
// carrying the current ETag must get a bodyless 304.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/matrix.hpp"
#include "serve/api.hpp"
#include "serve/http.hpp"

namespace mcmm::bm {

/// One distinct request and what a correct server answers.
struct RequestTemplate {
  std::string wire;  ///< full HTTP/1.1 request bytes
  std::string path;  ///< request target, for failure messages
  int expect_status{200};
  std::string expect_body;  ///< byte-exact 200 body; empty for a 304
  /// /healthz reports live pid/in-flight values, so its body is checked by
  /// shape instead of bytes.
  bool live_body{false};
  bool conditional{false};
};

class RequestMix {
 public:
  /// Builds every template and its expectation. Without `plans` (the
  /// serve-lookup mix) every request is a cached GET, uniform over the
  /// distinct resources (/v1/matrix in every format, /v1/cell over all
  /// cells, /v1/claims and /healthz), and every 8th is a conditional GET
  /// carrying the resource's current ETag, uniform over the resources that
  /// have one. With `plans` (the serve-plan mix) every request is a POST
  /// /v1/plan, uniform over 1024 bodies drawn from the seed. Throws
  /// std::runtime_error when a generated request is not answered 200/304
  /// in process (a benchmark defect, not a server one).
  RequestMix(const serve::Api& api, const CompatibilityMatrix& matrix,
             std::uint64_t seed, bool plans);

  /// The i-th request of the schedule; a pure function of (seed, i).
  [[nodiscard]] const RequestTemplate& request(std::uint64_t i) const;
  [[nodiscard]] std::size_t index_of(std::uint64_t i) const;

  [[nodiscard]] const std::vector<RequestTemplate>& templates() const noexcept {
    return templates_;
  }

 private:
  std::uint64_t seed_;
  bool plans_;
  std::vector<RequestTemplate> templates_;
  std::vector<std::uint32_t> plain_;  ///< one per distinct GET or plan query
  std::vector<std::uint32_t> conditional_;  ///< If-None-Match twins
};

/// "" when (status, body) is the template's expected answer, else a short
/// reason.
[[nodiscard]] std::string check_response(const RequestTemplate& t, int status,
                                         std::string_view body);

/// Parses complete request bytes the way the server does.
[[nodiscard]] serve::Request parse_request(std::string_view wire);

}  // namespace mcmm::bm
