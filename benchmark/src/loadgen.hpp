#pragma once
// The benchmark's HTTP client side: an open-loop generator (one thread,
// epoll over at most a few keep-alive connections) and a blocking client
// for probes and readiness checks. Neither uses the program's own HTTP
// code, so the judge does not share a parser with what it judges.
//
// Open loop: request i is due at t0 + i / rate and goes to connection
// i % connections whether or not earlier answers arrived. A request that
// comes due while its connection is busy is pipelined behind the ones in
// flight, up to a fixed depth; beyond it the request waits in the
// generator and is sent late, which shows as lag. Latency is counted from
// the due time, so a server stall also delays every request queued behind
// it.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "requests.hpp"
#include "stats.hpp"

namespace mcmm::bm {

struct LoadConfig {
  std::uint16_t port{0};
  unsigned connections{4};
  double rate{1000};    ///< offered requests per second
  double seconds{1};    ///< schedule length
  std::uint64_t first_index{0};  ///< schedule offset into the mix
};

struct LoadResult {
  std::uint64_t attempted{0};  ///< requests that came due
  std::uint64_t completed{0};  ///< answered correctly
  std::uint64_t failed{0};     ///< wrong answer, transport error, or none
  std::uint64_t conditional{0};
  std::uint64_t not_modified{0};
  std::vector<double> latency_us;  ///< per answered request, from due time
  std::vector<float> due_s;        ///< its due time, seconds into the run
  std::vector<double> lag_us;      ///< per sent request, send minus due
  std::string first_failure;
  double elapsed_s{0};
};

[[nodiscard]] LoadResult run_open_loop(const LoadConfig& config,
                                       const RequestMix& mix);

/// The median latency of each one-second window (by due time) of the run,
/// µs. Their median is steadier between runs than the pooled median on a
/// host whose speed drifts within a run.
[[nodiscard]] std::vector<double> window_p50s_us(const LoadResult& r);

/// Framing of one HTTP/1.1 response at the start of `buf`. Returns 1 when
/// complete (status, header and body lengths filled), 0 when more bytes
/// are needed, -1 when malformed.
int parse_response(std::string_view buf, int* status, std::size_t* header_len,
                   std::size_t* body_len);

/// One keep-alive connection with blocking request/response exchanges.
class BlockingClient {
 public:
  /// Throws std::runtime_error when the connection cannot be made.
  explicit BlockingClient(std::uint16_t port);
  ~BlockingClient();
  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;

  /// Sends `wire` and reads one response; returns its status (-1 on a
  /// transport error) and stores the body in `*body` when non-null.
  int exchange(std::string_view wire, std::string* body);

 private:
  int fd_{-1};
  std::string in_;
};

/// One-shot GET on a fresh connection; -1 when it cannot connect.
int http_get(std::uint16_t port, const std::string& path, std::string* body);

/// Opens a TCP connection to 127.0.0.1:port with TCP_NODELAY; -1 on error.
int connect_loopback(std::uint16_t port);

}  // namespace mcmm::bm
