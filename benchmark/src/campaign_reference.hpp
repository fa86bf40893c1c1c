#pragma once
// What one default Figure 2 campaign (perfport::run_campaign()) plus one
// perfport::run_weak_scaling() pass produce, recorded from the program at
// the commit that introduced this benchmark. The perfport probe of every
// traced run must reproduce all of it: the report is byte-deterministic
// across host thread counts, so any difference is a changed output. A
// change that moves the simulated results on purpose re-records these
// values from the message the probe prints.

#include <cstddef>
#include <cstdint>

namespace mcmm::bm::reference {

/// Strong ETag (serve::etag_for) of perfport::report_json's bytes.
inline constexpr const char* kReportEtag = "\"df1ce8284f15b340\"";
/// Simulated microseconds summed over the samples, then the weak-scaling
/// points, in report order.
inline constexpr double kSimUs = 0x1.e5cf212a0c65ep+14;
/// Kernel launches summed over the campaign's samples.
inline constexpr std::uint64_t kLaunches = 1932;
inline constexpr std::size_t kSamples = 966;
inline constexpr std::size_t kWeakPoints = 9;

}  // namespace mcmm::bm::reference
