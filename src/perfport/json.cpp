// BENCH_perfport.json writer (schema "mcmm-perfport-v1"): raw route
// samples plus the aggregated Figure 2 rows. Only simulated-clock
// quantities appear, so the payload is byte-deterministic across host
// thread counts — asserted by tests and diffed by the perf-trajectory CI
// job.

#include <cstdio>

#include "perfport/perfport.hpp"

namespace mcmm::perfport {
namespace {

[[nodiscard]] std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

[[nodiscard]] std::string json_str(std::string_view v) {
  // Route labels and enum names contain no characters needing escapes.
  std::string out = "\"";
  out += v;
  out += '"';
  return out;
}

}  // namespace

std::string report_json(const PerfReport& report) {
  std::string out = "{\n  \"schema\": \"mcmm-perfport-v1\",\n";

  out += "  \"config\": {\"sizes\": [";
  for (std::size_t i = 0; i < report.config.sizes.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(report.config.sizes[i]);
  }
  out += "], \"reps\": " + std::to_string(report.config.reps);
  out += ", \"schedules\": [";
  for (std::size_t i = 0; i < report.config.schedules.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_str(to_string(report.config.schedules[i]));
  }
  out += "], \"vendors\": [";
  for (std::size_t i = 0; i < report.config.vendors.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_str(to_string(report.config.vendors[i]));
  }
  out += "]},\n";

  out += "  \"route_count\": " + std::to_string(report.route_count) + ",\n";
  out += "  \"kernel_count\": " +
         std::to_string(report.config.kernels.empty()
                            ? kAllPerfKernels.size()
                            : report.config.kernels.size()) +
         ",\n";

  // The weak-scaling section only appears when the report carries one, so
  // campaign-only payloads stay byte-identical to the committed goldens.
  if (!report.weak_scaling.empty()) {
    out += "  \"weak_scaling\": [\n";
    for (std::size_t i = 0; i < report.weak_scaling.size(); ++i) {
      const WeakScalingSample& w = report.weak_scaling[i];
      out += "    {\"vendor\": " + json_str(to_string(w.vendor));
      out += ", \"devices\": " + std::to_string(w.devices);
      out += ", \"n_per_device\": " + std::to_string(w.n_per_device);
      out += ", \"reps\": " + std::to_string(w.reps);
      out += ", \"graph_nodes\": " + std::to_string(w.graph_nodes);
      out += ", \"sim_us\": " + json_num(w.sim_us);
      out += ", \"p2p_us\": " + json_num(w.p2p_us);
      out += ", \"efficiency\": " + json_num(w.efficiency);
      out += std::string(", \"verified\": ") +
             (w.verified ? "true" : "false");
      out += ", \"shares\": [";
      for (std::size_t j = 0; j < w.shares.size(); ++j) {
        const DeviceShare& s = w.shares[j];
        if (j > 0) out += ", ";
        out += "{\"device\": " + json_str(s.device);
        out += ", \"ordinal\": " + std::to_string(s.ordinal);
        out += ", \"sim_us\": " + json_num(s.sim_us);
        out += ", \"achieved_gbps\": " + json_num(s.achieved_gbps);
        out += ", \"pct_of_peak\": " + json_num(s.pct_of_peak) + "}";
      }
      out += "]}";
      if (i + 1 < report.weak_scaling.size()) out += ",";
      out += "\n";
    }
    out += "  ],\n";
  }

  out += "  \"samples\": [\n";
  for (std::size_t i = 0; i < report.samples.size(); ++i) {
    const RouteSample& s = report.samples[i];
    out += "    {\"route\": " + json_str(s.route);
    out += ", \"model\": " + json_str(to_string(s.model));
    out += ", \"vendor\": " + json_str(to_string(s.vendor));
    out += ", \"schedule\": " + json_str(s.schedule);
    out += ", \"kernel\": " + json_str(to_string(s.kernel));
    out += ", \"n\": " + std::to_string(s.n);
    out += ", \"launches\": " + std::to_string(s.launches);
    out += ", \"sim_us\": " + json_num(s.sim_us);
    out += ", \"achieved_gbps\": " + json_num(s.achieved_gbps);
    out += ", \"pct_of_peak\": " + json_num(s.pct_of_peak);
    out += ", \"peak_gbps\": " + json_num(s.peak_gbps);
    out += std::string(", \"verified\": ") +
           (s.verified ? "true" : "false") + "}";
    if (i + 1 < report.samples.size()) out += ",";
    out += "\n";
  }
  out += "  ],\n";

  out += "  \"rows\": [\n";
  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    const PerfRow& r = report.rows[i];
    out += "    {\"model\": " + json_str(to_string(r.model));
    out += ", \"kernel\": " + json_str(to_string(r.kernel));
    out += ", \"pp\": " + json_num(r.pp);
    out += ", \"cells\": [";
    for (std::size_t j = 0; j < r.cells.size(); ++j) {
      const PerfCell& c = r.cells[j];
      if (j > 0) out += ", ";
      out += "{\"vendor\": " + json_str(to_string(c.vendor));
      out += std::string(", \"supported\": ") +
             (c.supported ? "true" : "false");
      out += ", \"efficiency\": " + json_num(c.efficiency);
      out += ", \"route\": " + json_str(c.route);
      out += ", \"achieved_gbps\": " + json_num(c.achieved_gbps) + "}";
    }
    out += "]}";
    if (i + 1 < report.rows.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace mcmm::perfport
