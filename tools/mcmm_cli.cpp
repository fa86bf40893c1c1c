// mcmm: the command-line front door to the compatibility knowledge base —
// the "concise table and detailed comments" of the paper as a tool.
//
//   mcmm table [text|markdown|html|latex|csv]   print Fig. 1
//   mcmm describe <item|vendor model language>  one Sec. 4 description
//   mcmm advise <language> [vendors...] [--vendor-only] [--min tier]
//   mcmm claims                                 evaluate the paper claims
//   mcmm stats                                  category statistics
//   mcmm excluded                               Sec. 5 excluded models
//   mcmm export <dir>                           YAML + rendered artifacts
//   mcmm diff <before.yaml> <after.yaml>        snapshot changelog
//   mcmm sanitize [...]                         gpusan the simulated GPU
//   mcmm profile [...]                          gpuprof trace & roofline
//   mcmm perfbench [...]                        perf-portability campaign (Fig. 2)
//   mcmm graph [...]                            kernel-graph capture/replay demo
//   mcmm serve [--port N] [--threads N]         HTTP/JSON query service
//   mcmm gateway --backend host:port [...]      reverse proxy over replicas
//   mcmm cluster <replicas> [...]               forked replica fleet + proxy

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_support/stream.hpp"
#include "bench_support/stream_kernels.hpp"
#include "core/claims.hpp"
#include "core/diff.hpp"
#include "gpuprof/gpuprof.hpp"
#include "core/error.hpp"
#include "core/planner.hpp"
#include "core/statistics.hpp"
#include "data/dataset.hpp"
#include "data/excluded.hpp"
#include "gpusan/fixtures.hpp"
#include "gpusan/gpusan.hpp"
#include "gpusim/descriptor.hpp"
#include "gpusim/device.hpp"
#include "gpusim/graph.hpp"
#include "perfport/perfport.hpp"
#include "render/perf.hpp"
#include "render/render.hpp"
#include "render/report.hpp"
#include "gateway/gateway.hpp"
#include "gateway/supervisor.hpp"
#include "serve/server.hpp"
#include "yamlx/matrix_yaml.hpp"

#include <csignal>

namespace {

using namespace mcmm;

int usage() {
  std::cout <<
      R"(usage: mcmm <command> [args]

commands:
  table [text|markdown|html|latex|csv]   print the overview table (Fig. 1)
  describe <item-number>                 print one Sec. 4 description
  describe <vendor> <model> <language>   look up a cell's description
  advise <language> [vendors...] [--vendor-only] [--min <tier>]
                                         rank programming-model routes
  claims                                 evaluate the paper's claims
  stats                                  category statistics
  excluded                               models the paper excluded and why
  export <directory>                     write YAML/HTML/LaTeX/MD/CSV
  diff <before.yaml> <after.yaml>        changelog between two snapshots
  sanitize [--passes p1,p2] [--json] [--report <path>]
           [--fixture oob|uaf|race|race-clean|leak|pstlx]
           [-- <command> [args...]]
                                         run gpusan (memcheck/racecheck/
                                         leakcheck) over the clean suite, a
                                         defect fixture, or a wrapped
                                         command; exits non-zero on findings
  perfbench [--json] [--format json|txt|md|csv|html|latex|yaml]
            [--out <path>] [--vendor <v1,v2>] [--model <m1,m2>]
            [--kernel <k1,k2>] [--sizes <n1,n2>] [--reps <n>]
            [--schedule static|dynamic|both]
            [--weak-scaling] [--devices <d1,d2>]
                                         run the BabelStream perf-
                                         portability campaign over every
                                         allowed (model x vendor x
                                         schedule) route and print Fig. 2:
                                         efficiency vs vendor peak per
                                         cell, harmonic-mean PP per row;
                                         --out writes the JSON report
                                         (BENCH_perfport.json); exits
                                         non-zero if any route fails
                                         numerical verification;
                                         --weak-scaling appends the
                                         multi-device section (graph
                                         replay on --devices devices per
                                         vendor, default 1,2,4, with P2P
                                         result gather)
  graph [--vendor <v>] [--n <doubles>] [--reps <n>]
                                         kernel-graph capture & replay
                                         demo: captures the BabelStream
                                         triad cycle into a graph,
                                         validates + instantiates it, and
                                         replays it against the eager
                                         queue — printing node/wave
                                         counts and checking results and
                                         simulated time are bit-identical;
                                         exits non-zero on any mismatch
  serve [--port <n>] [--threads <n>] [--host <addr>] [--max-in-flight <n>]
        [--idle-timeout-ms <n>] [--backlog <n>] [--perf]
                                         HTTP/JSON API over the knowledge
                                         base: GET /v1/matrix (+?format=),
                                         GET /v1/cell/{v}/{m}/{l},
                                         POST /v1/plan, GET /v1/claims,
                                         /healthz, /metrics; --perf runs
                                         the perfbench campaign at startup
                                         and serves it at GET /v1/perf
                                         (+?format=); drains gracefully on
                                         SIGTERM/SIGINT; --max-in-flight
                                         sheds overload with 503 +
                                         Retry-After
  gateway --backend <host:port> [--backend ...] [--port <n>] [--host <addr>]
          [--threads <n>] [--policy rr|p2c] [--retries <n>]
          [--hedge-ms <n>] [--no-hedge] [--idle-timeout-ms <n>]
          [--backlog <n>]
                                         reverse proxy over running mcmm
                                         serve replicas: health-checked
                                         balancing, per-replica circuit
                                         breakers, budgeted retries of
                                         idempotent requests, latency
                                         hedging for /v1/matrix and
                                         /v1/perf; adds /gateway/healthz
                                         /gateway/replicas and a combined
                                         /metrics
  cluster <replicas> [--port <n>] [--host <addr>] [--threads <n>]
          [--replica-threads <n>] [--max-in-flight <n>] [--policy rr|p2c]
          [--retries <n>] [--hedge-ms <n>] [--no-hedge] [--no-perf]
                                         fork <replicas> serve processes on
                                         ephemeral ports and front them
                                         with the gateway; each replica
                                         serves GET /v1/perf unless
                                         --no-perf skips the startup
                                         campaign; SIGTERM drains the
                                         gateway then stops replicas
  profile [--chrome <path>] [--csv <path>] [--json] [--report <path>]
          [--allow-empty] [-- <command> [args...]]
                                         gpuprof: trace kernels/copies with
                                         per-kernel roofline attribution;
                                         wraps a command or runs the
                                         built-in BabelStream demo on all
                                         three simulated vendors; a wrapped
                                         run with an empty trace exits
                                         non-zero unless --allow-empty
)";
  return 2;
}

int cmd_table(const std::vector<std::string>& args) {
  const CompatibilityMatrix& m = data::paper_matrix();
  const std::string format = args.empty() ? "text" : args[0];
  if (format == "text") {
    std::cout << render::figure1_text(m);
  } else if (format == "markdown" || format == "md") {
    std::cout << render::figure1_markdown(m);
  } else if (format == "html") {
    std::cout << render::figure1_html(m);
  } else if (format == "latex" || format == "tex") {
    std::cout << render::figure1_latex(m);
  } else if (format == "csv") {
    std::cout << render::matrix_csv(m);
  } else {
    std::cerr << "unknown format: " << format << "\n";
    return 2;
  }
  return 0;
}

int cmd_describe(const std::vector<std::string>& args) {
  const CompatibilityMatrix& m = data::paper_matrix();
  if (args.size() == 1) {
    try {
      const int id = std::stoi(args[0]);
      std::cout << render::description_text(m, id);
      return 0;
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return 1;
    }
  }
  if (args.size() == 3) {
    const auto vendor = parse_vendor(args[0]);
    const auto model = parse_model(args[1]);
    const auto language = parse_language(args[2]);
    if (!vendor || !model || !language) {
      std::cerr << "cannot parse combination\n";
      return 2;
    }
    const SupportEntry* cell =
        m.find(Combination{*vendor, *model, *language});
    if (cell == nullptr) {
      std::cerr << "no such cell (does the language apply to the model?)\n";
      return 1;
    }
    std::cout << render::description_text(m, cell->description_id);
    return 0;
  }
  return usage();
}

int cmd_advise(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  PlannerQuery q;
  const auto language = parse_language(args[0]);
  if (!language) {
    std::cerr << "unknown language: " << args[0] << "\n";
    return 2;
  }
  q.language = *language;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--vendor-only") {
      q.require_vendor_support = true;
    } else if (args[i] == "--no-translators") {
      q.allow_translators = false;
    } else if (args[i] == "--min" && i + 1 < args.size()) {
      const auto tier = parse_category(args[++i]);
      if (!tier) {
        std::cerr << "unknown tier: " << args[i] << "\n";
        return 2;
      }
      q.minimum_category = *tier;
    } else if (const auto vendor = parse_vendor(args[i])) {
      q.must_run_on.push_back(*vendor);
    } else {
      std::cerr << "unknown argument: " << args[i] << "\n";
      return 2;
    }
  }
  const RoutePlanner planner(data::paper_matrix());
  const auto plans = planner.plan(q);
  std::cout << render::plan_report(plans);
  return plans.empty() ? 1 : 0;
}

int cmd_claims() {
  const Claims claims(data::paper_matrix());
  std::cout << render::claims_report(claims);
  for (const ClaimResult& r : claims.evaluate_all()) {
    if (!r.holds) return 1;
  }
  return 0;
}

int cmd_stats() {
  const Statistics stats(data::paper_matrix());
  std::cout << render::statistics_report(stats);
  return 0;
}

int cmd_excluded() {
  std::cout << data::excluded_models_note();
  return 0;
}

int cmd_export(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const std::string dir = args[0];
  const CompatibilityMatrix& m = data::paper_matrix();
  const auto write = [&](const std::string& name,
                         const std::string& content) {
    std::ofstream out(dir + "/" + name);
    if (!out) {
      std::cerr << "cannot write " << dir << "/" << name << "\n";
      std::exit(1);
    }
    out << content;
    std::cout << "wrote " << dir << "/" << name << "\n";
  };
  write("gpu_compat.yaml", yamlx::matrix_to_yaml_text(m));
  write("figure1.html", render::figure1_html(m));
  write("figure1.tex", render::figure1_latex(m));
  write("figure1.md", render::figure1_markdown(m));
  write("figure1.csv", render::matrix_csv(m));
  return 0;
}

int cmd_diff(const std::vector<std::string>& args) {
  if (args.size() != 2) return usage();
  const auto load = [](const std::string& path) {
    std::ifstream in(path);
    if (!in) throw Error("cannot read " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return yamlx::matrix_from_yaml_text(buffer.str());
  };
  try {
    const CompatibilityMatrix before = load(args[0]);
    const CompatibilityMatrix after = load(args[1]);
    const MatrixDiff d = diff_matrices(before, after);
    std::cout << format_diff(d);
    return d.empty() ? 0 : 3;  // 3 = differences found (like diff(1) = 1)
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
}

// --- mcmm sanitize -------------------------------------------------------

/// POSIX-shell single-quote escaping for the wrapper command line.
std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  out += "'";
  return out;
}

/// Extracts "total_findings": N from a gpusan JSON report; -1 if absent.
long parse_total_findings(const std::string& json) {
  const std::string key = "\"total_findings\":";
  const std::size_t pos = json.find(key);
  if (pos == std::string::npos) return -1;
  return std::strtol(json.c_str() + pos + key.size(), nullptr, 10);
}

/// Wrapper mode: re-runs `command` with MCMM_GPUSAN set (the target binary
/// links the gpusan autoinit object, so the env enables the passes and
/// writes a JSON report at exit) and turns the report into an exit code —
/// the compute-sanitizer usage shape.
int sanitize_wrapped(const std::vector<std::string>& command,
                     const std::string& passes_spec,
                     const std::string& report_path, bool json) {
  const std::string report_file =
      report_path.empty() ? ".mcmm_gpusan_report.json" : report_path;
  std::string cmdline = "MCMM_GPUSAN=";
  cmdline += shell_quote(passes_spec);
  cmdline += " MCMM_GPUSAN_REPORT=";
  cmdline += shell_quote(report_file);
  for (const std::string& word : command) {
    cmdline += ' ';
    cmdline += shell_quote(word);
  }
  const int child_status = std::system(cmdline.c_str());

  std::string report_json;
  {
    std::ifstream in(report_file);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    report_json = buffer.str();
  }
  if (report_path.empty()) std::remove(report_file.c_str());

  const long findings = parse_total_findings(report_json);
  if (json) std::cout << report_json;
  if (findings < 0) {
    std::cerr << "mcmm sanitize: no gpusan report produced — is the "
                 "wrapped binary built with mcmm_make_sanitizable?\n";
    return 2;
  }
  std::cout << "mcmm sanitize: " << findings << " finding(s), child "
            << (child_status == 0 ? "exited cleanly" : "failed") << "\n";
  if (child_status != 0) return 1;
  return findings == 0 ? 0 : 1;
}

int cmd_sanitize(const std::vector<std::string>& args) {
  gpusan::Config cfg;
  std::string passes_spec = "all";
  std::string report_path;
  std::string fixture;
  bool json = false;
  std::vector<std::string> wrapped;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--") {
      wrapped.assign(args.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                     args.end());
      if (wrapped.empty()) return usage();
      break;
    }
    if (a == "--json") {
      json = true;
    } else if (a == "--report" && i + 1 < args.size()) {
      report_path = args[++i];
    } else if (a == "--fixture" && i + 1 < args.size()) {
      fixture = args[++i];
    } else if (a == "--passes" && i + 1 < args.size()) {
      passes_spec = args[++i];
      cfg.memcheck = passes_spec.find("memcheck") != std::string::npos;
      cfg.racecheck = passes_spec.find("racecheck") != std::string::npos;
      cfg.leakcheck = passes_spec.find("leakcheck") != std::string::npos;
      if (passes_spec == "all") cfg = gpusan::Config{};
      if (!cfg.memcheck && !cfg.racecheck && !cfg.leakcheck) {
        std::cerr << "no known pass in: " << passes_spec << "\n";
        return 2;
      }
    } else {
      std::cerr << "unknown argument: " << a << "\n";
      return usage();
    }
  }

  if (!wrapped.empty()) {
    return sanitize_wrapped(wrapped, passes_spec, report_path, json);
  }

  gpusan::enable(cfg);
  try {
    if (fixture.empty()) {
      gpusan::fixtures::clean_suite();
    } else if (fixture == "oob") {
      gpusan::fixtures::oob_write();
    } else if (fixture == "uaf") {
      gpusan::fixtures::use_after_free();
    } else if (fixture == "race") {
      gpusan::fixtures::racy_histogram(gpusim::Schedule::Static);
      gpusan::fixtures::racy_histogram(gpusim::Schedule::Dynamic);
    } else if (fixture == "race-clean") {
      gpusan::fixtures::privatized_histogram(gpusim::Schedule::Static);
      gpusan::fixtures::privatized_histogram(gpusim::Schedule::Dynamic);
    } else if (fixture == "leak") {
      gpusan::fixtures::leak();
    } else if (fixture == "pstlx") {
      gpusan::fixtures::pstlx_suite(gpusim::Schedule::Static);
      gpusan::fixtures::pstlx_suite(gpusim::Schedule::Dynamic);
    } else {
      std::cerr << "unknown fixture: " << fixture << "\n";
      return 2;
    }
  } catch (const std::exception& e) {
    // Fixtures plant *detectable* defects, not crashes; a throw here is a
    // real bug worth surfacing alongside the report.
    std::cerr << "fixture threw: " << e.what() << "\n";
  }
  const gpusan::Report report = gpusan::finalize();
  if (!report_path.empty()) {
    std::ofstream out(report_path);
    out << report.json();
  }
  std::cout << (json ? report.json() : report.text());
  return report.clean() ? 0 : 1;
}

// --- mcmm profile --------------------------------------------------------

/// Extracts "events": N from a gpuprof JSON report; -1 if absent.
long parse_event_count(const std::string& json) {
  const std::string key = "\"events\":";
  const std::size_t pos = json.find(key);
  if (pos == std::string::npos) return -1;
  return std::strtol(json.c_str() + pos + key.size(), nullptr, 10);
}

/// Wrapper mode: re-runs `command` with MCMM_GPUPROF set (the target
/// binary links the gpuprof autoinit object, so the env enables tracing
/// and writes the requested artifacts at exit) — the
/// `nsys profile`/`rocprof` usage shape. Exits non-zero when the child
/// fails or the trace comes back empty.
int profile_wrapped(const std::vector<std::string>& command,
                    const std::string& chrome_path,
                    const std::string& csv_path,
                    const std::string& report_path, bool json,
                    bool allow_empty) {
  const std::string report_file =
      report_path.empty() ? ".mcmm_gpuprof_report.json" : report_path;
  std::string cmdline = "MCMM_GPUPROF=1 MCMM_GPUPROF_REPORT=";
  cmdline += shell_quote(report_file);
  if (!chrome_path.empty()) {
    cmdline += " MCMM_GPUPROF_TRACE=";
    cmdline += shell_quote(chrome_path);
  }
  if (!csv_path.empty()) {
    cmdline += " MCMM_GPUPROF_CSV=";
    cmdline += shell_quote(csv_path);
  }
  for (const std::string& word : command) {
    cmdline += ' ';
    cmdline += shell_quote(word);
  }
  const int child_status = std::system(cmdline.c_str());

  std::string report_json;
  {
    std::ifstream in(report_file);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    report_json = buffer.str();
  }
  if (report_path.empty()) std::remove(report_file.c_str());

  const long events = parse_event_count(report_json);
  if (json) std::cout << report_json;
  if (events < 0) {
    std::cerr << "mcmm profile: no gpuprof report produced — is the "
                 "wrapped binary built with mcmm_make_profilable?\n";
    return 2;
  }
  std::cout << "mcmm profile: " << events << " event(s) traced, child "
            << (child_status == 0 ? "exited cleanly" : "failed") << "\n";
  if (!chrome_path.empty()) {
    std::cout << "chrome trace written to " << chrome_path
              << " (load in chrome://tracing or ui.perfetto.dev)\n";
  }
  if (child_status != 0) return 1;
  // An empty trace from a profiled binary usually means "wrong binary" —
  // fail unless the caller knows the workload has no device activity.
  return (events > 0 || allow_empty) ? 0 : 1;
}

int cmd_profile(const std::vector<std::string>& args) {
  std::string chrome_path;
  std::string csv_path;
  std::string report_path;
  bool json = false;
  bool allow_empty = false;
  std::vector<std::string> wrapped;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--") {
      wrapped.assign(args.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                     args.end());
      if (wrapped.empty()) return usage();
      break;
    }
    if (a == "--json") {
      json = true;
    } else if (a == "--allow-empty") {
      allow_empty = true;
    } else if (a == "--chrome" && i + 1 < args.size()) {
      chrome_path = args[++i];
    } else if (a == "--csv" && i + 1 < args.size()) {
      csv_path = args[++i];
    } else if (a == "--report" && i + 1 < args.size()) {
      report_path = args[++i];
    } else {
      std::cerr << "unknown argument: " << a << "\n";
      return usage();
    }
  }

  if (!wrapped.empty()) {
    return profile_wrapped(wrapped, chrome_path, csv_path, report_path, json,
                           allow_empty);
  }

  // Built-in demo workload: the native BabelStream route on each simulated
  // vendor, traced end to end — per-kernel roofline attribution with
  // achieved GB/s and %-of-peak across all three vendors in one report.
  gpuprof::enable();
  constexpr std::size_t kDemoN = 1 << 18;
  bool all_verified = true;
  for (const Vendor v : {Vendor::AMD, Vendor::Intel, Vendor::NVIDIA}) {
    auto benches = bench::stream_benchmarks_for(v);
    if (benches.empty()) continue;
    for (const bench::StreamResult& r :
         bench::run_stream(*benches.front(), kDemoN, 2)) {
      all_verified = all_verified && r.verified;
    }
  }
  const gpuprof::Trace trace = gpuprof::finalize();

  const auto write_artifact = [](const std::string& path,
                                 const std::string& content) {
    if (path.empty()) return;
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write " << path << "\n";
      std::exit(1);
    }
    out << content;
    std::cout << "wrote " << path << "\n";
  };
  write_artifact(chrome_path, trace.chrome_json());
  write_artifact(csv_path, trace.summary_csv());
  write_artifact(report_path, trace.summary_json());
  std::cout << (json ? trace.summary_json() : trace.text_report());
  return (all_verified && !trace.empty()) ? 0 : 1;
}

// --- mcmm perfbench ------------------------------------------------------

/// Splits "a,b,c" into its non-empty fields.
std::vector<std::string> split_commas(const std::string& spec) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::size_t end = comma == std::string::npos ? spec.size() : comma;
    if (end > start) out.push_back(spec.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

std::string ascii_lower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

std::optional<perfport::PerfKernel> parse_perf_kernel(const std::string& s) {
  const std::string lower = ascii_lower(s);
  for (const perfport::PerfKernel k : perfport::kAllPerfKernels) {
    if (lower == ascii_lower(std::string(perfport::to_string(k)))) return k;
  }
  return std::nullopt;
}

int cmd_perfbench(const std::vector<std::string>& args) {
  perfport::CampaignConfig cfg;
  perfport::WeakScalingConfig weak_cfg;
  bool weak_scaling = false;
  std::string format = "txt";
  std::string out_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--json") {
      format = "json";
    } else if (a == "--weak-scaling") {
      weak_scaling = true;
    } else if (a == "--devices" && i + 1 < args.size()) {
      weak_cfg.device_counts.clear();
      for (const std::string& word : split_commas(args[++i])) {
        char* end = nullptr;
        const long d = std::strtol(word.c_str(), &end, 10);
        if (end == nullptr || *end != '\0' || d < 1 || d > 8) {
          std::cerr << "--devices wants device counts in 1..8\n";
          return 2;
        }
        weak_cfg.device_counts.push_back(static_cast<unsigned>(d));
      }
      if (weak_cfg.device_counts.empty()) {
        std::cerr << "--devices wants a comma list\n";
        return 2;
      }
    } else if (a == "--format" && i + 1 < args.size()) {
      format = args[++i];
    } else if (a == "--out" && i + 1 < args.size()) {
      out_path = args[++i];
    } else if (a == "--vendor" && i + 1 < args.size()) {
      cfg.vendors.clear();
      for (const std::string& word : split_commas(args[++i])) {
        const auto vendor = parse_vendor(word);
        if (!vendor) {
          std::cerr << "unknown vendor: " << word << "\n";
          return 2;
        }
        cfg.vendors.push_back(*vendor);
      }
    } else if (a == "--model" && i + 1 < args.size()) {
      for (const std::string& word : split_commas(args[++i])) {
        const auto model = parse_model(word);
        if (!model) {
          std::cerr << "unknown model: " << word << "\n";
          return 2;
        }
        cfg.models.push_back(*model);
      }
    } else if (a == "--kernel" && i + 1 < args.size()) {
      for (const std::string& word : split_commas(args[++i])) {
        const auto kernel = parse_perf_kernel(word);
        if (!kernel) {
          std::cerr << "unknown kernel: " << word
                    << " (want copy|mul|add|triad|dot|reduce|uneven)\n";
          return 2;
        }
        cfg.kernels.push_back(*kernel);
      }
    } else if (a == "--sizes" && i + 1 < args.size()) {
      cfg.sizes.clear();
      for (const std::string& word : split_commas(args[++i])) {
        char* end = nullptr;
        const long n = std::strtol(word.c_str(), &end, 10);
        if (end == nullptr || *end != '\0' || n < 1 || n > (1L << 24)) {
          std::cerr << "--sizes wants doubles-per-array in 1..16777216\n";
          return 2;
        }
        cfg.sizes.push_back(static_cast<std::size_t>(n));
      }
      if (cfg.sizes.empty()) {
        std::cerr << "--sizes wants a comma list\n";
        return 2;
      }
    } else if (a == "--reps" && i + 1 < args.size()) {
      char* end = nullptr;
      const long n = std::strtol(args[++i].c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || n < 1 || n > 64) {
        std::cerr << "--reps wants 1..64\n";
        return 2;
      }
      cfg.reps = static_cast<std::size_t>(n);
    } else if (a == "--schedule" && i + 1 < args.size()) {
      const std::string& spec = args[++i];
      if (spec == "static") {
        cfg.schedules = {gpusim::Schedule::Static};
      } else if (spec == "dynamic") {
        cfg.schedules = {gpusim::Schedule::Dynamic};
      } else if (spec != "both") {
        std::cerr << "--schedule wants static, dynamic, or both\n";
        return 2;
      }
    } else {
      std::cerr << "unknown argument: " << a << "\n";
      return usage();
    }
  }
  if (format == "text") format = "txt";
  if (format == "markdown") format = "md";
  if (format == "tex") format = "latex";
  const bool known_format =
      format == "json" || format == "txt" || format == "md" ||
      format == "csv" || format == "html" || format == "latex" ||
      format == "yaml";
  if (!known_format) {  // reject before paying for the campaign
    std::cerr << "unknown format: " << format
              << " (want json|txt|md|csv|html|latex|yaml)\n";
    return 2;
  }
  try {
    perfport::PerfReport report = perfport::run_campaign(cfg);
    if (weak_scaling) {
      weak_cfg.vendors = cfg.vendors;
      report.weak_scaling = perfport::run_weak_scaling(weak_cfg);
    }
    if (!out_path.empty()) {
      std::ofstream out(out_path);
      if (!out) {
        std::cerr << "cannot write " << out_path << "\n";
        return 1;
      }
      out << perfport::report_json(report);
      std::cerr << "mcmm perfbench: wrote " << out_path << "\n";
    }
    if (format == "json") {
      std::cout << perfport::report_json(report);
    } else if (format == "txt") {
      std::cout << render::figure2_text(report);
    } else if (format == "md") {
      std::cout << render::figure2_markdown(report);
    } else if (format == "csv") {
      std::cout << render::figure2_csv(report);
    } else if (format == "html") {
      std::cout << render::figure2_html(report);
    } else if (format == "latex") {
      std::cout << render::figure2_latex(report);
    } else {
      std::cout << render::figure2_yaml(report);
    }
    std::size_t unverified = 0;
    for (const perfport::RouteSample& s : report.samples) {
      if (!s.verified) ++unverified;
    }
    for (const perfport::WeakScalingSample& w : report.weak_scaling) {
      if (!w.verified) ++unverified;
    }
    // Stats go to stderr so a redirected stdout stays byte-comparable to
    // the committed golden / served /v1/perf body.
    std::cerr << "mcmm perfbench: " << report.route_count << " route(s), "
              << report.samples.size() << " sample(s), "
              << report.rows.size() << " figure row(s), "
              << report.weak_scaling.size() << " weak-scaling point(s), "
              << unverified << " unverified\n";
    return unverified == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "mcmm perfbench: " << e.what() << "\n";
    return 1;
  }
}

// --- mcmm graph ----------------------------------------------------------

/// Capture/replay demo: the BabelStream triad cycle (init + reps x
/// copy/mul/add/triad) is run once eagerly and once as a captured graph
/// replayed from a fresh queue; both the array contents and the final
/// simulated clock must agree bit-for-bit.
int cmd_graph(const std::vector<std::string>& args) {
  Vendor vendor = Vendor::NVIDIA;
  std::size_t n = 1u << 20;
  int reps = 3;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--vendor" && i + 1 < args.size()) {
      const auto v = parse_vendor(args[++i]);
      if (!v) {
        std::cerr << "unknown vendor: " << args[i] << "\n";
        return 2;
      }
      vendor = *v;
    } else if (a == "--n" && i + 1 < args.size()) {
      char* end = nullptr;
      const long v = std::strtol(args[++i].c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || v < 1 || v > (1L << 24)) {
        std::cerr << "--n wants doubles-per-array in 1..16777216\n";
        return 2;
      }
      n = static_cast<std::size_t>(v);
    } else if (a == "--reps" && i + 1 < args.size()) {
      char* end = nullptr;
      const long v = std::strtol(args[++i].c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || v < 1 || v > 64) {
        std::cerr << "--reps wants 1..64\n";
        return 2;
      }
      reps = static_cast<int>(v);
    } else {
      std::cerr << "unknown argument: " << a << "\n";
      return usage();
    }
  }

  try {
    // Submits init + the full reps cycle to `q` — either executing
    // eagerly or, with the queue in capture mode, recording the graph.
    const auto submit = [&](gpusim::Queue& q, double* a, double* b,
                            double* c) {
      using bench::StreamKernel;
      using Arrays = bench::StreamArrays<double*>;
      const Arrays s{a, b, c};
      bench::launch_elements<&Arrays::init>(q, "Init", StreamKernel::Copy, s,
                                            n);
      for (int r = 0; r < reps; ++r) {
        bench::launch_elements<&Arrays::copy>(q, "Copy", StreamKernel::Copy,
                                              s, n);
        bench::launch_elements<&Arrays::mul>(q, "Mul", StreamKernel::Mul, s,
                                             n);
        bench::launch_elements<&Arrays::add>(q, "Add", StreamKernel::Add, s,
                                             n);
        bench::launch_elements<&Arrays::triad>(q, "Triad",
                                               StreamKernel::Triad, s, n);
      }
    };

    struct RunResult {
      std::vector<double> a, b, c;
      double sim_us{};
    };
    const auto read_back = [&](gpusim::Device& dev, gpusim::Queue& q,
                               double* a, double* b, double* c) {
      RunResult r;
      r.sim_us = q.simulated_time_us();  // before the D2H reads
      r.a.resize(n);
      r.b.resize(n);
      r.c.resize(n);
      (void)q.memcpy(r.a.data(), a, n * sizeof(double),
                     gpusim::CopyKind::DeviceToHost);
      (void)q.memcpy(r.b.data(), b, n * sizeof(double),
                     gpusim::CopyKind::DeviceToHost);
      (void)q.memcpy(r.c.data(), c, n * sizeof(double),
                     gpusim::CopyKind::DeviceToHost);
      dev.deallocate(a);
      dev.deallocate(b);
      dev.deallocate(c);
      return r;
    };

    gpusim::Platform& platform = gpusim::Platform::instance();

    // Eager reference on a pristine device (simulated clock at zero).
    gpusim::Device& eager_dev =
        platform.reset_device(vendor, gpusim::descriptor_for(vendor));
    {
      auto* a = static_cast<double*>(eager_dev.allocate(n * sizeof(double)));
      auto* b = static_cast<double*>(eager_dev.allocate(n * sizeof(double)));
      auto* c = static_cast<double*>(eager_dev.allocate(n * sizeof(double)));
      submit(eager_dev.default_queue(), a, b, c);
      const RunResult eager =
          read_back(eager_dev, eager_dev.default_queue(), a, b, c);

      // Captured + replayed on another pristine device.
      gpusim::Device& dev =
          platform.reset_device(vendor, gpusim::descriptor_for(vendor));
      auto* ga = static_cast<double*>(dev.allocate(n * sizeof(double)));
      auto* gb = static_cast<double*>(dev.allocate(n * sizeof(double)));
      auto* gc = static_cast<double*>(dev.allocate(n * sizeof(double)));
      gpusim::Queue& q = dev.default_queue();
      gpusim::Graph graph;
      q.begin_capture(graph);
      submit(q, ga, gb, gc);
      const std::size_t captured = q.end_capture();
      gpusim::ExecutableGraph exec(graph, q);
      (void)exec.replay(q);
      const RunResult replay = read_back(dev, q, ga, gb, gc);

      const bool results_identical =
          std::memcmp(eager.a.data(), replay.a.data(),
                      n * sizeof(double)) == 0 &&
          std::memcmp(eager.b.data(), replay.b.data(),
                      n * sizeof(double)) == 0 &&
          std::memcmp(eager.c.data(), replay.c.data(),
                      n * sizeof(double)) == 0;
      const bool time_identical = eager.sim_us == replay.sim_us;

      std::cout << "mcmm graph: " << to_string(vendor) << " '"
                << dev.descriptor().name << "', n=" << n
                << " doubles, reps=" << reps << "\n";
      std::cout << "captured " << captured << " node(s), "
                << exec.wave_count() << " wave(s), validation checked "
                << exec.validation().pairs_checked
                << " unordered pair(s)\n";
      char line[160];
      std::snprintf(line, sizeof line,
                    "eager : %.3f us simulated\n"
                    "replay: %.3f us simulated (one replay, %.3f us "
                    "critical path)\n",
                    eager.sim_us, replay.sim_us, exec.duration_us());
      std::cout << line;
      std::cout << "results bit-identical: "
                << (results_identical ? "yes" : "NO")
                << "; simulated time bit-identical: "
                << (time_identical ? "yes" : "NO") << "\n";
      return results_identical && time_identical ? 0 : 1;
    }
  } catch (const std::exception& e) {
    std::cerr << "mcmm graph: " << e.what() << "\n";
    return 1;
  }
}

// --- mcmm serve ----------------------------------------------------------

/// The running server, for the signal handler. Writes happen before the
/// handler is installed; the handler only calls the async-signal-safe
/// Server::shutdown().
serve::Server* g_server = nullptr;

extern "C" void serve_signal_handler(int) {
  if (g_server != nullptr) g_server->shutdown();
}

int cmd_serve(const std::vector<std::string>& args) {
  serve::ServerConfig cfg;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto int_arg = [&](long min, long max) -> std::optional<long> {
      if (i + 1 >= args.size()) return std::nullopt;
      char* end = nullptr;
      const long v = std::strtol(args[++i].c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || v < min || v > max) {
        return std::nullopt;
      }
      return v;
    };
    if (a == "--port") {
      const auto port = int_arg(0, 65535);
      if (!port) {
        std::cerr << "--port wants 0..65535\n";
        return 2;
      }
      cfg.port = static_cast<std::uint16_t>(*port);
    } else if (a == "--threads") {
      const auto threads = int_arg(1, 256);
      if (!threads) {
        std::cerr << "--threads wants 1..256\n";
        return 2;
      }
      cfg.threads = static_cast<unsigned>(*threads);
    } else if (a == "--host" && i + 1 < args.size()) {
      cfg.host = args[++i];
    } else if (a == "--max-in-flight") {
      const auto cap = int_arg(0, 1 << 20);
      if (!cap) {
        std::cerr << "--max-in-flight wants 0..1048576\n";
        return 2;
      }
      cfg.max_in_flight = static_cast<unsigned>(*cap);
    } else if (a == "--idle-timeout-ms") {
      const auto ms = int_arg(100, 3600000);
      if (!ms) {
        std::cerr << "--idle-timeout-ms wants 100..3600000\n";
        return 2;
      }
      cfg.idle_timeout_ms = static_cast<int>(*ms);
    } else if (a == "--backlog") {
      const auto depth = int_arg(1, 65535);
      if (!depth) {
        std::cerr << "--backlog wants 1..65535\n";
        return 2;
      }
      cfg.backlog = static_cast<int>(*depth);
    } else if (a == "--perf") {
      cfg.enable_perf = true;
    } else {
      std::cerr << "unknown argument: " << a << "\n";
      return usage();
    }
  }
  cfg.log_fd_limit = true;
  if (cfg.enable_perf) {
    std::cout << "mcmm serve: running the perf-portability campaign "
                 "(seconds of simulated kernels)...\n"
              << std::flush;
  }
  try {
    serve::Server server(data::paper_matrix(), cfg);
    server.start();
    g_server = &server;
    std::signal(SIGTERM, serve_signal_handler);
    std::signal(SIGINT, serve_signal_handler);
    std::cout << "mcmm serve: listening on http://" << cfg.host << ":"
              << server.port() << "\n"
              << "endpoints: /v1/matrix /v1/cell/{vendor}/{model}/{language} "
                 "/v1/plan /v1/claims "
              << (cfg.enable_perf ? "/v1/perf " : "")
              << "/healthz /metrics\n"
              << std::flush;
    server.join();
    std::cout << "mcmm serve: drained after "
              << server.metrics().requests_total() << " request(s) on "
              << server.metrics().connections_total()
              << " connection(s), exiting cleanly\n";
    g_server = nullptr;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "mcmm serve: " << e.what() << "\n";
    return 1;
  }
}

// --- mcmm gateway / mcmm cluster -----------------------------------------

/// The running gateway, for the signal handler (same pattern as g_server).
gateway::Gateway* g_gateway = nullptr;

extern "C" void gateway_signal_handler(int) {
  if (g_gateway != nullptr) g_gateway->shutdown();
}

/// Shared flag parsing for `gateway` and `cluster`. Returns 0 on success,
/// a process exit code otherwise. Flags both commands understand land in
/// `cfg`; `cluster`-only knobs are the out-parameters.
int parse_gateway_args(const std::vector<std::string>& args,
                       std::size_t first, gateway::GatewayConfig& cfg,
                       std::vector<gateway::ReplicaEndpoint>* backends,
                       unsigned* replica_threads, unsigned* max_in_flight,
                       bool* replica_perf) {
  for (std::size_t i = first; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto int_arg = [&](long min, long max) -> std::optional<long> {
      if (i + 1 >= args.size()) return std::nullopt;
      char* end = nullptr;
      const long v = std::strtol(args[++i].c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || v < min || v > max) {
        return std::nullopt;
      }
      return v;
    };
    if (a == "--backend" && backends != nullptr && i + 1 < args.size()) {
      const std::string& spec = args[++i];
      const std::size_t colon = spec.rfind(':');
      char* end = nullptr;
      const long port =
          colon == std::string::npos
              ? 0
              : std::strtol(spec.c_str() + colon + 1, &end, 10);
      if (colon == std::string::npos || colon == 0 || end == nullptr ||
          *end != '\0' || port < 1 || port > 65535) {
        std::cerr << "--backend wants host:port, got: " << spec << "\n";
        return 2;
      }
      backends->push_back(gateway::ReplicaEndpoint{
          spec.substr(0, colon), static_cast<std::uint16_t>(port)});
    } else if (a == "--port") {
      const auto port = int_arg(0, 65535);
      if (!port) {
        std::cerr << "--port wants 0..65535\n";
        return 2;
      }
      cfg.port = static_cast<std::uint16_t>(*port);
    } else if (a == "--host" && i + 1 < args.size()) {
      cfg.host = args[++i];
    } else if (a == "--threads") {
      const auto threads = int_arg(1, 256);
      if (!threads) {
        std::cerr << "--threads wants 1..256\n";
        return 2;
      }
      cfg.threads = static_cast<unsigned>(*threads);
    } else if (a == "--replica-threads" && replica_threads != nullptr) {
      const auto threads = int_arg(1, 256);
      if (!threads) {
        std::cerr << "--replica-threads wants 1..256\n";
        return 2;
      }
      *replica_threads = static_cast<unsigned>(*threads);
    } else if (a == "--max-in-flight" && max_in_flight != nullptr) {
      const auto cap = int_arg(0, 1 << 20);
      if (!cap) {
        std::cerr << "--max-in-flight wants 0..1048576\n";
        return 2;
      }
      *max_in_flight = static_cast<unsigned>(*cap);
    } else if (a == "--policy" && i + 1 < args.size()) {
      const auto policy = gateway::parse_policy(args[++i]);
      if (!policy) {
        std::cerr << "--policy wants rr or p2c\n";
        return 2;
      }
      cfg.policy = *policy;
    } else if (a == "--retries") {
      const auto retries = int_arg(0, 16);
      if (!retries) {
        std::cerr << "--retries wants 0..16\n";
        return 2;
      }
      cfg.max_retries = static_cast<int>(*retries);
    } else if (a == "--hedge-ms") {
      const auto ms = int_arg(1, 60000);
      if (!ms) {
        std::cerr << "--hedge-ms wants 1..60000\n";
        return 2;
      }
      cfg.hedge_after_ms = static_cast<int>(*ms);
    } else if (a == "--no-hedge") {
      cfg.hedge_after_ms = 0;
    } else if (a == "--no-perf" && replica_perf != nullptr) {
      *replica_perf = false;
    } else if (a == "--idle-timeout-ms") {
      const auto ms = int_arg(100, 3600000);
      if (!ms) {
        std::cerr << "--idle-timeout-ms wants 100..3600000\n";
        return 2;
      }
      cfg.idle_timeout_ms = static_cast<int>(*ms);
    } else if (a == "--backlog") {
      const auto depth = int_arg(1, 65535);
      if (!depth) {
        std::cerr << "--backlog wants 1..65535\n";
        return 2;
      }
      cfg.backlog = static_cast<int>(*depth);
    } else {
      std::cerr << "unknown argument: " << a << "\n";
      return usage();
    }
  }
  return 0;
}

/// Runs an already-constructed gateway to completion under SIGTERM/SIGINT.
int run_gateway(gateway::Gateway& gw, const gateway::GatewayConfig& cfg) {
  gw.start();
  g_gateway = &gw;
  std::signal(SIGTERM, gateway_signal_handler);
  std::signal(SIGINT, gateway_signal_handler);
  std::cout << "mcmm gateway: listening on http://" << cfg.host << ":"
            << gw.port() << " policy=" << gateway::to_string(cfg.policy)
            << " replicas=" << gw.registry().size() << "\n"
            << "endpoints: proxied /v1/* /healthz, plus /gateway/healthz "
               "/gateway/replicas /metrics\n"
            << std::flush;
  gw.join();
  g_gateway = nullptr;
  const auto& m = gw.gateway_metrics();
  std::cout << "mcmm gateway: drained after "
            << m.client.requests_total() << " request(s), "
            << m.retries_total() << " retried, " << m.hedges_total()
            << " hedged, exiting cleanly\n";
  return 0;
}

int cmd_gateway(const std::vector<std::string>& args) {
  gateway::GatewayConfig cfg;
  std::vector<gateway::ReplicaEndpoint> backends;
  const int rc =
      parse_gateway_args(args, 0, cfg, &backends, nullptr, nullptr, nullptr);
  if (rc != 0) return rc;
  if (backends.empty()) {
    std::cerr << "mcmm gateway: at least one --backend host:port needed\n";
    return 2;
  }
  cfg.log_fd_limit = true;
  try {
    gateway::Gateway gw(std::move(backends), cfg);
    return run_gateway(gw, cfg);
  } catch (const std::exception& e) {
    std::cerr << "mcmm gateway: " << e.what() << "\n";
    return 1;
  }
}

int cmd_cluster(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::cerr << "mcmm cluster: how many replicas?\n";
    return 2;
  }
  char* end = nullptr;
  const long count = std::strtol(args[0].c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || count < 1 || count > 64) {
    std::cerr << "mcmm cluster: replica count wants 1..64\n";
    return 2;
  }
  gateway::GatewayConfig cfg;
  gateway::SupervisorConfig sup;
  // A user-run cluster serves the full API, Figure 2 included; test fleets
  // construct SupervisorConfig directly and keep the default (off).
  sup.enable_perf = true;
  const int rc = parse_gateway_args(args, 1, cfg, nullptr,
                                    &sup.threads_per_replica,
                                    &sup.max_in_flight, &sup.enable_perf);
  if (rc != 0) return rc;
  cfg.log_fd_limit = true;
  sup.host = "127.0.0.1";
  try {
    // fork() before any thread exists (the gateway constructor spawns the
    // health prober, start() loop 0).
    std::vector<gateway::ReplicaProcess> replicas =
        gateway::spawn_replicas(static_cast<unsigned>(count), sup);
    std::vector<gateway::ReplicaEndpoint> backends;
    backends.reserve(replicas.size());
    for (const gateway::ReplicaProcess& r : replicas) {
      std::cout << "mcmm cluster: replica pid=" << r.pid
                << " port=" << r.port << "\n";
      backends.push_back(gateway::ReplicaEndpoint{"127.0.0.1", r.port});
    }
    int exit_code = 1;
    {
      gateway::Gateway gw(std::move(backends), cfg);
      exit_code = run_gateway(gw, cfg);
    }
    const int killed = gateway::terminate_replicas(replicas, 5000);
    if (killed > 0) {
      std::cout << "mcmm cluster: " << killed
                << " replica(s) needed SIGKILL\n";
    }
    // The gateway drained cleanly; a replica that was deliberately killed
    // (fault injection) must not turn that into a failing exit.
    return exit_code;
  } catch (const std::exception& e) {
    std::cerr << "mcmm cluster: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "--help" || command == "-h" || command == "help") {
    usage();  // same text; asking for help is not an error
    return 0;
  }
  if (command == "table") return cmd_table(args);
  if (command == "describe") return cmd_describe(args);
  if (command == "advise") return cmd_advise(args);
  if (command == "claims") return cmd_claims();
  if (command == "stats") return cmd_stats();
  if (command == "excluded") return cmd_excluded();
  if (command == "export") return cmd_export(args);
  if (command == "diff") return cmd_diff(args);
  if (command == "sanitize") return cmd_sanitize(args);
  if (command == "profile") return cmd_profile(args);
  if (command == "perfbench") return cmd_perfbench(args);
  if (command == "graph") return cmd_graph(args);
  if (command == "serve") return cmd_serve(args);
  if (command == "gateway") return cmd_gateway(args);
  if (command == "cluster") return cmd_cluster(args);
  return usage();
}
