// Figure 2 renderers. All output is deterministic for a given report: the
// txt form is compared byte-for-byte against its committed golden and the
// serve layer caches every form with a strong ETag.

#include <cstdio>

#include "render/perf.hpp"

namespace mcmm::render {
namespace {

using perfport::PerfCell;
using perfport::PerfReport;
using perfport::PerfRow;

[[nodiscard]] std::string fixed(double v, int decimals = 3) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

[[nodiscard]] std::string pad_left(std::string s, std::size_t width) {
  if (s.size() < width) s.insert(0, width - s.size(), ' ');
  return s;
}

[[nodiscard]] std::string pad_right(std::string s, std::size_t width) {
  if (s.size() < width) s.append(width - s.size(), ' ');
  return s;
}

[[nodiscard]] std::string cell_text(const PerfCell& c) {
  return c.supported ? fixed(c.efficiency) : std::string("-");
}

/// Weak-scaling appendix (text form), present only when the report
/// carries weak-scaling samples — campaign-only reports render exactly as
/// before, keeping the committed golden byte-stable.
[[nodiscard]] std::string weak_scaling_text(const PerfReport& r) {
  if (r.weak_scaling.empty()) return {};
  std::string out =
      "\nWeak scaling (graph replay; BabelStream + Reduce/Uneven, n per "
      "device)\n";
  out += "n = " + std::to_string(r.weak_scaling.front().n_per_device) +
         " doubles/device x " +
         std::to_string(r.weak_scaling.front().reps) +
         " reps; efficiency = T1 / TN\n\n";
  std::string header = pad_right("Vendor", 10);
  header += pad_left("Devices", 9);
  header += pad_left("TN(us)", 14);
  header += pad_left("P2P(us)", 10);
  header += pad_left("Eff", 8);
  out += header + "\n" + std::string(header.size(), '-') + "\n";
  for (const perfport::WeakScalingSample& w : r.weak_scaling) {
    out += pad_right(std::string(to_string(w.vendor)), 10);
    out += pad_left(std::to_string(w.devices), 9);
    out += pad_left(fixed(w.sim_us, 1), 14);
    out += pad_left(fixed(w.p2p_us, 3), 10);
    out += pad_left(fixed(w.efficiency), 8);
    out += "\n";
  }
  return out;
}

/// "n = 1048576 doubles x 2 reps; schedules: static, dynamic"
[[nodiscard]] std::string config_line(const PerfReport& r) {
  std::string out = "n = " + std::to_string(r.config.sizes.back()) +
                    " doubles x " + std::to_string(r.config.reps) +
                    " reps; schedules:";
  for (std::size_t i = 0; i < r.config.schedules.size(); ++i) {
    out += i == 0 ? " " : ", ";
    out += std::string(perfport::to_string(r.config.schedules[i]));
  }
  return out;
}

}  // namespace

std::string figure2_text(const PerfReport& r) {
  constexpr std::size_t kModelW = 10;
  constexpr std::size_t kKernelW = 8;
  constexpr std::size_t kCellW = 8;

  std::string out;
  out += "Figure 2: BabelStream efficiency matrix (perf-portability "
         "campaign)\n";
  out += config_line(r) + "; best route per cell\n";
  out += "efficiency = achieved GB/s / vendor peak; PP = harmonic mean "
         "over vendors (0 when unsupported)\n\n";

  std::string header = pad_right("Model", kModelW);
  header += pad_right("Kernel", kKernelW);
  for (const Vendor v : r.config.vendors) {
    header += pad_left(std::string(to_string(v)), kCellW);
  }
  header += pad_left("PP", kCellW);
  out += header + "\n";
  out += std::string(header.size(), '-') + "\n";

  for (const PerfRow& row : r.rows) {
    out += pad_right(std::string(to_string(row.model)), kModelW);
    out += pad_right(std::string(to_string(row.kernel)), kKernelW);
    for (const PerfCell& c : row.cells) {
      out += pad_left(cell_text(c), kCellW);
    }
    out += pad_left(fixed(row.pp), kCellW);
    out += "\n";
  }
  out += weak_scaling_text(r);
  return out;
}

std::string figure2_markdown(const PerfReport& r) {
  std::string out =
      "# Figure 2: BabelStream efficiency matrix\n\n" + config_line(r) +
      "; best route per cell. Efficiency = achieved GB/s / vendor peak; "
      "PP = harmonic mean over vendors (0 when unsupported).\n\n";
  out += "| Model | Kernel |";
  for (const Vendor v : r.config.vendors) {
    out += ' ';
    out += to_string(v);
    out += " |";
  }
  out += " PP |\n|---|---|";
  for (std::size_t i = 0; i < r.config.vendors.size(); ++i) out += "---:|";
  out += "---:|\n";
  for (const PerfRow& row : r.rows) {
    out += "| ";
    out += to_string(row.model);
    out += " | ";
    out += to_string(row.kernel);
    out += " |";
    for (const PerfCell& c : row.cells) {
      out += ' ';
      out += cell_text(c);
      out += " |";
    }
    out += ' ';
    out += fixed(row.pp);
    out += " |\n";
  }
  if (!r.weak_scaling.empty()) {
    out += "\n## Weak scaling (graph replay)\n\n";
    out += "n = " +
           std::to_string(r.weak_scaling.front().n_per_device) +
           " doubles/device x " +
           std::to_string(r.weak_scaling.front().reps) +
           " reps; efficiency = T1 / TN.\n\n";
    out += "| Vendor | Devices | TN (us) | P2P (us) | Efficiency |\n";
    out += "|---|---:|---:|---:|---:|\n";
    for (const perfport::WeakScalingSample& w : r.weak_scaling) {
      out += "| " + std::string(to_string(w.vendor)) + " | " +
             std::to_string(w.devices) + " | " + fixed(w.sim_us, 1) +
             " | " + fixed(w.p2p_us, 3) + " | " + fixed(w.efficiency) +
             " |\n";
    }
  }
  return out;
}

std::string figure2_csv(const PerfReport& r) {
  std::string out =
      "model,kernel,vendor,supported,efficiency,route,achieved_gbps,pp\n";
  for (const PerfRow& row : r.rows) {
    for (const PerfCell& c : row.cells) {
      out += std::string(to_string(row.model)) + ',' +
             std::string(to_string(row.kernel)) + ',' +
             std::string(to_string(c.vendor)) + ',' +
             (c.supported ? "1" : "0") + ',' + fixed(c.efficiency, 6) +
             ',' + c.route + ',' + fixed(c.achieved_gbps, 6) + ',' +
             fixed(row.pp, 6) + "\n";
    }
  }
  return out;
}

std::string figure2_html(const PerfReport& r) {
  std::string out =
      "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
      "<meta charset=\"utf-8\">\n"
      "<title>Figure 2: BabelStream efficiency matrix</title>\n"
      "<style>\n"
      "table { border-collapse: collapse; font-family: sans-serif; }\n"
      "th, td { border: 1px solid #999; padding: 0.3em 0.6em; "
      "text-align: right; }\n"
      "th, td.name { text-align: left; }\n"
      "td.unsupported { color: #999; }\n"
      "</style>\n</head>\n<body>\n"
      "<h1>Figure 2: BabelStream efficiency matrix</h1>\n"
      "<p>" +
      config_line(r) +
      "; best route per cell. Efficiency = achieved GB/s / vendor peak; "
      "PP = harmonic mean over vendors (0 when unsupported).</p>\n"
      "<table>\n<tr><th>Model</th><th>Kernel</th>";
  for (const Vendor v : r.config.vendors) {
    out += "<th>" + std::string(to_string(v)) + "</th>";
  }
  out += "<th>PP</th></tr>\n";
  for (const PerfRow& row : r.rows) {
    out += "<tr><td class=\"name\">" + std::string(to_string(row.model)) +
           "</td><td class=\"name\">" +
           std::string(to_string(row.kernel)) + "</td>";
    for (const PerfCell& c : row.cells) {
      out += c.supported
                 ? "<td title=\"" + c.route + "\">" + fixed(c.efficiency) +
                       "</td>"
                 : std::string("<td class=\"unsupported\">-</td>");
    }
    out += "<td>" + fixed(row.pp) + "</td></tr>\n";
  }
  out += "</table>\n</body>\n</html>\n";
  return out;
}

std::string figure2_latex(const PerfReport& r) {
  std::string out = "% Figure 2: BabelStream efficiency matrix\n% " +
                    config_line(r) + "\n\\begin{tabular}{ll";
  for (std::size_t i = 0; i < r.config.vendors.size(); ++i) out += "r";
  out += "r}\n\\hline\nModel & Kernel";
  for (const Vendor v : r.config.vendors) {
    out += " & " + std::string(to_string(v));
  }
  out += " & $\\mathrm{PP}$ \\\\\n\\hline\n";
  for (const PerfRow& row : r.rows) {
    out += std::string(to_string(row.model)) + " & " +
           std::string(to_string(row.kernel));
    for (const PerfCell& c : row.cells) {
      out += " & " + (c.supported ? fixed(c.efficiency)
                                  : std::string("--"));
    }
    out += " & " + fixed(row.pp) + " \\\\\n";
  }
  out += "\\hline\n\\end{tabular}\n";
  return out;
}

std::string figure2_yaml(const PerfReport& r) {
  std::string out = "figure2:\n  vendors: [";
  for (std::size_t i = 0; i < r.config.vendors.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::string(to_string(r.config.vendors[i]));
  }
  out += "]\n  n: " + std::to_string(r.config.sizes.back());
  out += "\n  reps: " + std::to_string(r.config.reps);
  out += "\n  rows:\n";
  for (const PerfRow& row : r.rows) {
    out += "    - model: " + std::string(to_string(row.model)) + "\n";
    out += "      kernel: " + std::string(to_string(row.kernel)) + "\n";
    out += "      pp: " + fixed(row.pp, 6) + "\n";
    out += "      cells:\n";
    for (const PerfCell& c : row.cells) {
      out += "        - vendor: " + std::string(to_string(c.vendor)) +
             "\n          supported: " +
             (c.supported ? "true" : "false") +
             "\n          efficiency: " + fixed(c.efficiency, 6) + "\n";
      if (c.supported) {
        out += "          route: " + c.route + "\n";
      }
    }
  }
  return out;
}

}  // namespace mcmm::render
