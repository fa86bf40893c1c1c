#include "gpusan/gpusan.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <tuple>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/sanitizer.hpp"

namespace mcmm::gpusan {
namespace {

constexpr Vendor kVendors[] = {Vendor::AMD, Vendor::Intel, Vendor::NVIDIA};

/// A launch currently being tracked (begin seen, end not yet).
struct LaunchInfo {
  std::string desc;
  gpusim::Queue* queue{};
};

/// One sampled shadow-log entry: an instrumented access inside a tracked
/// kernel. `cell` is the address of the accessed element (element
/// granularity — overlapping accesses at different start addresses are
/// distinct cells).
struct AccessRecord {
  std::uintptr_t cell{};
  std::uint64_t item{};
  std::uint64_t launch{};
  bool write{};
};

/// Singleton pass state. Leaked deliberately: hooks and the at-exit
/// reporter may run during static destruction, after a normal static's
/// lifetime would have ended.
struct State {
  std::mutex mu;
  Config cfg;
  bool enabled{false};
  std::vector<Finding> findings;
  std::uint64_t total_findings{0};
  std::uint64_t suppressed{0};
  std::uint64_t launches_checked{0};
  std::uint64_t accesses_checked{0};
  std::uint64_t accesses_dropped{0};
  std::uint64_t next_launch_id{1};
  std::map<std::uint64_t, LaunchInfo> active_launches;
  std::vector<AccessRecord> log;
  /// Memcheck dedup: (vendor, status|kind code, allocation id, launch id).
  std::set<std::tuple<int, int, std::uint64_t, std::uint64_t>> access_seen;
  /// Canary dedup: (allocator identity, allocation id, front?).
  std::set<std::tuple<std::uintptr_t, std::uint64_t, bool>> canary_seen;
};

State& state() {
  static State* s = new State;
  return *s;
}

[[nodiscard]] std::string dim3_str(const gpusim::Dim3& d) {
  return "(" + std::to_string(d.x) + "," + std::to_string(d.y) + "," +
         std::to_string(d.z) + ")";
}

[[nodiscard]] std::string describe_launch(const gpusim::LaunchConfig& cfg,
                                          gpusim::Schedule schedule) {
  return "grid=" + dim3_str(cfg.grid) + " block=" + dim3_str(cfg.block) +
         " schedule=" +
         (schedule == gpusim::Schedule::Static ? "static" : "dynamic");
}

[[nodiscard]] std::string describe_allocation(std::uint64_t id,
                                              const std::string& origin,
                                              std::size_t bytes) {
  return "allocation #" + std::to_string(id) + " ('" +
         (origin.empty() ? std::string("untagged") : origin) + "', " +
         std::to_string(bytes) + " bytes)";
}

/// Locates the device whose allocator knows this range. Returns the vendor
/// index (-1 when no device claims it) and the allocator's classification.
/// A live block on any device outranks another device's quarantine record:
/// a block freed without red zones (e.g. before the sanitizer was enabled)
/// went straight back to the heap, so its address may since have been
/// handed to another device's live allocation.
[[nodiscard]] std::pair<int, gpusim::RangeQuery> classify_range(
    const void* p, std::size_t bytes) {
  std::pair<int, gpusim::RangeQuery> freed{-1, gpusim::RangeQuery{}};
  for (Vendor v : kVendors) {
    for (gpusim::Device* dev : gpusim::Platform::instance().devices_of(v)) {
      gpusim::RangeQuery q = dev->allocator().query_range(p, bytes);
      if (q.status == gpusim::RangeStatus::Unknown) continue;
      if (q.status != gpusim::RangeStatus::UseAfterFree) {
        return {static_cast<int>(v), std::move(q)};
      }
      if (freed.first < 0) freed = {static_cast<int>(v), std::move(q)};
    }
  }
  return freed;
}

/// Must be called with s.mu held.
void add_finding(State& s, Finding f) {
  ++s.total_findings;
  if (s.findings.size() < s.cfg.max_findings) {
    s.findings.push_back(std::move(f));
  }
}

[[nodiscard]] const char* access_kind_noun(gpusim::AccessKind kind) {
  switch (kind) {
    case gpusim::AccessKind::Read:
      return "read";
    case gpusim::AccessKind::Write:
      return "write";
    case gpusim::AccessKind::Unknown:
      break;
  }
  return "access";
}

/// The launch description for findings raised inside launch `lid` (with
/// s.mu held); empty when the launch is unknown.
[[nodiscard]] std::string launch_desc(State& s, std::uint64_t lid) {
  const auto it = s.active_launches.find(lid);
  return it == s.active_launches.end() ? std::string{} : it->second.desc;
}

/// Memcheck strict pass over one instrumented access (s.mu held).
void check_access(State& s, const void* p, std::size_t bytes,
                  gpusim::AccessKind kind) {
  const auto [vendor, q] = classify_range(p, bytes);
  if (q.status == gpusim::RangeStatus::Ok) return;

  const std::uint64_t lid = gpusim::current_launch_id();
  const int code = static_cast<int>(q.status) * 8 + static_cast<int>(kind);
  if (!s.access_seen.emplace(vendor, code, q.id, lid).second) {
    ++s.suppressed;
    return;
  }

  Finding f;
  f.pass = Pass::Memcheck;
  f.launch_id = lid;
  f.launch = launch_desc(s, lid);
  const std::string noun = access_kind_noun(kind);
  const std::string where =
      " of " + std::to_string(bytes) + " bytes at offset " +
      std::to_string(q.offset);
  const std::string item_ctx =
      lid != 0 ? " by work item " +
                     std::to_string(gpusim::current_work_item()) +
                     " of launch #" + std::to_string(lid) +
                     (f.launch.empty() ? "" : " [" + f.launch + "]")
               : "";
  switch (q.status) {
    case gpusim::RangeStatus::OutOfBounds:
      f.kind = "out-of-bounds-" + noun;
      f.origin = q.origin;
      f.allocation_id = q.id;
      f.message = "out-of-bounds " + noun + where + " into " +
                  describe_allocation(q.id, q.origin, q.bytes) + item_ctx;
      break;
    case gpusim::RangeStatus::UseAfterFree:
      f.kind = "use-after-free-" + noun;
      f.origin = q.origin;
      f.allocation_id = q.id;
      f.message = "use-after-free " + noun + where + " into freed " +
                  describe_allocation(q.id, q.origin, q.bytes) + item_ctx;
      break;
    default:
      f.kind = "wild-" + noun;
      f.message = "wild " + noun + " of " + std::to_string(bytes) +
                  " bytes: address is not (and was not recently) simulated "
                  "device memory" +
                  item_ctx;
      break;
  }
  add_finding(s, std::move(f));
}

/// Canary sweep of one device's allocator (s.mu held). `context` names the
/// checkpoint ("sync point", "launch #N [...]", "device teardown").
void verify_device_canaries(State& s, gpusim::Device& device,
                            const std::string& context,
                            std::uint64_t launch_id) {
  if (!s.cfg.memcheck) return;
  const auto key_base =
      reinterpret_cast<std::uintptr_t>(&device.allocator());
  for (const gpusim::CanaryViolation& v :
       device.allocator().verify_canaries()) {
    if (!s.canary_seen.emplace(key_base, v.id, v.front).second) {
      ++s.suppressed;
      continue;
    }
    Finding f;
    f.pass = Pass::Memcheck;
    f.kind = "redzone-corruption";
    f.origin = v.origin;
    f.allocation_id = v.id;
    f.launch_id = launch_id;
    f.message = std::string("red-zone corruption (out-of-bounds write) ") +
                (v.front ? "before " : "past the end of ") +
                describe_allocation(v.id, v.origin, v.bytes) +
                " at offset " + std::to_string(v.offset) +
                ", detected at " + context;
    add_finding(s, std::move(f));
  }
}

/// Leak sweep of one device (s.mu held).
void sweep_device_leaks(State& s, gpusim::Device& device,
                        const std::string& context) {
  if (!s.cfg.leakcheck) return;
  for (const gpusim::LiveBlock& b : device.allocator().live_blocks()) {
    Finding f;
    f.pass = Pass::Leakcheck;
    f.kind = "leak";
    f.origin = b.origin;
    f.allocation_id = b.id;
    f.message = "leaked " + describe_allocation(b.id, b.origin, b.bytes) +
                " still live on device '" + device.descriptor().name +
                "' at " + context;
    add_finding(s, std::move(f));
  }
}

/// Race analysis of one finished launch (s.mu held): extracts the
/// launch's records from the shadow log, groups them by cell, and reports
/// one aggregated finding per (allocation, conflict kind).
void analyze_launch_races(State& s, std::uint64_t lid,
                          const std::string& desc) {
  if (!s.cfg.racecheck) return;

  std::vector<AccessRecord> records;
  std::erase_if(s.log, [&](const AccessRecord& r) {
    if (r.launch != lid) return false;
    records.push_back(r);
    return true;
  });
  // Group by cell with a stable sort on the cell address. Stability
  // keeps each cell's records in log order, so first-writer detection
  // below sees them in the order they were logged, and cells are visited
  // in deterministic address order.
  std::stable_sort(records.begin(), records.end(),
                   [](const AccessRecord& x, const AccessRecord& y) {
                     return x.cell < y.cell;
                   });

  struct Conflict {
    std::uint64_t conflicting_cells{0};
    std::ptrdiff_t example_offset{};
    std::uint64_t example_item_a{};
    std::uint64_t example_item_b{};
  };
  // Keyed by (allocation id, write-write?); allocation 0 = unattributed.
  std::map<std::pair<std::uint64_t, bool>, Conflict> conflicts;
  std::map<std::uint64_t, std::pair<std::string, std::size_t>> alloc_info;

  for (std::size_t lo = 0, hi = 0; lo < records.size(); lo = hi) {
    const std::uintptr_t cell = records[lo].cell;
    hi = lo + 1;
    while (hi < records.size() && records[hi].cell == cell) ++hi;

    // Distinct work items that wrote / touched this cell.
    std::uint64_t writer = gpusim::kNoWorkItem;
    bool write_write = false;
    bool conflict = false;
    std::uint64_t other = gpusim::kNoWorkItem;
    for (std::size_t k = lo; k < hi; ++k) {
      const AccessRecord& r = records[k];
      if (!r.write) continue;
      if (writer == gpusim::kNoWorkItem) {
        writer = r.item;
      } else if (r.item != writer) {
        write_write = true;
        conflict = true;
        other = r.item;
      }
    }
    if (writer == gpusim::kNoWorkItem) continue;  // read-only cell
    if (!write_write) {
      for (std::size_t k = lo; k < hi; ++k) {
        if (records[k].item != writer) {
          conflict = true;
          other = records[k].item;
          break;
        }
      }
    }
    if (!conflict) continue;

    const auto [vendor, q] =
        classify_range(reinterpret_cast<const void*>(cell), 1);
    (void)vendor;
    const std::uint64_t alloc =
        q.status == gpusim::RangeStatus::Ok ? q.id : 0;
    if (alloc != 0) alloc_info[alloc] = {q.origin, q.bytes};
    Conflict& c = conflicts[{alloc, write_write}];
    if (c.conflicting_cells++ == 0) {
      c.example_offset = q.offset;
      c.example_item_a = writer;
      c.example_item_b = other;
    }
  }

  for (const auto& [key, c] : conflicts) {
    const auto [alloc, write_write] = key;
    Finding f;
    f.pass = Pass::Racecheck;
    f.kind = write_write ? "write-write-race" : "read-write-race";
    f.launch_id = lid;
    f.launch = desc;
    f.allocation_id = alloc;
    std::string target = "device memory";
    if (alloc != 0) {
      const auto& [origin, bytes] = alloc_info[alloc];
      f.origin = origin;
      target = describe_allocation(alloc, origin, bytes);
    }
    f.message =
        std::string(write_write ? "write-write" : "read-write") +
        " race on " + target + ": " + std::to_string(c.conflicting_cells) +
        " cell(s) accessed by multiple work items of launch #" +
        std::to_string(lid) + " [" + desc + "]; e.g. work items " +
        std::to_string(c.example_item_a) + " and " +
        std::to_string(c.example_item_b) +
        " both touched the element at offset " +
        std::to_string(c.example_offset);
    add_finding(s, std::move(f));
  }
}

// --- hook entry points (installed into gpusim) ---------------------------

std::uint64_t hook_launch_begin(void*, gpusim::Queue& queue,
                                const gpusim::LaunchConfig& cfg,
                                gpusim::Schedule schedule) {
  State& s = state();
  const std::lock_guard lock(s.mu);
  if (!s.enabled) return 0;
  ++s.launches_checked;
  const std::uint64_t id = s.next_launch_id++;
  s.active_launches.emplace(
      id, LaunchInfo{describe_launch(cfg, schedule), &queue});
  return id;
}

void hook_launch_end(void*, gpusim::Queue& queue, std::uint64_t lid) {
  State& s = state();
  const std::lock_guard lock(s.mu);
  const std::string desc = launch_desc(s, lid);
  verify_device_canaries(s, queue.device(),
                         "end of launch #" + std::to_string(lid) +
                             (desc.empty() ? "" : " [" + desc + "]"),
                         lid);
  analyze_launch_races(s, lid, desc);
  s.active_launches.erase(lid);
}

void hook_sync(void*, gpusim::Queue& queue) {
  State& s = state();
  const std::lock_guard lock(s.mu);
  if (!s.enabled) return;
  verify_device_canaries(s, queue.device(), "queue sync point", 0);
}

void hook_device_teardown(void*, gpusim::Device& device) {
  State& s = state();
  const std::lock_guard lock(s.mu);
  if (!s.enabled) return;
  verify_device_canaries(s, device, "device teardown", 0);
  sweep_device_leaks(s, device, "device teardown");
}

void hook_device_access(void*, const void* p, std::size_t bytes,
                        gpusim::AccessKind kind) {
  State& s = state();
  const std::lock_guard lock(s.mu);
  if (!s.enabled) return;
  ++s.accesses_checked;
  if (s.cfg.memcheck) check_access(s, p, bytes, kind);
  if (s.cfg.racecheck && kind != gpusim::AccessKind::Unknown) {
    const std::uint64_t lid = gpusim::current_launch_id();
    if (lid != 0) {
      if (s.log.size() < s.cfg.max_access_records) {
        s.log.push_back(AccessRecord{reinterpret_cast<std::uintptr_t>(p),
                                     gpusim::current_work_item(), lid,
                                     kind == gpusim::AccessKind::Write});
      } else {
        ++s.accesses_dropped;
      }
    }
  }
}

constexpr gpusim::SanitizerHooks kHooks{
    nullptr,           &hook_launch_begin, &hook_launch_end,
    &hook_sync,        &hook_device_teardown,
    &hook_device_access,
};

/// Builds a report snapshot (s.mu held).
[[nodiscard]] Report snapshot(const State& s) {
  Report r;
  r.findings = s.findings;
  r.total_findings = s.total_findings;
  r.suppressed_duplicates = s.suppressed;
  r.launches_checked = s.launches_checked;
  r.accesses_checked = s.accesses_checked;
  r.accesses_dropped = s.accesses_dropped;
  return r;
}

void json_escape(std::string& out, const std::string& in) {
  for (const char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

std::string_view to_string(Pass p) noexcept {
  switch (p) {
    case Pass::Memcheck:
      return "memcheck";
    case Pass::Racecheck:
      return "racecheck";
    case Pass::Leakcheck:
      return "leakcheck";
  }
  return "?";
}

void enable(const Config& config) {
  State& s = state();
  {
    const std::lock_guard lock(s.mu);
    s.cfg = config;
    s.enabled = true;
  }
  const std::size_t guard = config.memcheck ? config.redzone_bytes : 0;
  gpusim::DeviceAllocator::set_default_guard_bytes(guard);
  for (Vendor v : kVendors) {
    for (gpusim::Device* dev : gpusim::Platform::instance().devices_of(v)) {
      dev->allocator().set_guard_bytes(guard);
    }
  }
  gpusim::install_sanitizer_hooks(&kHooks);
}

void disable() {
  gpusim::install_sanitizer_hooks(nullptr);
  gpusim::DeviceAllocator::set_default_guard_bytes(0);
  for (Vendor v : kVendors) {
    for (gpusim::Device* dev : gpusim::Platform::instance().devices_of(v)) {
      dev->allocator().set_guard_bytes(0);
    }
  }
  State& s = state();
  const std::lock_guard lock(s.mu);
  s.enabled = false;
}

bool enabled() noexcept {
  State& s = state();
  const std::lock_guard lock(s.mu);
  return s.enabled;
}

Config current_config() {
  State& s = state();
  const std::lock_guard lock(s.mu);
  return s.cfg;
}

Report current_report() {
  State& s = state();
  const std::lock_guard lock(s.mu);
  return snapshot(s);
}

Report finalize() {
  // Uninstall first so the sweep itself (and any device teardown that
  // follows) cannot re-enter the hooks.
  gpusim::install_sanitizer_hooks(nullptr);
  State& s = state();
  const std::lock_guard lock(s.mu);
  if (s.enabled) {
    for (Vendor v : kVendors) {
      for (gpusim::Device* dev : gpusim::Platform::instance().devices_of(v)) {
        verify_device_canaries(s, *dev, "finalize", 0);
        sweep_device_leaks(s, *dev, "end of program");
      }
    }
    s.enabled = false;
  }
  gpusim::DeviceAllocator::set_default_guard_bytes(0);
  return snapshot(s);
}

void reset() {
  // Drain canary violations already queued inside the allocators (e.g. a
  // corrupted block freed just before the reset) so they cannot leak into
  // the next run's report.
  for (Vendor v : kVendors) {
    for (gpusim::Device* dev : gpusim::Platform::instance().devices_of(v)) {
      (void)dev->allocator().verify_canaries();
    }
  }
  State& s = state();
  const std::lock_guard lock(s.mu);
  s.findings.clear();
  s.total_findings = 0;
  s.suppressed = 0;
  s.launches_checked = 0;
  s.accesses_checked = 0;
  s.accesses_dropped = 0;
  s.log.clear();
  s.active_launches.clear();
  s.access_seen.clear();
  s.canary_seen.clear();
}

std::string Report::text() const {
  std::ostringstream out;
  out << "========= gpusan =========\n";
  if (clean()) {
    out << "clean: no findings\n";
  } else {
    out << total_findings << " finding(s)";
    if (findings.size() < total_findings) {
      out << " (" << findings.size() << " stored)";
    }
    if (suppressed_duplicates != 0) {
      out << ", " << suppressed_duplicates << " duplicate(s) suppressed";
    }
    out << "\n";
  }
  out << "launches checked: " << launches_checked
      << ", accesses checked: " << accesses_checked;
  if (accesses_dropped != 0) {
    out << " (" << accesses_dropped << " dropped by sampling)";
  }
  out << "\n";
  std::size_t i = 1;
  for (const Finding& f : findings) {
    out << "  " << i++ << ". [" << to_string(f.pass) << "] " << f.kind
        << ": " << f.message << "\n";
  }
  return std::move(out).str();
}

std::string Report::json() const {
  std::string out = "{\n";
  out += "  \"total_findings\": " + std::to_string(total_findings) + ",\n";
  out += "  \"suppressed_duplicates\": " +
         std::to_string(suppressed_duplicates) + ",\n";
  out += "  \"launches_checked\": " + std::to_string(launches_checked) +
         ",\n";
  out += "  \"accesses_checked\": " + std::to_string(accesses_checked) +
         ",\n";
  out += "  \"accesses_dropped\": " + std::to_string(accesses_dropped) +
         ",\n";
  out += "  \"findings\": [";
  bool first = true;
  for (const Finding& f : findings) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"pass\": \"";
    out += to_string(f.pass);
    out += "\", \"kind\": \"";
    json_escape(out, f.kind);
    out += "\", \"origin\": \"";
    json_escape(out, f.origin);
    out += "\", \"allocation_id\": " + std::to_string(f.allocation_id);
    out += ", \"launch_id\": " + std::to_string(f.launch_id);
    out += ", \"launch\": \"";
    json_escape(out, f.launch);
    out += "\", \"message\": \"";
    json_escape(out, f.message);
    out += "\"}";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

void init_from_env() {
  const char* spec = std::getenv("MCMM_GPUSAN");
  if (spec == nullptr || *spec == '\0') return;

  Config cfg;
  const std::string value(spec);
  if (value != "1" && value != "all") {
    cfg.memcheck = value.find("memcheck") != std::string::npos;
    cfg.racecheck = value.find("racecheck") != std::string::npos;
    cfg.leakcheck = value.find("leakcheck") != std::string::npos;
    if (!cfg.memcheck && !cfg.racecheck && !cfg.leakcheck) return;
  }

  // Construct the Platform now so its static destructor (which tears the
  // devices down) is registered before our at-exit reporter: atexit runs
  // LIFO, so the reporter then sees the devices still alive.
  (void)gpusim::Platform::instance();
  enable(cfg);
  std::atexit(+[] {
    const Report report = finalize();
    if (const char* path = std::getenv("MCMM_GPUSAN_REPORT");
        path != nullptr && *path != '\0') {
      std::ofstream out(path);
      out << report.json();
    }
    std::fputs(report.text().c_str(), stderr);
  });
}

}  // namespace mcmm::gpusan
