#include "serve/api.hpp"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <iterator>
#include <unordered_map>
#include <utility>

#include "core/claims.hpp"
#include "render/perf.hpp"
#include "render/render.hpp"
#include "serve/json.hpp"
#include "yamlx/matrix_yaml.hpp"

namespace mcmm::serve {
namespace {

// --- JSON views of the knowledge base -----------------------------------

void append_route(std::string& out, const Route& r) {
  out += "{\"name\":";
  out += json_quote(r.name);
  out += ",\"kind\":";
  out += json_quote(to_string(r.kind));
  out += ",\"provider\":";
  out += json_quote(to_string(r.provider));
  out += ",\"maturity\":";
  out += json_quote(to_string(r.maturity));
  out += ",\"toolchain\":";
  out += json_quote(r.toolchain);
  out += ",\"flags\":[";
  for (std::size_t i = 0; i < r.flags.size(); ++i) {
    if (i != 0) out += ',';
    out += json_quote(r.flags[i]);
  }
  out += "],\"environment\":[";
  for (std::size_t i = 0; i < r.environment.size(); ++i) {
    if (i != 0) out += ',';
    out += json_quote(r.environment[i]);
  }
  out += "],\"notes\":";
  out += json_quote(r.notes);
  out += '}';
}

void append_rating(std::string& out, const Rating& r) {
  out += "{\"category\":";
  out += json_quote(category_name(r.category));
  out += ",\"provider\":";
  out += json_quote(to_string(r.provider));
  out += ",\"rationale\":";
  out += json_quote(r.rationale);
  out += '}';
}

void append_entry(std::string& out, const SupportEntry& e) {
  out += "{\"vendor\":";
  out += json_quote(to_string(e.combo.vendor));
  out += ",\"model\":";
  out += json_quote(to_string(e.combo.model));
  out += ",\"language\":";
  out += json_quote(to_string(e.combo.language));
  out += ",\"ratings\":[";
  for (std::size_t i = 0; i < e.ratings.size(); ++i) {
    if (i != 0) out += ',';
    append_rating(out, e.ratings[i]);
  }
  out += "],\"description\":";
  out += std::to_string(e.description_id);
  out += ",\"inferred\":";
  out += e.inferred ? "true" : "false";
  out += ",\"usable\":";
  out += e.usable() ? "true" : "false";
  out += ",\"routes\":[";
  for (std::size_t i = 0; i < e.routes.size(); ++i) {
    if (i != 0) out += ',';
    append_route(out, e.routes[i]);
  }
  out += "]}";
}

void append_description(std::string& out, const Description& d) {
  out += "{\"id\":";
  out += std::to_string(d.id);
  out += ",\"title\":";
  out += json_quote(d.title);
  out += ",\"text\":";
  out += json_quote(d.text);
  out += ",\"references\":[";
  for (std::size_t i = 0; i < d.references.size(); ++i) {
    if (i != 0) out += ',';
    out += json_quote(d.references[i]);
  }
  out += "]}";
}

std::string matrix_json(const CompatibilityMatrix& m) {
  std::string out = "{\"schema\":\"mcmm-serve-v1\",\"cell_count\":";
  out += std::to_string(m.entry_count());
  out += ",\"description_count\":";
  out += std::to_string(m.description_count());
  out += ",\"total_routes\":";
  out += std::to_string(m.total_route_count());
  out += ",\"cells\":[";
  bool first = true;
  for (const SupportEntry* e : m.entries()) {
    if (!first) out += ',';
    first = false;
    append_entry(out, *e);
  }
  out += "],\"descriptions\":[";
  first = true;
  for (const Description* d : m.descriptions()) {
    if (!first) out += ',';
    first = false;
    append_description(out, *d);
  }
  out += "]}\n";
  return out;
}

std::string cell_json(const CompatibilityMatrix& m, const SupportEntry& e) {
  std::string out = "{\"schema\":\"mcmm-serve-v1\",\"cell\":";
  append_entry(out, e);
  out += ",\"description\":";
  append_description(out, m.description(e.description_id));
  out += "}\n";
  return out;
}

std::string claims_json(const CompatibilityMatrix& m) {
  const Claims claims(m);
  std::string out = "{\"schema\":\"mcmm-serve-v1\",\"claims\":[";
  bool first = true;
  bool all_hold = true;
  for (const ClaimResult& r : claims.evaluate_all()) {
    if (!first) out += ',';
    first = false;
    all_hold = all_hold && r.holds;
    out += "{\"id\":";
    out += json_quote(r.id);
    out += ",\"statement\":";
    out += json_quote(r.statement);
    out += ",\"holds\":";
    out += r.holds ? "true" : "false";
    out += ",\"evidence\":";
    out += json_quote(r.evidence);
    out += '}';
  }
  out += "],\"all_hold\":";
  out += all_hold ? "true" : "false";
  out += "}\n";
  return out;
}

std::string index_json() {
  return R"({"service":"mcmm serve","schema":"mcmm-serve-v1","endpoints":[)"
         R"({"method":"GET","path":"/v1/matrix",)"
         R"("query":"format=json|txt|md|csv|html|latex|yaml"},)"
         R"({"method":"GET","path":"/v1/cell/{vendor}/{model}/{language}"},)"
         R"({"method":"POST","path":"/v1/plan"},)"
         R"({"method":"GET","path":"/v1/claims"},)"
         R"({"method":"GET","path":"/v1/perf",)"
         R"("query":"format=json|txt|md|csv|html|latex|yaml"},)"
         R"({"method":"GET","path":"/healthz"},)"
         R"({"method":"GET","path":"/metrics"}]})"
         "\n";
}

// --- POST /v1/plan body -> PlannerQuery ----------------------------------

/// The plan body reader's state: the JSON cursor and the first semantic
/// error. After that error the rest of the body is still read, for syntax
/// only, so that a later syntax error is the one reported.
struct PlanBodyReader {
  JsonReader json;
  std::string rejected;

  void reject(std::string_view what, std::string_view detail = {}) {
    if (!rejected.empty()) return;
    rejected = what;
    rejected += detail;
  }
};

/// Reads one string naming an enum value into `out` via `parse`; false
/// when the value was rejected or malformed. `not_string` completes the
/// message for a value of another type.
template <typename T, typename Parse>
bool read_enum(PlanBodyReader& r, Parse parse, std::string_view what,
               std::string_view not_string, T& out) {
  JsonKind kind{};
  if (!r.json.begin_value(kind)) return false;
  if (kind != JsonKind::String) {
    r.reject(what, not_string);
    r.json.skip_rest(kind);
    return false;
  }
  const auto parsed = parse(r.json.string());
  if (!parsed) {
    std::string message = "unknown ";
    message += what;
    message += ": ";
    r.reject(message, r.json.string());
    return false;
  }
  out = *parsed;
  return true;
}

/// Reads an array of enum names, appending to `out` (a repeated key
/// appends again). `distinct` is the number of enum values, by which `out`
/// grows at once.
template <typename T, typename Parse>
void read_enum_array(PlanBodyReader& r, Parse parse, std::string_view what,
                     std::size_t distinct, std::vector<T>& out) {
  JsonKind kind{};
  if (!r.json.begin_value(kind)) return;
  if (kind != JsonKind::Array) {
    r.reject(what, " must be an array of strings");
    r.json.skip_rest(kind);
    return;
  }
  while (r.json.next_element()) {
    T item{};
    if (!r.rejected.empty()) {
      r.json.skip_value();
    } else if (read_enum(r, parse, what, " must contain only strings",
                         item)) {
      if (out.size() == out.capacity()) out.reserve(out.size() + distinct);
      out.push_back(item);
    }
  }
}

void read_bool(PlanBodyReader& r, std::string_view what, bool& out) {
  JsonKind kind{};
  if (!r.json.begin_value(kind)) return;
  if (kind != JsonKind::Bool) {
    r.reject(what, " must be a boolean");
    r.json.skip_rest(kind);
    return;
  }
  out = r.json.boolean();
}

/// Appends `in` as a JSON string, escaped straight into `out`.
void append_quoted(std::string& out, std::string_view in) {
  out += '"';
  json_escape(out, in);
  out += '"';
}

/// Appends the decimal form of `n`.
template <typename Int>
void append_int(std::string& out, Int n) {
  char digits[20];
  out.append(digits, std::to_chars(digits, std::end(digits), n).ptr);
}

/// `platform_json` holds every route of the matrix as the whole platform
/// object a plan lists it in, rendered once; each planned route is spliced
/// in from there. `max_platform_json` is the longest of them.
std::string plan_json(
    const PlannerQuery& q, const std::vector<PlannedRoute>& plans,
    const std::unordered_map<const Route*, std::string>& platform_json,
    std::size_t max_platform_json) {
  // A bound on the body size, so that it is allocated once.
  std::size_t size =
      320 + 16 * (q.must_run_on.size() + q.allowed_models.size());
  for (const PlannedRoute& p : plans) {
    size += 80 + p.rationale.size() + p.platforms.size() * max_platform_json;
  }
  std::string out;
  out.reserve(size);
  out += "{\"schema\":\"mcmm-serve-v1\",\"query\":{\"language\":";
  append_quoted(out, to_string(q.language));
  out += ",\"must_run_on\":[";
  for (std::size_t i = 0; i < q.must_run_on.size(); ++i) {
    if (i != 0) out += ',';
    append_quoted(out, to_string(q.must_run_on[i]));
  }
  out += "],\"allowed_models\":[";
  for (std::size_t i = 0; i < q.allowed_models.size(); ++i) {
    if (i != 0) out += ',';
    append_quoted(out, to_string(q.allowed_models[i]));
  }
  out += "],\"minimum_category\":";
  append_quoted(out, category_name(q.minimum_category));
  out += ",\"require_maintained\":";
  out += q.require_maintained ? "true" : "false";
  out += ",\"require_vendor_support\":";
  out += q.require_vendor_support ? "true" : "false";
  out += ",\"allow_translators\":";
  out += q.allow_translators ? "true" : "false";
  out += "},\"route_count\":";
  append_int(out, plans.size());
  out += ",\"routes\":[";
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const PlannedRoute& p = plans[i];
    if (i != 0) out += ',';
    out += "{\"model\":";
    append_quoted(out, to_string(p.model));
    out += ",\"rank\":";
    append_int(out, p.rank);
    out += ",\"rationale\":";
    append_quoted(out, p.rationale);
    out += ",\"platforms\":[";
    for (std::size_t j = 0; j < p.platforms.size(); ++j) {
      if (j != 0) out += ',';
      out += platform_json.at(p.platforms[j].route);
    }
    out += "]}";
  }
  out += "]}\n";
  return out;
}

/// True when an If-None-Match header value matches a strong `etag`
/// ("*" or any member of the comma-separated entity-tag list).
bool etag_matches(std::string_view header_value, std::string_view etag) {
  std::string_view rest = header_value;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    std::string_view token = comma == std::string_view::npos
                                 ? rest
                                 : rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    while (!token.empty() && (token.front() == ' ' || token.front() == '\t')) {
      token.remove_prefix(1);
    }
    while (!token.empty() && (token.back() == ' ' || token.back() == '\t')) {
      token.remove_suffix(1);
    }
    if (token == "*" || token == etag) return true;
  }
  return false;
}

Response method_not_allowed(std::string_view allow) {
  Response r = error_response(405, "method not allowed");
  r.extra_headers.emplace_back("Allow", std::string(allow));
  return r;
}

}  // namespace

bool read_plan_query(std::string_view body, PlannerQuery& q,
                     std::string& error) {
  PlanBodyReader r{JsonReader(body), {}};
  bool have_language = false;
  JsonKind kind{};
  if (r.json.begin_value(kind)) {
    if (kind != JsonKind::Object) {
      r.reject("request body must be a JSON object");
      r.json.skip_rest(kind);
    }
    while (kind == JsonKind::Object && r.json.next_member()) {
      const std::string_view key = r.json.string();
      if (!r.rejected.empty()) {
        r.json.skip_value();
      } else if (key == "language") {
        have_language |= read_enum(r, parse_language, "language",
                                   " must be a string", q.language);
      } else if (key == "must_run_on") {
        read_enum_array(r, parse_vendor, "must_run_on", kAllVendors.size(),
                        q.must_run_on);
      } else if (key == "allowed_models") {
        read_enum_array(r, parse_model, "allowed_models", kAllModels.size(),
                        q.allowed_models);
      } else if (key == "minimum_category") {
        read_enum(r, parse_category, "minimum_category", " must be a string",
                  q.minimum_category);
      } else if (key == "require_maintained") {
        read_bool(r, "require_maintained", q.require_maintained);
      } else if (key == "require_vendor_support") {
        read_bool(r, "require_vendor_support", q.require_vendor_support);
      } else if (key == "allow_translators") {
        read_bool(r, "allow_translators", q.allow_translators);
      } else {
        r.reject("unknown key: ", key);
        r.json.skip_value();
      }
    }
    r.json.finish();
  }
  if (r.json.failed()) {
    error = "invalid JSON body: ";
    error += r.json.error();
  } else if (!r.rejected.empty()) {
    error = std::move(r.rejected);
  } else if (!have_language) {
    error = "missing required key: language";
  } else {
    return true;
  }
  return false;
}

std::string etag_for(std::string_view body) {
  // FNV-1a 64: cheap, stable across runs (no seed), and collision-safe
  // enough for a cache of ~60 immutable resources.
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : body) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string("\"") + hex + '"';
}

Api::Cached Api::make_cached(std::string body, std::string content_type) {
  Cached c;
  c.etag = etag_for(body);
  c.body = std::move(body);
  c.content_type = std::move(content_type);
  append_header_block(c.ok_block, 200, c.content_type, c.body.size(), c.etag);
  append_header_block(c.not_modified_block, 304, c.content_type, 0, c.etag);
  return c;
}

Api::Api(const CompatibilityMatrix& matrix, const Metrics* metrics,
         const std::atomic<bool>* draining,
         const perfport::PerfReport* perf)
    : metrics_(metrics), draining_(draining), planner_(matrix) {
  const char* text_plain = "text/plain; charset=utf-8";
  matrix_formats_.emplace(
      "json", make_cached(matrix_json(matrix), "application/json"));
  matrix_formats_.emplace(
      "txt", make_cached(render::figure1_text(matrix), text_plain));
  matrix_formats_.emplace(
      "md", make_cached(render::figure1_markdown(matrix),
                        "text/markdown; charset=utf-8"));
  matrix_formats_.emplace("csv", make_cached(render::matrix_csv(matrix),
                                             "text/csv; charset=utf-8"));
  matrix_formats_.emplace("html", make_cached(render::figure1_html(matrix),
                                              "text/html; charset=utf-8"));
  matrix_formats_.emplace("latex", make_cached(render::figure1_latex(matrix),
                                               "application/x-tex"));
  matrix_formats_.emplace(
      "yaml",
      make_cached(yamlx::matrix_to_yaml_text(matrix), "application/yaml"));
  if (perf != nullptr) {
    perf_formats_.emplace(
        "json", make_cached(perfport::report_json(*perf), "application/json"));
    perf_formats_.emplace(
        "txt", make_cached(render::figure2_text(*perf), text_plain));
    perf_formats_.emplace(
        "md", make_cached(render::figure2_markdown(*perf),
                          "text/markdown; charset=utf-8"));
    perf_formats_.emplace("csv", make_cached(render::figure2_csv(*perf),
                                             "text/csv; charset=utf-8"));
    perf_formats_.emplace("html", make_cached(render::figure2_html(*perf),
                                              "text/html; charset=utf-8"));
    perf_formats_.emplace(
        "latex", make_cached(render::figure2_latex(*perf),
                             "application/x-tex"));
    perf_formats_.emplace("yaml", make_cached(render::figure2_yaml(*perf),
                                              "application/yaml"));
  }
  for (const SupportEntry* e : matrix.entries()) {
    cells_.emplace(e->combo,
                   make_cached(cell_json(matrix, *e), "application/json"));
    for (const Route& r : e->routes) {
      std::string& json = platform_json_[&r];
      json = "{\"vendor\":";
      json += json_quote(to_string(e->combo.vendor));
      json += ",\"category\":";
      json += json_quote(category_name(e->best_category()));
      json += ",\"route\":";
      append_route(json, r);
      json += '}';
      max_platform_json_ = std::max(max_platform_json_, json.size());
    }
  }
  claims_ = make_cached(claims_json(matrix), "application/json");
  index_ = make_cached(index_json(), "application/json");
}

Response Api::handle_health() const {
  Response r;
  std::string body = "{\"status\":\"ok\",\"pid\":";
  body += std::to_string(::getpid());
  body += ",\"in_flight\":";
  // The gauge counts this /healthz request too; report the load a prober
  // actually cares about — everything else.
  const std::uint64_t gauge =
      metrics_ != nullptr ? metrics_->in_flight() : 0;
  body += std::to_string(gauge > 0 ? gauge - 1 : 0);
  body += ",\"draining\":";
  body += draining_ != nullptr &&
                  draining_->load(std::memory_order_relaxed)
              ? "true"
              : "false";
  body += "}\n";
  r.body = std::move(body);
  return r;
}

bool Api::not_modified(const Cached& c, const Request& req) {
  const std::string* inm = req.header("if-none-match");
  return inm != nullptr && etag_matches(*inm, c.etag);
}

Response Api::answer(const Request& req) const {
  Routed routed = route(req);
  if (routed.cached == nullptr) return std::move(routed.owned);
  const Cached& c = *routed.cached;
  Response r;
  r.content_type = c.content_type;
  if (not_modified(c, req)) {
    r.status = 304;
    r.header_block = c.not_modified_block;
  } else {
    r.header_block = c.ok_block;
    r.shared_body = c.body;
  }
  return r;
}

Response Api::handle(const Request& req) const {
  Routed routed = route(req);
  if (routed.cached == nullptr) return std::move(routed.owned);
  const Cached& c = *routed.cached;
  Response r;
  r.content_type = c.content_type;
  r.etag = c.etag;
  if (not_modified(c, req)) {
    r.status = 304;
  } else {
    r.body = c.body;
  }
  return r;
}

Api::Routed Api::handle_matrix(const Request& req) const {
  std::string_view format = req.query_param("format", "json");
  if (format == "text") format = "txt";
  if (format == "markdown") format = "md";
  if (format == "tex") format = "latex";
  const auto it = matrix_formats_.find(format);
  if (it == matrix_formats_.end()) {
    return error_response(
        400, "unknown format (want json|txt|md|csv|html|latex|yaml)");
  }
  return it->second;
}

Api::Routed Api::handle_perf(const Request& req) const {
  if (perf_formats_.empty()) {
    return error_response(
        404, "perf campaign disabled (start the server with --perf)");
  }
  std::string_view format = req.query_param("format", "json");
  if (format == "text") format = "txt";
  if (format == "markdown") format = "md";
  if (format == "tex") format = "latex";
  const auto it = perf_formats_.find(format);
  if (it == perf_formats_.end()) {
    return error_response(
        400, "unknown format (want json|txt|md|csv|html|latex|yaml)");
  }
  return it->second;
}

Api::Routed Api::handle_cell(const Request& req) const {
  // Path shape: /v1/cell/{vendor}/{model}/{language}
  std::string_view rest = std::string_view(req.path).substr(9);
  if (!rest.empty() && rest.front() == '/') rest.remove_prefix(1);
  std::string_view parts[3];
  int count = 0;
  while (!rest.empty() && count < 3) {
    const std::size_t slash = rest.find('/');
    parts[count++] =
        slash == std::string_view::npos ? rest : rest.substr(0, slash);
    rest = slash == std::string_view::npos ? std::string_view{}
                                           : rest.substr(slash + 1);
  }
  if (count != 3 || !rest.empty()) {
    return error_response(404, "want /v1/cell/{vendor}/{model}/{language}");
  }
  const auto vendor = parse_vendor(parts[0]);
  const auto model = parse_model(parts[1]);
  const auto language = parse_language(parts[2]);
  if (!vendor || !model || !language) {
    return error_response(404, "unknown vendor, model, or language");
  }
  const auto it = cells_.find(Combination{*vendor, *model, *language});
  if (it == cells_.end()) {
    return error_response(404,
                          "no such cell (language does not apply to model?)");
  }
  return it->second;
}

Response Api::handle_plan(const Request& req) const {
  PlannerQuery query;
  std::string error;
  if (!read_plan_query(req.body, query, error)) {
    return error_response(400, error);
  }
  Response r;
  r.body = plan_json(query, planner_.plan(query), platform_json_,
                     max_platform_json_);
  return r;
}

Api::Routed Api::route(const Request& req) const {
  const bool is_get = req.method == "GET" || req.method == "HEAD";
  const std::string& path = req.path;
  if (path == "/" || path == "/v1") {
    return is_get ? Routed(index_) : method_not_allowed("GET, HEAD");
  }
  if (path == "/healthz") {
    return is_get ? handle_health() : method_not_allowed("GET, HEAD");
  }
  if (path == "/metrics") {
    if (!is_get) return method_not_allowed("GET, HEAD");
    Response r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = metrics_ != nullptr ? metrics_->prometheus_text() : std::string();
    return r;
  }
  if (path == "/v1/matrix") {
    return is_get ? handle_matrix(req) : method_not_allowed("GET, HEAD");
  }
  if (path == "/v1/perf") {
    return is_get ? handle_perf(req) : method_not_allowed("GET, HEAD");
  }
  if (path.rfind("/v1/cell/", 0) == 0) {
    return is_get ? handle_cell(req) : method_not_allowed("GET, HEAD");
  }
  if (path == "/v1/plan") {
    return req.method == "POST" ? handle_plan(req)
                                : method_not_allowed("POST");
  }
  if (path == "/v1/claims") {
    return is_get ? Routed(claims_) : method_not_allowed("GET, HEAD");
  }
  return error_response(404, "no such endpoint (GET / lists them)");
}

}  // namespace mcmm::serve
