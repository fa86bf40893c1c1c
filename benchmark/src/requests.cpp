#include "requests.hpp"

#include <cctype>
#include <stdexcept>

#include "core/support.hpp"
#include "serve/json.hpp"
#include "stats.hpp"

namespace mcmm::bm {
namespace {

constexpr std::string_view kFormats[] = {"json", "txt",   "md",  "csv",
                                         "html", "latex", "yaml"};
constexpr std::string_view kCategories[] = {"full",      "indirect", "some",
                                            "nonvendor", "limited",  "none"};

std::string lower_escaped(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '+') {
      out += "%2B";
    } else {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  return out;
}

std::string get_wire(const std::string& target, const std::string& etag) {
  std::string wire = "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!etag.empty()) wire += "If-None-Match: " + etag + "\r\n";
  wire += "\r\n";
  return wire;
}

std::string plan_body(Rng& rng) {
  constexpr Language kLanguages[] = {Language::Cpp, Language::Fortran,
                                     Language::Python};
  std::string body = "{\"language\":";
  body += serve::json_quote(to_string(kLanguages[rng.below(3)]));
  if (rng.coin()) {
    body += ",\"must_run_on\":[";
    bool first = true;
    for (const Vendor v : kAllVendors) {
      if (!rng.coin()) continue;
      if (!first) body += ',';
      first = false;
      body += serve::json_quote(to_string(v));
    }
    body += ']';
  }
  if (rng.coin()) {
    body += ",\"allowed_models\":[";
    bool first = true;
    for (const Model m : kAllModels) {
      if (rng.below(3) != 0) continue;
      if (!first) body += ',';
      first = false;
      body += serve::json_quote(to_string(m));
    }
    body += ']';
  }
  if (rng.coin()) {
    body += ",\"minimum_category\":";
    body += serve::json_quote(kCategories[rng.below(std::size(kCategories))]);
  }
  for (const char* flag :
       {"require_maintained", "require_vendor_support", "allow_translators"}) {
    if (rng.coin()) {
      body += ",\"";
      body += flag;
      body += "\":";
      body += rng.coin() ? "true" : "false";
    }
  }
  body += '}';
  return body;
}

}  // namespace

serve::Request parse_request(std::string_view wire) {
  serve::RequestParser parser;
  if (parser.feed(wire) != serve::RequestParser::Status::Complete) {
    throw std::runtime_error("benchmark request does not parse: " +
                             std::string(wire.substr(0, 60)));
  }
  return parser.take_request();
}

RequestMix::RequestMix(const serve::Api& api, const CompatibilityMatrix& matrix,
                       std::uint64_t seed, bool plans)
    : seed_(seed), plans_(plans) {
  const auto add = [&](RequestTemplate t) {
    const serve::Response r = api.handle(parse_request(t.wire));
    if (r.status != 200 && r.status != 304) {
      throw std::runtime_error("benchmark request answered " +
                               std::to_string(r.status) + ": " + t.path);
    }
    t.expect_status = r.status;
    if (r.status == 200 && !t.live_body) t.expect_body = r.body;
    templates_.push_back(std::move(t));
    return static_cast<std::uint32_t>(templates_.size() - 1);
  };

  if (plans_) {
    // Enough queries that their mean planning cost barely differs between
    // seeds (at 128 it was part of the run-to-run spread).
    Rng rng(seed ^ 0x706c616e73ull);
    for (int i = 0; i < 1024; ++i) {
      const std::string body = plan_body(rng);
      RequestTemplate t;
      t.path = "/v1/plan " + body;
      t.wire =
          "POST /v1/plan HTTP/1.1\r\nHost: 127.0.0.1\r\n"
          "Content-Type: application/json\r\nContent-Length: " +
          std::to_string(body.size()) + "\r\n\r\n" + body;
      plain_.push_back(add(std::move(t)));
    }
    return;
  }

  const auto add_get = [&](const std::string& target, bool live) {
    RequestTemplate t;
    t.path = target;
    t.wire = get_wire(target, "");
    t.live_body = live;
    plain_.push_back(add(t));
    if (!live) {
      RequestTemplate cond = t;
      cond.conditional = true;
      cond.wire = get_wire(target, api.handle(parse_request(t.wire)).etag);
      conditional_.push_back(add(std::move(cond)));
    }
  };
  for (const std::string_view f : kFormats) {
    add_get("/v1/matrix?format=" + std::string(f), false);
  }
  for (const SupportEntry* e : matrix.entries()) {
    add_get("/v1/cell/" + lower_escaped(to_string(e->combo.vendor)) + "/" +
                lower_escaped(to_string(e->combo.model)) + "/" +
                lower_escaped(to_string(e->combo.language)),
            false);
  }
  add_get("/v1/claims", false);
  add_get("/healthz", true);
}

std::size_t RequestMix::index_of(std::uint64_t i) const {
  Rng rng(seed_ ^ (i * 0xd1342543de82ef95ull));
  const std::uint64_t h = rng.next();
  // No observed traffic exists to weight the resources or plan queries by,
  // so each distinct one is equally likely: the assumption with the fewest
  // free parameters.
  if (!plans_ && i % 8 == 7) return conditional_[h % conditional_.size()];
  return plain_[h % plain_.size()];
}

const RequestTemplate& RequestMix::request(std::uint64_t i) const {
  return templates_[index_of(i)];
}

std::string check_response(const RequestTemplate& t, int status,
                           std::string_view body) {
  if (status != t.expect_status) {
    return "status " + std::to_string(status) + " (want " +
           std::to_string(t.expect_status) + ") for " + t.path;
  }
  if (t.live_body) {
    const bool ok = body.rfind("{\"status\":\"ok\",\"pid\":", 0) == 0 &&
                    body.find("\"draining\":false") != std::string_view::npos;
    return ok ? "" : "malformed /healthz body";
  }
  if (body != t.expect_body) {
    return "body differs from Api::handle for " + t.path;
  }
  return "";
}

}  // namespace mcmm::bm
