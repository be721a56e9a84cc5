// The `svc_mix` workload: a closed-loop client of the synthesis service.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "host.hpp"
#include "layers.hpp"
#include "ledger.hpp"
#include "netlist/dump.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "par/pool.hpp"
#include "script.hpp"
#include "svc/cache.hpp"
#include "svc/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace hc = hlshc;

namespace {

// One closed-loop client and two workers. A single client keeps the order
// in which requests reach the cache fixed by the seed, so which requests
// meet the cache-key defect (and so the failure count) is a function of the
// seed and --seconds alone; with concurrent clients it followed thread
// timing. The queue holds the client's request, so nothing is shed.
constexpr int kClients = 1;
constexpr int kWorkers = 2;
constexpr int kQueue = 4;
constexpr size_t kScriptLength = 50000;
// Measured decks per run at least: 1000 requests leave ten beyond p99.
constexpr size_t kMinDecks = 2;
// Host seconds one measured deck takes on the reference 4-vCPU host. A run
// measures a whole number of decks fixed by --seconds, not by the clock,
// so the set of requests it classifies never depends on the host's speed.
constexpr double kDeckSeconds = 10.0;

size_t measured_decks(int seconds) {
  return std::max(kMinDecks, static_cast<size_t>(std::lround(seconds / kDeckSeconds)));
}

hc::svc::ServerOptions server_options(size_t recent) {
  hc::svc::ServerOptions so;
  so.workers = kWorkers;
  so.queue_capacity = kQueue;
  so.recent_requests = recent;
  return so;
}

struct Reply {
  int64_t latency_ns = 0;
  std::string code;  ///< "ok" or the wire error code
  std::string message;
  bool cached = false;
  bool functional = false;
  std::string content_hash;
  uint64_t trace_id = 0;
};

Reply parse_reply(const std::string& line) {
  const hc::obs::Json j = hc::obs::Json::parse(line);
  Reply r;
  if (const auto* t = j.find("trace_id"))
    r.trace_id = hc::obs::parse_trace_id(t->as_string());
  if (j.find("ok")->as_bool()) {
    r.code = "ok";
    const hc::obs::Json& res = *j.find("result");
    if (const auto* c = res.find("cached")) r.cached = c->as_bool();
    if (const auto* f = res.find("functional")) r.functional = f->as_bool();
    if (const auto* h = res.find("content_hash")) r.content_hash = h->as_string();
  } else {
    const hc::obs::Json& err = *j.find("error");
    r.code = err.find("code")->as_string();
    r.message = err.find("message")->as_string();
  }
  return r;
}

hc::tools::CompileOptions compile_options(const SvcRequest& r) {
  hc::tools::CompileOptions co;
  co.narrow = r.narrow;
  co.strength_reduce = r.strength_reduce;
  return co;
}

hc::synth::ScheduleOptions schedule_options(const SvcRequest& r) {
  hc::synth::ScheduleOptions so;
  so.stages = r.stages;
  so.objective = r.objective == "regmin"
                     ? hc::synth::ScheduleObjective::kRegisterMin
                     : hc::synth::ScheduleObjective::kDelayBalance;
  so.retime_boundaries = r.retime;
  return so;
}

/// What one closed-loop session against a fresh server produced.
struct Served {
  std::vector<Reply> replies;  ///< always a prefix of the script
  size_t first = 0;            ///< index of the first measured request
  double wall_s = 0;           ///< measured decks only
  hc::svc::DesignCache::Stats cache;  ///< lookups during the measured decks
  int64_t shed = 0;
  std::map<uint64_t, double> queue_ms;  ///< admission to dequeue, by trace
};

/// Drives `warm_decks` untimed decks, which fill the cache, then
/// `measured` timed decks of the script through a fresh server from one
/// closed-loop client. Every run thus measures whole decks, the same
/// request mix. The server is gone when this returns.
Served drive(const std::vector<SvcRequest>& script, size_t warm_decks,
             size_t measured, size_t recent) {
  if ((warm_decks + measured) * kSvcDeck > script.size())
    throw std::runtime_error("svc_mix ran out of script; lengthen it");
  hc::svc::Server server(server_options(recent));
  Served s;
  s.replies.resize((warm_decks + measured) * kSvcDeck);
  s.first = warm_decks * kSvcDeck;
  int64_t begin = now_ns();
  hc::svc::DesignCache::Stats cache0;
  for (size_t i = 0; i < s.replies.size(); ++i) {
    if (i == s.first) {
      begin = now_ns();
      cache0 = server.cache_stats();
    }
    const int64_t t0 = now_ns();
    const std::string line = server.submit(script[i].line).get();
    const int64_t t1 = now_ns();
    s.replies[i] = parse_reply(line);
    s.replies[i].latency_ns = t1 - t0;
  }
  s.wall_s = (now_ns() - begin) / 1e9;
  const hc::svc::DesignCache::Stats cache = server.cache_stats();
  s.cache.hits = cache.hits - cache0.hits;
  s.cache.misses = cache.misses - cache0.misses;
  s.cache.evictions = cache.evictions - cache0.evictions;
  s.shed = server.shed_count();
  for (const auto& rec : server.recent_requests())
    s.queue_ms[rec.trace_id] = rec.queue_ns / 1e6;
  return s;
}

const DesignRef* find_design(const std::vector<DesignRef>& designs,
                             const std::string& name) {
  for (const DesignRef& d : designs)
    if (d.name == name) return &d;
  return nullptr;
}

std::string direct_key(const SvcRequest& r) {
  return r.design + " narrow=" + std::to_string(r.narrow) +
         " sr=" + std::to_string(r.strength_reduce) +
         " stages=" + std::to_string(r.stages) + " obj=" + r.objective +
         " retime=" + std::to_string(r.retime);
}

/// Content hash of a direct tools::compile of `r`'s design and options.
std::string direct_hash(const SvcRequest& r, const std::vector<DesignRef>& designs) {
  hc::netlist::Design d = find_design(designs, r.design)->build();
  if (r.stages > 0) d = hc::synth::schedule_pipeline(d, schedule_options(r)).design;
  return hc::svc::content_hash(
      hc::netlist::dump_text(hc::tools::compile(d, compile_options(r)).design));
}

/// Classifies every reply: ok, expected rejection, or failed. Each ok
/// compile's content hash must equal a direct tools::compile of the same
/// design and options. A hash that instead equals the direct compile with
/// the opposite `narrow` setting is the service's known cache-key defect
/// (DesignCache::fingerprint omits CompileOptions::narrow) and counts as a
/// failed request; any other difference is a wrong output. Replies before
/// `measured_from` (the warm-up) are checked but not counted as operations.
void account(const std::vector<SvcRequest>& script,
             const std::vector<Reply>& replies, size_t measured_from,
             const std::vector<DesignRef>& designs, Outcome& out) {
  std::map<std::string, SvcRequest> needed;  // by direct_key
  for (size_t i = 0; i < replies.size(); ++i)
    if (replies[i].code == "ok" && script[i].kind == SvcRequest::Kind::kCompile) {
      SvcRequest flipped = script[i];
      flipped.narrow = !flipped.narrow;
      needed.emplace(direct_key(script[i]), script[i]);
      needed.emplace(direct_key(flipped), flipped);
    }
  std::vector<const SvcRequest*> keys;
  for (const auto& [k, r] : needed) keys.push_back(&r);
  std::vector<std::string> hashes(keys.size());
  {
    hc::par::Pool pool(kClients + kWorkers);
    pool.parallel_for(static_cast<int64_t>(keys.size()), [&](int64_t i) {
      hashes[static_cast<size_t>(i)] =
          direct_hash(*keys[static_cast<size_t>(i)], designs);
    });
  }
  std::map<std::string, std::string> direct;
  for (size_t i = 0; i < keys.size(); ++i) direct[direct_key(*keys[i])] = hashes[i];

  Outcome warm;  // failures during the warm-up are not operations
  for (size_t i = 0; i < replies.size(); ++i) {
    const SvcRequest& req = script[i];
    const Reply& rep = replies[i];
    Outcome& o = i < measured_from ? warm : out;
    ++o.attempted;
    if (rep.code != req.expect) {
      const bool evaluate = req.line.find("\"evaluate\"") != std::string::npos;
      o.fail(cause(rep.code + " on " + (evaluate ? "evaluate" : "compile") +
                         " (expected " + req.expect + ")",
                     rep.message));
    } else if (rep.code != "ok") {
      ++o.rejected;
    } else if (req.kind == SvcRequest::Kind::kEvaluate) {
      if (!rep.functional) out.mismatch(req.design + " evaluated non-functional");
    } else if (rep.content_hash != direct.at(direct_key(req))) {
      SvcRequest flipped = req;
      flipped.narrow = !flipped.narrow;
      if (rep.content_hash == direct.at(direct_key(flipped)))
        o.fail(std::string("compile answered with the narrow=") +
               (flipped.narrow ? "true" : "false") +
               " design: the cache key omits CompileOptions::narrow");
      else
        out.mismatch("compile " + req.line + " returned content_hash " +
                     rep.content_hash + ", direct tools::compile gives " +
                     direct.at(direct_key(req)));
    }
  }
  out.lines.push_back("svc_mix: compared ok compiles against " +
                      std::to_string(keys.size()) +
                      " direct tools::compile results");
}

/// Latencies (ms) of every answered request, and of ok compiles split by
/// the cache outcome the service reported.
struct LatencySplit {
  std::vector<double> all, hit, miss;
};

LatencySplit split(const std::vector<SvcRequest>& script,
                   const std::vector<Reply>& replies) {
  LatencySplit s;
  for (size_t i = 0; i < replies.size(); ++i) {
    const double ms = replies[i].latency_ns / 1e6;
    s.all.push_back(ms);
    if (replies[i].code == "ok" && script[i].kind == SvcRequest::Kind::kCompile)
      (replies[i].cached ? s.hit : s.miss).push_back(ms);
  }
  return s;
}

std::string pct_line(const char* name, const std::vector<double>& v, double q) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "  %-16s %9.3f ms  (n=%zu, %zu beyond)", name,
                percentile(v, q), v.size(), samples_beyond(v.size(), q));
  return buf;
}

/// Replays the requests directly against the layer calls, serially, with
/// the cache outcome each request met in the service.
void replay(const std::vector<SvcRequest>& script,
            const std::vector<Reply>& replies,
            const std::vector<DesignRef>& designs, Layers& L) {
  const auto& reg = hc::workload::Registry::instance();
  std::map<std::string, hc::netlist::Design> compiled;  // by cache key
  L.ledger.start();
  for (size_t i = 0; i < replies.size(); ++i) {
    const SvcRequest& req = script[i];
    const DesignRef* ref = find_design(designs, req.design);
    if (!ref) continue;  // rejected at the design lookup
    try {
      hc::netlist::Design d = L.build(ref->flow, ref->build);
      if (req.stages > 0) d = L.schedule(d, schedule_options(req)).design;
      const hc::tools::CompileOptions co = compile_options(req);
      const std::string key = L.key(d, co);
      auto it = compiled.find(key);
      if (!replies[i].cached || it == compiled.end()) {
        hc::tools::CompiledDesign c = L.compile(d, co);
        L.plan(c.design);
        it = compiled.insert_or_assign(key, std::move(c.design)).first;
      }
      const bool evaluate = req.kind == SvcRequest::Kind::kEvaluate ||
                            (req.kind == SvcRequest::Kind::kMistake &&
                             req.stages == 0);
      if (evaluate) {
        L.simulate(it->second, reg.get(ref->workload),
                   hc::core::EvaluateOptions{}.matrices);
        L.synth(it->second);
      }
    } catch (const std::exception&) {
      // The service answers these with an error; the layer time until the
      // throw is what the request cost.
    }
  }
  L.ledger.stop();
}

}  // namespace

double svc_mix_setup() {
  return seconds_of([] {
    hc::svc::Server server(server_options(hc::svc::ServerOptions{}.recent_requests));
  });
}

Outcome run_svc_mix(const RunOptions& o) {
  Outcome out;
  const std::vector<DesignRef> designs = service_designs();
  const std::vector<std::string> names =
      hc::svc::Server(server_options(hc::svc::ServerOptions{}.recent_requests))
          .design_names();
  std::vector<std::string> mine;
  for (const DesignRef& d : designs) mine.push_back(d.name);
  if (names != mine)
    throw std::runtime_error(
        "the service's design list no longer matches the benchmark's mirror "
        "of it (script.cpp service_designs)");

  const std::vector<SvcRequest> full = svc_script(o.seed, kScriptLength, designs);
  // A long-running service serves from a warm cache: untraced runs measure
  // after one warm-up deck. The traced run attributes time from a cold
  // start, so its replay needs no compiled designs it did not see built.
  const Served served =
      o.traced ? drive(full, 0, kMinDecks, full.size())
               : drive(full, 1, measured_decks(o.seconds),
                       hc::svc::ServerOptions{}.recent_requests);
  const double peak_mb = peak_rss_mb();  // before the direct-compile check
  account(full, served.replies, served.first, designs, out);
  const auto cut = static_cast<std::ptrdiff_t>(served.first);
  const std::vector<SvcRequest> script(
      full.begin() + cut,
      full.begin() + static_cast<std::ptrdiff_t>(served.replies.size()));
  const std::vector<Reply> replies(served.replies.begin() + cut,
                                   served.replies.end());
  const LatencySplit lat = split(script, replies);

  char buf[260];
  std::snprintf(buf, sizeof buf,
                "svc_mix: %zu requests (after %zu warm-up) in %.2f s (%d "
                "clients, %d workers, queue %d): requests_per_s %.2f; "
                "failed_frac %.4f; %lld expected rejections; shed %lld",
                replies.size(), served.first, served.wall_s, kClients, kWorkers, kQueue,
                replies.size() / served.wall_s,
                static_cast<double>(out.failed) / out.attempted,
                static_cast<long long>(out.rejected),
                static_cast<long long>(served.shed));
  out.lines.push_back(buf);
  std::snprintf(buf, sizeof buf,
                "cache: hits %lld misses %lld evictions %lld over a %zu-key "
                "universe (capacity %zu entries)",
                static_cast<long long>(served.cache.hits),
                static_cast<long long>(served.cache.misses),
                static_cast<long long>(served.cache.evictions),
                svc_key_universe(designs),
                hc::svc::CacheConfig{}.max_entries);
  out.lines.push_back(buf);
  out.lines.push_back("latency (every answered request):");
  out.lines.push_back(pct_line("latency_p50_ms", lat.all, 0.5));
  out.lines.push_back(pct_line("latency_p99_ms", lat.all, 0.99));
  out.lines.push_back(pct_line("hit_p50_ms", lat.hit, 0.5));
  out.lines.push_back(pct_line("miss_p50_ms", lat.miss, 0.5));

  if (!o.traced) {
    out.metrics["ops_per_s"] = replies.size() / served.wall_s;
    out.metrics["latency_p50_ms"] = percentile(lat.all, 0.5);
    out.metrics["latency_tail_ms"] = percentile(lat.all, 0.99);
    out.metrics["peak_rss_mb"] = peak_mb;
    return out;
  }

  const double lookups =
      static_cast<double>(served.cache.hits + served.cache.misses);
  std::vector<double> queue_ms;
  for (const Reply& r : replies)
    if (auto it = served.queue_ms.find(r.trace_id); it != served.queue_ms.end())
      queue_ms.push_back(it->second);
  out.metrics["svc.queue_wait_p50_ms"] = median(queue_ms);
  out.metrics["svc.cache_hit_frac"] =
      lookups > 0 ? served.cache.hits / lookups : 0.0;
  out.metrics["svc.cache_evictions"] =
      static_cast<double>(served.cache.evictions);
  out.metrics["svc.hit_p50_ms"] = percentile(lat.hit, 0.5);
  out.metrics["svc.miss_p50_ms"] = percentile(lat.miss, 0.5);

  Layers L;
  replay(script, replies, designs, L);
  L.report(out, o.out_dir + "/spans-svc_mix.jsonl");
  double latency_ns = 0;
  for (const Reply& r : replies) latency_ns += static_cast<double>(r.latency_ns);
  const double layer_ns =
      static_cast<double>(L.ledger.wall_ns() - L.ledger.residual_ns());
  out.metrics["svc.residual_ms"] = (latency_ns - layer_ns) / replies.size() / 1e6;
  std::snprintf(buf, sizeof buf,
                "svc residual: request latency %.1f ms - replayed layer time "
                "%.1f ms over %zu requests = %.3f ms per request (negative "
                "when the serial replay ran slower than the served requests)",
                latency_ns / 1e6, layer_ns / 1e6, replies.size(),
                out.metrics["svc.residual_ms"]);
  out.lines.push_back(buf);
  return out;
}

}  // namespace perfbench
