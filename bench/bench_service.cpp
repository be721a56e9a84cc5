// Service-layer bench: throughput, latency percentiles, cache hit rate and
// shed rate of svc::Server under an open-loop request storm, at admission
// queue depths 1, 8 and 64.
//
// Each round submits `requests` compile/evaluate requests (drawn round-robin
// over the built-in design registry, so the cache sees a realistic mix of
// hits after the first lap) from `clients` submitter threads against a
// server with the given queue capacity. Each submitter keeps a bounded
// window of in-flight requests (8) and never backs off on shed — so a
// shallow queue is overcommitted and must shed, while a deep queue absorbs
// the same offered load; the bench reports what admission depth buys in
// shed rate and costs in p99 latency.
//
// Writes BENCH_service.json (cwd) through the obs::RunReport schema.
//
// Usage: bench_service [--jobs N] [--requests N] [--clients N]
//                      [--trace FILE] [--event-log FILE]
//   --jobs      worker threads per server round (default: all cores)
//   --requests  requests per round (default 400)
//   --clients   submitter threads (default 4)
//   --trace     record Chrome trace_event spans for the whole storm
//   --event-log append the structured event log to FILE as JSON lines
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "base/check.hpp"
#include "base/strings.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "par/pool.hpp"
#include "svc/server.hpp"

using hlshc::format_fixed;

namespace {

struct RoundResult {
  int queue_capacity = 0;
  int64_t submitted = 0;
  int64_t ok = 0;
  int64_t shed = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  double wall_sec = 0.0;
  int64_t p50_ns = 0;
  int64_t p99_ns = 0;
  double req_per_sec() const {
    return wall_sec > 0 ? static_cast<double>(ok) / wall_sec : 0.0;
  }
  double shed_rate() const {
    return submitted > 0 ? static_cast<double>(shed) / submitted : 0.0;
  }
  double hit_rate() const {
    const int64_t lookups = cache_hits + cache_misses;
    return lookups > 0 ? static_cast<double>(cache_hits) / lookups : 0.0;
  }
};

RoundResult run_round(int queue_capacity, int jobs, int requests,
                      int clients) {
  using namespace hlshc;
  obs::registry().reset();

  svc::ServerOptions options;
  options.workers = jobs;
  options.queue_capacity = queue_capacity;
  svc::Server server(options);

  // A mixed, cache-friendly request schedule: designs round-robin, mostly
  // compiles with an evaluate every 5th request — drawn from the designs
  // the service can evaluate (raw kernels have no AXI-Stream ports).
  const std::vector<std::string> designs = server.design_names();
  const std::vector<std::string> evaluable = server.evaluable_design_names();
  std::vector<std::string> lines;
  lines.reserve(static_cast<size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    const bool evaluate = i % 5 == 4;
    const std::vector<std::string>& pool = evaluate ? evaluable : designs;
    const std::string& design = pool[static_cast<size_t>(i) % pool.size()];
    lines.push_back(
        std::string("{\"id\":") + std::to_string(i) + ",\"method\":\"" +
        (evaluate ? "evaluate" : "compile") + "\",\"params\":{\"design\":\"" +
        design + "\"" + (evaluate ? ",\"matrices\":1" : "") + "}}");
  }

  // Windowed storm: each submitter keeps up to kWindow requests in flight,
  // draining the oldest future once the window fills. Response latency is
  // measured by the server itself (the svc.request_ns histogram runs
  // admission -> response).
  constexpr size_t kWindow = 8;
  std::atomic<int64_t> ok{0}, shed{0};
  const auto settle = [&](std::string response) {
    if (response.find("\"ok\":true") != std::string::npos)
      ++ok;
    else if (response.find("\"code\":\"overloaded\"") != std::string::npos)
      ++shed;
    else
      HLSHC_CHECK(false, "unexpected bench response: " << response);
  };
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> submitters;
  for (int c = 0; c < clients; ++c)
    submitters.emplace_back([&, c] {
      std::vector<std::future<std::string>> window;
      for (int i = c; i < requests; i += clients) {
        window.push_back(server.submit(lines[static_cast<size_t>(i)]));
        if (window.size() >= kWindow) {
          settle(window.front().get());
          window.erase(window.begin());
        }
      }
      for (auto& f : window) settle(f.get());
    });
  for (auto& t : submitters) t.join();

  RoundResult r;
  r.queue_capacity = queue_capacity;
  r.submitted = requests;
  r.ok = ok.load();
  r.shed = shed.load();
  r.wall_sec = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();

  const svc::DesignCache::Stats cache = server.cache_stats();
  r.cache_hits = cache.hits;
  r.cache_misses = cache.misses;
  obs::Histogram* lat = obs::registry().histogram("svc.request_ns");
  r.p50_ns = lat->percentile(0.5);
  r.p99_ns = lat->percentile(0.99);
  HLSHC_CHECK(r.shed == server.shed_count(),
              "shed responses (" << r.shed << ") disagree with the queue ("
                                 << server.shed_count() << ')');
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hlshc;
  int jobs = 0;  // 0 = all cores
  int requests = 400;
  int clients = 4;
  std::string trace_path;
  std::string event_log_path;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    try {
      if (std::strcmp(argv[i], "--jobs") == 0 && has_value)
        jobs = par::parse_jobs(argv[++i], "--jobs");
      else if (std::strcmp(argv[i], "--requests") == 0 && has_value)
        requests = std::atoi(argv[++i]);
      else if (std::strcmp(argv[i], "--clients") == 0 && has_value)
        clients = par::parse_jobs(argv[++i], "--clients");
      else if (std::strcmp(argv[i], "--trace") == 0 && has_value)
        trace_path = argv[++i];
      else if (std::strcmp(argv[i], "--event-log") == 0 && has_value)
        event_log_path = argv[++i];
      else {
        std::fprintf(stderr,
                     "usage: %s [--jobs N] [--requests N] [--clients N]"
                     " [--trace FILE] [--event-log FILE]\n",
                     argv[0]);
        return 1;
      }
    } catch (const Error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  }
  if (requests <= 0) {
    std::fprintf(stderr, "--requests must be positive\n");
    return 1;
  }
  if (jobs == 0) jobs = par::default_jobs();

  // The request-latency histogram only records when metrics are on.
  obs::set_enabled(true);
  if (!event_log_path.empty()) obs::event_log().open_sink(event_log_path);
  if (!trace_path.empty()) obs::tracer().start();

  std::printf(
      "=== Service under load: %d requests, %d submitters, %d workers ===\n\n",
      requests, clients, jobs);
  std::puts(
      "queue   req/s      ok    shed  shed%   hit%   p50(ms)   p99(ms)");

  obs::RunReport report("bench_service");
  report.params()
      .set("jobs", obs::Json::number(jobs))
      .set("requests", obs::Json::number(requests))
      .set("clients", obs::Json::number(clients));
  obs::Json rounds = obs::Json::array();

  for (const int queue_capacity : {1, 8, 64}) {
    const RoundResult r = run_round(queue_capacity, jobs, requests, clients);
    std::printf("%5d  %6s  %6lld  %6lld  %5s  %5s  %8s  %8s\n",
                r.queue_capacity, format_fixed(r.req_per_sec(), 0).c_str(),
                static_cast<long long>(r.ok),
                static_cast<long long>(r.shed),
                format_fixed(100.0 * r.shed_rate(), 1).c_str(),
                format_fixed(100.0 * r.hit_rate(), 1).c_str(),
                format_fixed(static_cast<double>(r.p50_ns) / 1e6, 2).c_str(),
                format_fixed(static_cast<double>(r.p99_ns) / 1e6, 2).c_str());

    obs::Json round = obs::Json::object();
    round.set("queue_capacity", obs::Json::number(r.queue_capacity))
        .set("submitted", obs::Json::number(r.submitted))
        .set("ok", obs::Json::number(r.ok))
        .set("shed", obs::Json::number(r.shed))
        .set("shed_rate", obs::Json::number(r.shed_rate()))
        .set("cache_hits", obs::Json::number(r.cache_hits))
        .set("cache_misses", obs::Json::number(r.cache_misses))
        .set("cache_hit_rate", obs::Json::number(r.hit_rate()))
        .set("wall_sec", obs::Json::number(r.wall_sec))
        .set("req_per_sec", obs::Json::number(r.req_per_sec()))
        .set("p50_ms",
             obs::Json::number(static_cast<double>(r.p50_ns) / 1e6))
        .set("p99_ms",
             obs::Json::number(static_cast<double>(r.p99_ns) / 1e6));
    rounds.push(std::move(round));
  }

  report.results().set("rounds", std::move(rounds));
  report.write_file("BENCH_service.json");
  std::puts("\n(run report in ./BENCH_service.json)");

  if (!trace_path.empty()) {
    obs::tracer().stop();
    obs::tracer().write_file(trace_path);
    std::printf("wrote %s (%zu trace events)\n", trace_path.c_str(),
                obs::tracer().event_count());
  }
  if (!event_log_path.empty()) obs::event_log().close_sink();
  return 0;
}
