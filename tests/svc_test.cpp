// Service-layer tests: the admission queue, deadline tokens, the compiled-
// design cache, the wire protocol, shedding under overload — and the headline
// resilience property: a hundred hostile requests cannot degrade the daemon,
// and the compile it serves afterwards is bitwise identical to a direct
// tools::compile call.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/deadline.hpp"
#include "netlist/dump.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/queue.hpp"
#include "rtl/designs.hpp"
#include "svc/cache.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "tools/compile.hpp"
#include "workload/workload.hpp"

namespace hlshc::svc {
namespace {

using obs::Json;

// ---------------------------------------------------------------- Deadline

TEST(Deadline, ExpiresAndThrowsWithContext) {
  auto generous = Deadline::shared_after_ms(60000);
  EXPECT_FALSE(generous->expired());
  EXPECT_NO_THROW(generous->check("plenty of budget"));
  EXPECT_GT(generous->remaining_ms(), 0);

  auto expired = Deadline::shared_after_ms(-1);  // legal: already past
  EXPECT_TRUE(expired->expired());
  EXPECT_LE(expired->remaining_ms(), 0);
  try {
    expired->check("compiling the test design");
    FAIL() << "expired deadline did not throw";
  } catch (const DeadlineExceeded& e) {
    EXPECT_NE(std::string(e.what()).find("compiling the test design"),
              std::string::npos);
    EXPECT_EQ(e.budget_ms(), -1);
  }
}

TEST(Deadline, ExpiredTokenAbortsTheCompilePipeline) {
  tools::CompileOptions options;
  options.deadline = Deadline::shared_after_ms(-1);
  EXPECT_THROW(tools::compile(rtl::build_verilog_initial(), options),
               DeadlineExceeded);
}

// --------------------------------------------------------------- TaskQueue

TEST(TaskQueue, BoundsBacklogAndCountsShedding) {
  par::TaskQueue queue(1, 2);
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> ran{0};
  const auto blocked_task = [&] {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return gate_open; });
    ++ran;
  };

  // One task occupies the worker; the next two fill the backlog; the
  // fourth must be shed without blocking.
  ASSERT_TRUE(queue.try_submit(blocked_task));
  while (queue.depth() > 0)  // wait for the worker to start it
    std::this_thread::yield();
  ASSERT_TRUE(queue.try_submit(blocked_task));
  ASSERT_TRUE(queue.try_submit(blocked_task));
  EXPECT_EQ(queue.depth(), 2);
  EXPECT_FALSE(queue.try_submit(blocked_task));
  EXPECT_EQ(queue.accepted(), 3);
  EXPECT_EQ(queue.shed(), 1);

  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  queue.drain();
  EXPECT_EQ(ran.load(), 3);
  EXPECT_EQ(queue.depth(), 0);

  // Capacity frees up once drained.
  EXPECT_TRUE(queue.try_submit([] {}));
  queue.drain();
}

TEST(TaskQueue, ParallelWorkersAllExecute) {
  par::TaskQueue queue(4, 64);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i)
    ASSERT_TRUE(queue.try_submit([&] { ++ran; }));
  queue.drain();
  EXPECT_EQ(ran.load(), 64);
  EXPECT_EQ(queue.accepted(), 64);
  EXPECT_EQ(queue.shed(), 0);
}

// ---------------------------------------------------------------- Protocol

TEST(Protocol, ParsesFullRequest) {
  const Request req = parse_request(
      R"({"id": 7, "method": "compile", "params": {"design": "x"}, )"
      R"("deadline_ms": 250})",
      1 << 16);
  EXPECT_EQ(req.id.as_int(), 7);
  EXPECT_EQ(req.method, "compile");
  EXPECT_EQ(req.params.find("design")->as_string(), "x");
  EXPECT_EQ(req.deadline_ms, 250);
}

TEST(Protocol, RejectsEachMalformationWithTheRightCode) {
  const auto code_of = [](const std::string& line, size_t max_bytes) {
    try {
      parse_request(line, max_bytes);
      return std::string("no error");
    } catch (const ProtocolError& e) {
      return std::string(error_code_name(e.code()));
    }
  };
  EXPECT_EQ(code_of("not json at all", 1 << 16), "invalid_request");
  EXPECT_EQ(code_of("[1,2,3]", 1 << 16), "invalid_request");
  EXPECT_EQ(code_of(R"({"params": {}})", 1 << 16), "invalid_request");
  EXPECT_EQ(code_of(R"({"method": 42})", 1 << 16), "invalid_request");
  EXPECT_EQ(code_of(R"({"method": "m", "params": []})", 1 << 16),
            "invalid_request");
  EXPECT_EQ(code_of(R"({"method": "m", "deadline_ms": -5})", 1 << 16),
            "invalid_request");
  EXPECT_EQ(code_of(R"({"method": "m", "deadline_ms": 0})", 1 << 16),
            "invalid_request");
  EXPECT_EQ(code_of(R"({"method": "m", "deadline_ms": 2.5})", 1 << 16),
            "invalid_request");
  EXPECT_EQ(code_of(R"({"method": "m", "deadline_ms": 1e300})", 1 << 16),
            "invalid_request");
  EXPECT_EQ(code_of(std::string(100, ' '), 64), "oversized_request");
}

TEST(Protocol, ExactIntAcceptsOnlyIntegralInt64Numbers) {
  EXPECT_EQ(exact_int(Json::parse("7")), 7);
  EXPECT_EQ(exact_int(Json::parse("-3")), -3);
  EXPECT_EQ(exact_int(Json::parse("2.0")), 2);  // integral value
  EXPECT_EQ(exact_int(Json::parse("-9223372036854775808")), INT64_MIN);
  EXPECT_FALSE(exact_int(Json::parse("2.5")));
  EXPECT_FALSE(exact_int(Json::parse("1e300")));
  EXPECT_FALSE(exact_int(Json::parse("-1e300")));
  EXPECT_FALSE(exact_int(Json::parse("9.3e18")));
  EXPECT_FALSE(exact_int(Json::parse("\"7\"")));
  EXPECT_FALSE(exact_int(Json::parse("true")));
}

// ------------------------------------------------------------ DesignCache

TEST(DesignCache, HitsOnContentNotOnName) {
  DesignCache cache;
  tools::CompileOptions options;
  const CachedCompile first =
      cache.get_or_compile(rtl::build_verilog_initial(), options);
  EXPECT_FALSE(first.hit);
  // A fresh, identical build of the same source: same content, so a hit.
  const CachedCompile second =
      cache.get_or_compile(rtl::build_verilog_initial(), options);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(first.key, second.key);
  EXPECT_EQ(first.result_hash, second.result_hash);
  EXPECT_EQ(first.design.get(), second.design.get());  // shared entry

  // Different options: different key, a miss.
  tools::CompileOptions raw;
  raw.optimize = false;
  EXPECT_FALSE(
      cache.get_or_compile(rtl::build_verilog_initial(), raw).hit);

  const DesignCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(DesignCache, EvictsLeastRecentlyUsedUnderEntryBudget) {
  CacheConfig config;
  config.max_entries = 2;
  DesignCache cache(config);
  tools::CompileOptions options;
  cache.get_or_compile(rtl::build_verilog_initial(), options);
  cache.get_or_compile(rtl::build_verilog_opt1(), options);
  cache.get_or_compile(rtl::build_verilog_initial(), options);  // touch LRU
  cache.get_or_compile(rtl::build_verilog_opt2(), options);     // evicts opt1

  DesignCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_TRUE(
      cache.get_or_compile(rtl::build_verilog_initial(), options).hit);
  EXPECT_FALSE(  // opt1 was the LRU victim
      cache.get_or_compile(rtl::build_verilog_opt1(), options).hit);
}

TEST(DesignCache, ByteBudgetEvictsButKeepsTheNewestEntry) {
  CacheConfig config;
  config.max_bytes = 1;  // everything is over budget
  DesignCache cache(config);
  tools::CompileOptions options;
  cache.get_or_compile(rtl::build_verilog_initial(), options);
  EXPECT_EQ(cache.stats().entries, 1u);  // sole entry never self-evicts
  cache.get_or_compile(rtl::build_verilog_opt1(), options);
  const DesignCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 1);
}

TEST(DesignCache, KeysOnEveryCompileOption) {
  // Each option that can change the compiled design (or, for verify, how
  // far it was checked) forks the key; the deadline does not.
  const netlist::Design design = rtl::build_verilog_initial();
  const tools::CompileOptions base;
  const std::string key = DesignCache::fingerprint(design, base);
  std::vector<tools::CompileOptions> variants(7, base);
  variants[0].optimize = false;
  variants[1].strength_reduce = true;
  variants[2].narrow = false;
  variants[3].verify = true;
  variants[4].verify_cycles = 7;
  variants[5].verify_seed = 1;
  variants[6].max_iterations = 3;
  for (const tools::CompileOptions& v : variants)
    EXPECT_NE(DesignCache::fingerprint(design, v), key)
        << tools::canonical_options(v);
  tools::CompileOptions timed = base;
  timed.deadline = Deadline::shared_after_ms(1000);
  EXPECT_EQ(DesignCache::fingerprint(design, timed), key);
}

TEST(LruMap, EvictsLeastRecentlyUsedAndKeepsTheFirstInsert) {
  LruMap<int> lru;
  EXPECT_TRUE(lru.insert("a", 1));
  EXPECT_TRUE(lru.insert("b", 2));
  EXPECT_FALSE(lru.insert("a", 9));  // the earlier entry wins
  EXPECT_EQ(*lru.find("a"), 1);      // and is now most recently used
  EXPECT_EQ(lru.oldest(), 2);
  lru.pop_oldest();
  EXPECT_EQ(lru.find("b"), nullptr);
  EXPECT_EQ(lru.size(), 1u);
  for (int i = 0; i < 100; ++i) lru.insert(std::to_string(i), i);
  EXPECT_EQ(lru.oldest(), 1);  // "a", untouched since
  EXPECT_EQ(*lru.find("42"), 42);
}

// ------------------------------------------------------------------ Server

ServerOptions small_server(int workers = 1, int queue = 8) {
  ServerOptions options;
  options.workers = workers;
  options.queue_capacity = queue;
  return options;
}

Json call_ok(Server& server, const std::string& line) {
  const Json response = Json::parse(server.handle(line));
  EXPECT_TRUE(response.find("ok")->as_bool())
      << "request failed: " << response.dump();
  return *response.find("result");
}

std::string error_code_of(Server& server, const std::string& line) {
  const Json response = Json::parse(server.handle(line));
  EXPECT_FALSE(response.find("ok")->as_bool())
      << "request unexpectedly succeeded: " << response.dump();
  return response.find("error")->find("code")->as_string();
}

TEST(Server, AnswersPingAndListsBuiltinDesigns) {
  Server server(small_server());
  EXPECT_TRUE(call_ok(server, R"({"method":"ping"})").find("pong")->as_bool());
  const Json result = call_ok(server, R"({"method":"list_designs"})");
  bool found = false;
  const Json& designs = *result.find("designs");
  for (size_t i = 0; i < designs.size(); ++i)
    if (designs[i].as_string() == "verilog_opt2") found = true;
  EXPECT_TRUE(found);
}

TEST(Server, ListDesignsIsSortedStableAndSpansTheRegistry) {
  Server server(small_server());
  const Json first = call_ok(server, R"({"method":"list_designs"})");
  const Json& designs = *first.find("designs");
  std::vector<std::string> names;
  for (size_t i = 0; i < designs.size(); ++i)
    names.push_back(designs[i].as_string());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  // Qualified registry names and the historical bare names coexist.
  for (const char* expected :
       {"idct.verilog_initial", "idct.bambu", "fdct.rtl_comb",
        "fir16.chisel_comb", "matmul.xls_p2", "verilog_opt2",
        "chisel_initial"})
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing design '" << expected << '\'';
  // Slow builders stay out of the long-running service.
  EXPECT_EQ(std::find(names.begin(), names.end(), "idct.vhls_pushbutton"),
            names.end());

  const Json& workloads = *first.find("workloads");
  std::vector<std::string> wnames;
  for (size_t i = 0; i < workloads.size(); ++i)
    wnames.push_back(workloads[i].as_string());
  EXPECT_EQ(wnames, workload::Registry::instance().names());

  // Stable: a second call returns byte-identical lists.
  const Json second = call_ok(server, R"({"method":"list_designs"})");
  EXPECT_EQ(first.dump(), second.dump());
}

TEST(Server, EvaluatesEveryEvaluableDesignAndRejectsRawKernels) {
  Server server(small_server());
  const Json listed = call_ok(server, R"({"method":"list_designs"})");
  const Json& evaluable = *listed.find("evaluable");
  std::vector<std::string> names;
  for (size_t i = 0; i < evaluable.size(); ++i)
    names.push_back(evaluable[i].as_string());
  EXPECT_EQ(names, server.evaluable_design_names());
  // Every listed design evaluates: the list is exactly what the service
  // can drive.
  for (const std::string& name : names) {
    const Json result = call_ok(
        server, R"({"method":"evaluate","params":{"design":")" + name +
                    R"(","matrices":1}})");
    EXPECT_TRUE(result.find("functional")->as_bool()) << name;
  }
  // The raw kernels compile but have no AXI-Stream ports: evaluating them
  // is the caller's mistake, never an internal error.
  for (const char* kernel : {"idct.rtl_kernel", "idct.chisel_kernel"}) {
    EXPECT_EQ(std::find(names.begin(), names.end(), kernel), names.end());
    for (const char* method : {"evaluate", "campaign"})
      EXPECT_EQ(error_code_of(server, std::string(R"({"method":")") + method +
                                          R"(","params":{"design":")" +
                                          kernel + R"("}})"),
                "invalid_request")
          << method << ' ' << kernel;
  }
}

TEST(Server, UnknownWorkloadIsInvalidRequestOnEveryMethod) {
  Server server(small_server());
  for (const char* method : {"compile", "evaluate", "campaign"}) {
    const std::string line = std::string(R"({"method":")") + method +
                             R"(","params":{"design":"verilog_initial",)"
                             R"("workload":"warp_core"}})";
    EXPECT_EQ(error_code_of(server, line), "invalid_request") << method;
  }
  EXPECT_EQ(error_code_of(server,
                          R"({"method":"compile","params":)"
                          R"({"design":"verilog_initial","workload":42}})"),
            "invalid_request");
}

TEST(Server, QualifiedDesignNameSelectsItsWorkload) {
  Server server(small_server());
  const Json inferred = call_ok(
      server,
      R"({"method":"compile","params":{"design":"fir16.rtl_comb"}})");
  EXPECT_EQ(inferred.find("workload")->as_string(), "fir16");
  // An explicit params.workload wins over the name prefix; bare legacy
  // names default to the paper's benchmark.
  const Json explicit_wl = call_ok(
      server, R"({"method":"compile","params":)"
              R"({"design":"fir16.rtl_comb","workload":"fir16"}})");
  EXPECT_EQ(explicit_wl.find("workload")->as_string(), "fir16");
  const Json legacy = call_ok(
      server,
      R"({"method":"compile","params":{"design":"verilog_initial"}})");
  EXPECT_EQ(legacy.find("workload")->as_string(), "idct");
}

TEST(Server, EvaluatesARegistryWorkloadEndToEnd) {
  Server server(small_server());
  const Json result = call_ok(
      server, R"({"method":"evaluate","params":)"
              R"({"design":"matmul.rtl_comb","matrices":2}})");
  EXPECT_EQ(result.find("workload")->as_string(), "matmul");
  EXPECT_TRUE(result.find("functional")->as_bool());
  EXPECT_GT(result.find("throughput_mops")->as_number(), 0.0);
  EXPECT_GT(result.find("area")->as_int(), 0);
}

TEST(Server, MapsEachFailureClassToItsCode) {
  Server server(small_server());
  EXPECT_EQ(error_code_of(server, "{{{nope"), "invalid_request");
  EXPECT_EQ(error_code_of(server, R"({"method":"frobnicate"})"),
            "unknown_method");
  EXPECT_EQ(error_code_of(
                server,
                R"({"method":"compile","params":{"design":"no_such"}})"),
            "invalid_request");
  EXPECT_EQ(error_code_of(
                server, R"({"method":"compile","params":{"design":42}})"),
            "invalid_request");
  const std::string oversized = R"({"method":"ping","params":{"pad":")" +
                                std::string(1 << 17, 'x') + "\"}}";
  EXPECT_EQ(error_code_of(server, oversized), "oversized_request");
}

TEST(Server, ThrowingDesignBuilderBecomesInternalErrorAndServerSurvives) {
  Server server(small_server());
  server.register_design("bomb", []() -> netlist::Design {
    throw std::runtime_error("builder exploded");
  });
  const Json response = Json::parse(
      server.handle(R"({"id":9,"method":"compile","params":{"design":"bomb"}})"));
  EXPECT_FALSE(response.find("ok")->as_bool());
  EXPECT_EQ(response.find("error")->find("code")->as_string(),
            "internal_error");
  EXPECT_NE(response.find("error")->find("message")->as_string().find(
                "builder exploded"),
            std::string::npos);
  EXPECT_EQ(response.find("id")->as_int(), 9);
  // The daemon is unharmed.
  EXPECT_TRUE(call_ok(server, R"({"method":"ping"})").find("pong")->as_bool());
}

TEST(Server, DeadlineExpiresMidRequest) {
  Server server(small_server());
  server.register_design("slow", [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    return rtl::build_verilog_initial();
  });
  EXPECT_EQ(
      error_code_of(
          server,
          R"({"method":"compile","params":{"design":"slow"},"deadline_ms":20})"),
      "deadline_exceeded");
  // Without the deadline the same request succeeds.
  const Json ok = call_ok(
      server, R"({"method":"compile","params":{"design":"slow"}})");
  EXPECT_GT(ok.find("node_count")->as_int(), 0);
}

TEST(Server, CompileIsCachedAcrossRequests) {
  Server server(small_server());
  const std::string line =
      R"({"method":"compile","params":{"design":"verilog_opt2"}})";
  const Json first = call_ok(server, line);
  EXPECT_FALSE(first.find("cached")->as_bool());
  const Json second = call_ok(server, line);
  EXPECT_TRUE(second.find("cached")->as_bool());
  EXPECT_EQ(first.find("content_hash")->as_string(),
            second.find("content_hash")->as_string());
  EXPECT_EQ(server.cache_stats().hits, 1);
}

TEST(Server, CacheEvictionUnderTinyBudget) {
  ServerOptions options = small_server();
  options.cache.max_entries = 1;
  Server server(options);
  call_ok(server, R"({"method":"compile","params":{"design":"verilog_initial"}})");
  call_ok(server, R"({"method":"compile","params":{"design":"verilog_opt1"}})");
  const DesignCache::Stats stats = server.cache_stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GE(stats.evictions, 1);
  const Json result = call_ok(server, R"({"method":"stats"})");
  EXPECT_EQ(result.find("cache")->find("entries")->as_int(), 1);
}

TEST(Server, ShedsWhenTheQueueIsFullAndRecovers) {
  ServerOptions options = small_server(/*workers=*/1, /*queue=*/1);
  Server server(options);
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  server.register_design("gated", [&] {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return gate_open; });
    return rtl::build_verilog_initial();
  });

  // Burst: one executing, one queued, the rest shed immediately.
  const std::string line =
      R"({"method":"compile","params":{"design":"gated"}})";
  std::vector<std::future<std::string>> futures;
  for (int i = 0; i < 10; ++i) futures.push_back(server.submit(line));
  while (server.queue_depth() > 0 && server.shed_count() == 0)
    std::this_thread::yield();

  int shed = 0;
  std::vector<Json> responses;
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  for (auto& f : futures) responses.push_back(Json::parse(f.get()));
  for (const Json& r : responses) {
    if (r.find("ok")->as_bool()) continue;
    EXPECT_EQ(r.find("error")->find("code")->as_string(), "overloaded");
    EXPECT_GT(r.find("error")->find("retry_after_ms")->as_int(), 0);
    ++shed;
  }
  EXPECT_GE(shed, 7);  // 10 submitted, at most ~3 in flight at once
  EXPECT_EQ(server.shed_count(), shed);

  // Recovery: the daemon serves normally once the burst is over.
  EXPECT_TRUE(call_ok(server, R"({"method":"ping"})").find("pong")->as_bool());
}

// A service storm at unit-test size: two submitters each keep
// a window of 8 requests in flight against a deep queue, round-robin over
// four designs with an evaluate every 5th request. Every request is
// answered ok or shed, a queue deeper than the offered load sheds nothing,
// and the round-robin mix hits the compile cache on at least half its
// lookups.
TEST(Server, RoundRobinStormOnADeepQueueShedsNothingAndHitsTheCache) {
  Server server(small_server(/*workers=*/2, /*queue=*/64));
  const std::vector<std::string> designs = {"verilog_initial", "verilog_opt1",
                                            "verilog_opt2", "chisel_opt"};
  constexpr int kRequests = 48;
  constexpr int kClients = 2;
  constexpr size_t kWindow = 8;
  std::atomic<int> ok{0}, shed{0};
  const auto settle = [&](const std::string& line) {
    const Json response = Json::parse(line);
    if (response.find("ok")->as_bool())
      ++ok;
    else if (response.find("error")->find("code")->as_string() == "overloaded")
      ++shed;
    else
      ADD_FAILURE() << "unexpected response: " << line;
  };
  std::vector<std::thread> submitters;
  for (int c = 0; c < kClients; ++c)
    submitters.emplace_back([&, c] {
      std::vector<std::future<std::string>> window;
      for (int i = c; i < kRequests; i += kClients) {
        const bool evaluate = i % 5 == 4;
        window.push_back(server.submit(
            std::string(R"({"method":")") +
            (evaluate ? "evaluate" : "compile") + R"(","params":{"design":")" +
            designs[static_cast<size_t>(i) % designs.size()] + "\"" +
            (evaluate ? R"(,"matrices":1)" : "") + "}}"));
        if (window.size() >= kWindow) {
          settle(window.front().get());
          window.erase(window.begin());
        }
      }
      for (auto& f : window) settle(f.get());
    });
  for (std::thread& t : submitters) t.join();

  EXPECT_EQ(ok + shed, kRequests);
  EXPECT_EQ(shed.load(), 0);
  EXPECT_EQ(server.shed_count(), 0);
  const DesignCache::Stats cache = server.cache_stats();
  ASSERT_GT(cache.hits + cache.misses, 0);
  EXPECT_GE(static_cast<double>(cache.hits) / (cache.hits + cache.misses), 0.5)
      << cache.hits << " hits, " << cache.misses << " misses";
}

// The headline property: 100 hostile requests in a row cannot degrade the
// daemon, and the compile served afterwards is bitwise identical to calling
// tools::compile directly.
TEST(Server, SurvivesPoisonRequestsAndStaysBitwiseCorrect) {
  Server server(small_server());
  server.register_design("bomb", []() -> netlist::Design {
    throw std::runtime_error("builder exploded");
  });

  // Each hostile request and the code it must get: only the throwing
  // builder is our bug.
  const std::vector<std::pair<std::string, std::string>> poison = {
      {"", "invalid_request"},       // empty: invalid JSON
      {"{", "invalid_request"},      // truncated
      {"null", "invalid_request"},   // non-object root
      {R"({"method": 3})", "invalid_request"},  // ill-typed method
      {R"({"method":"no_such_method"})", "unknown_method"},
      {R"({"method":"compile"})", "invalid_request"},  // no params.design
      {R"({"method":"compile","params":{"design":"no_such"}})",
       "invalid_request"},
      {R"({"method":"compile","params":{"design":"bomb"}})",
       "internal_error"},  // throws
      {R"({"method":"compile","params":{"design":"verilog_opt2",)"
       R"("optimize":"yes"}})",
       "invalid_request"},  // ill-typed option
      {R"({"method":"evaluate","params":{"design":"verilog_opt2",)"
       R"("matrices":-3}})",
       "invalid_request"},  // out-of-range option
      {R"({"method":"campaign","params":{"design":"verilog_opt2",)"
       R"("kind":"gamma_ray"}})",
       "invalid_request"},  // unknown fault kind
      {R"({"method":"dse","params":{"flow":"no_such_flow"}})",
       "invalid_request"},
      {R"({"method":"ping","deadline_ms":-1})", "invalid_request"},
      {R"({"method":"ping","params":[1,2]})", "invalid_request"},
      {std::string(1 << 17, 'x'), "oversized_request"},
      // Non-integral and out-of-int64 numbers are rejected, never
      // truncated or cast.
      {R"({"method":"compile","params":{"design":"idct.rtl_kernel",)"
       R"("stages":2.5}})",
       "invalid_request"},
      {R"({"method":"ping","deadline_ms":2.5})", "invalid_request"},
      {R"({"method":"compile","params":{"design":"idct.rtl_kernel",)"
       R"("stages":1e300}})",
       "invalid_request"},
      // The client's own cycle bound is too small: its mistake.
      {R"({"method":"evaluate","params":{"design":"idct.bambu",)"
       R"("max_cycles":1}})",
       "invalid_request"},
  };
  int failures = 0;
  for (int i = 0; i < 100; ++i) {
    const auto& [line, code] = poison[static_cast<size_t>(i) % poison.size()];
    const Json response = Json::parse(server.handle(line));
    EXPECT_FALSE(response.find("ok")->as_bool()) << response.dump();
    if (const Json* error = response.find("error")) {
      EXPECT_EQ(error->find("code")->as_string(), code) << response.dump();
    }
    ++failures;
  }
  EXPECT_EQ(failures, 100);

  // The daemon still compiles, and the result is the direct pipeline's,
  // byte for byte.
  const Json result = call_ok(
      server,
      R"({"method":"compile","params":{"design":"verilog_opt2",)"
      R"("emit_netlist":true}})");
  const tools::CompiledDesign direct =
      tools::compile(rtl::build_verilog_opt2());
  const std::string direct_dump = netlist::dump_text(direct.design);
  EXPECT_EQ(result.find("netlist")->as_string(), direct_dump);
  EXPECT_EQ(result.find("content_hash")->as_string(),
            content_hash(direct_dump));

  // Health metrics survived the storm and are visible.
  const Json stats = call_ok(server, R"({"method":"stats"})");
  EXPECT_GE(stats.find("queue")->find("accepted")->as_int(), 1);
  // Two compiles ran: idct.bambu, for the max_cycles poison's evaluation,
  // and the clean verilog_opt2 request. Every other poison was rejected
  // before any compile.
  EXPECT_EQ(stats.find("cache")->find("misses")->as_int(), 2);
}

TEST(Server, EvaluateAndCampaignShareTheCompileCache) {
  Server server(small_server());
  const Json eval = call_ok(
      server,
      R"({"method":"evaluate","params":{"design":"verilog_opt2",)"
      R"("matrices":2}})");
  EXPECT_TRUE(eval.find("functional")->as_bool());
  EXPECT_GT(eval.find("throughput_mops")->as_int(), 0);
  const Json campaign = call_ok(
      server,
      R"({"method":"campaign","params":{"design":"verilog_opt2",)"
      R"("sites":4,"seed":7}})");
  EXPECT_TRUE(campaign.find("cached")->as_bool());  // evaluate warmed it
  EXPECT_EQ(campaign.find("sites")->as_int(), 4);
  EXPECT_TRUE(campaign.find("reference_functional")->as_bool());
}

TEST(Server, NarrowSettingsAreDistinctCompiles) {
  Server server(small_server());
  for (const bool narrow : {true, false}) {
    const Json result = call_ok(
        server, std::string(R"({"method":"compile","params":{)"
                            R"("design":"verilog_opt2","narrow":)") +
                    (narrow ? "true" : "false") + "}}");
    tools::CompileOptions options;
    options.narrow = narrow;
    const std::string direct = content_hash(netlist::dump_text(
        tools::compile(rtl::build_verilog_opt2(), options).design));
    EXPECT_EQ(result.find("content_hash")->as_string(), direct)
        << "narrow=" << narrow;
    EXPECT_FALSE(result.find("cached")->as_bool()) << "narrow=" << narrow;
  }
  EXPECT_EQ(server.cache_stats().misses, 2);
  EXPECT_EQ(server.cache_stats().entries, 2u);
}

TEST(Server, ReregisteringADesignChangesTheAnswer) {
  // The "builder change changes the key" check: the same name, a new
  // builder, a new answer — never the old builder's memoized compile.
  Server server(small_server());
  server.register_design("mine", rtl::build_verilog_initial);
  const std::string line =
      R"({"method":"compile","params":{"design":"mine"}})";
  const Json before = call_ok(server, line);
  EXPECT_TRUE(call_ok(server, line).find("cached")->as_bool());
  server.register_design("mine", rtl::build_verilog_opt2);
  const Json after = call_ok(server, line);
  EXPECT_FALSE(after.find("cached")->as_bool());
  EXPECT_NE(after.find("content_hash")->as_string(),
            before.find("content_hash")->as_string());
  EXPECT_EQ(after.find("content_hash")->as_string(),
            content_hash(netlist::dump_text(
                tools::compile(rtl::build_verilog_opt2()).design)));
  // Re-registering the first builder is a new generation too, but its
  // compile is still in the content tier.
  server.register_design("mine", rtl::build_verilog_initial);
  const Json again = call_ok(server, line);
  EXPECT_TRUE(again.find("cached")->as_bool());
  EXPECT_EQ(again.find("content_hash")->as_string(),
            before.find("content_hash")->as_string());
}

TEST(Server, RepeatedEvaluateIsCachedAndIdentical) {
  Server server(small_server());
  const std::string line =
      R"({"method":"evaluate","params":{"design":"verilog_opt1",)"
      R"("matrices":2}})";
  const Json first = call_ok(server, line);
  const Json second = call_ok(server, line);
  EXPECT_TRUE(second.find("cached")->as_bool());
  ASSERT_EQ(first.size(), second.size());
  for (const auto& [key, value] : first.items())
    if (key != "cached") {
      EXPECT_EQ(second.find(key)->dump(), value.dump()) << key;
    }
  const DesignCache::Stats stats = server.cache_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.evaluation.hits, 1);
  EXPECT_EQ(stats.evaluation.entries, 1u);
  // Another matrices count is another measurement, of the same compile.
  const Json other = call_ok(
      server, R"({"method":"evaluate","params":{"design":"verilog_opt1",)"
              R"("matrices":3}})");
  EXPECT_TRUE(other.find("cached")->as_bool());
  EXPECT_EQ(server.cache_stats().evaluation.entries, 2u);
  EXPECT_EQ(server.cache_stats().request.hits, 1);
}

TEST(Server, VerifiedCompileIsNeverAnsweredFromAnUnverifiedOne) {
  Server server(small_server());
  const Json plain = call_ok(
      server, R"({"method":"compile","params":{"design":"verilog_opt1"}})");
  const std::string verified_line =
      R"({"method":"compile","params":{"design":"verilog_opt1",)"
      R"("verify":true}})";
  const Json verified = call_ok(server, verified_line);
  EXPECT_FALSE(verified.find("cached")->as_bool());  // the verifier ran
  EXPECT_NE(verified.find("key")->as_string(), plain.find("key")->as_string());
  // Verification checks the passes; it never changes their output.
  EXPECT_EQ(verified.find("content_hash")->as_string(),
            plain.find("content_hash")->as_string());
  EXPECT_TRUE(call_ok(server, verified_line).find("cached")->as_bool());
  EXPECT_EQ(server.cache_stats().misses, 2);
}

TEST(Server, MemoTiersReportInStatsAndGauges) {
  obs::set_enabled(true);
  Server server(small_server());
  const std::string line =
      R"({"method":"compile","params":{"design":"verilog_opt1"}})";
  call_ok(server, line);
  call_ok(server, line);
  const Json stats = call_ok(server, R"({"method":"stats"})");
  const Json& cache = *stats.find("cache");
  EXPECT_EQ(cache.find("hits")->as_int(), 1);
  EXPECT_EQ(cache.find("request")->find("entries")->as_int(), 1);
  EXPECT_EQ(cache.find("request")->find("hits")->as_int(), 1);
  EXPECT_EQ(cache.find("evaluation")->find("entries")->as_int(), 0);
  EXPECT_EQ(obs::registry().gauge("svc.cache.request.hits")->value(), 1.0);
  EXPECT_EQ(obs::registry().gauge("svc.cache.request.entries")->value(), 1.0);
  obs::set_enabled(false);
  obs::registry().reset();
}

TEST(Server, RequestTierIsBoundedByItsEntryConstant) {
  Server server(small_server());
  const auto adder = [] {
    netlist::Design d("adder");
    d.output("s", d.add(d.input("a", 8), d.input("b", 8), 9));
    return d;
  };
  // Every name is its own request key; all share one content entry.
  const int names = static_cast<int>(DesignCache::kMemoEntries) + 8;
  for (int i = 0; i < names; ++i) {
    const std::string name = "adder" + std::to_string(i);
    server.register_design(name, adder, false);
    call_ok(server, R"({"method":"compile","params":{"design":")" + name +
                        "\"}}");
  }
  const DesignCache::Stats stats = server.cache_stats();
  EXPECT_EQ(stats.request.entries, DesignCache::kMemoEntries);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.misses, 1);
  // The oldest names were evicted and rebuild; the newest still hit.
  EXPECT_TRUE(call_ok(server, R"({"method":"compile","params":{"design":")"
                                  "adder" + std::to_string(names - 1) + "\"}}")
                  .find("cached")
                  ->as_bool());
  EXPECT_EQ(server.cache_stats().request.hits, 1);
  call_ok(server, R"({"method":"compile","params":{"design":"adder0"}})");
  EXPECT_EQ(server.cache_stats().request.hits, 1);
}

// Two submitters race identical compile and evaluate requests through two
// workers (the tsan job runs this): every answer is ok and all identical
// requests agree.
TEST(Server, IdenticalRequestsRaceToOneAnswer) {
  Server server(small_server(/*workers=*/2, /*queue=*/64));
  const std::string compile =
      R"({"method":"compile","params":{"design":"verilog_opt2"}})";
  const std::string evaluate =
      R"({"method":"evaluate","params":{"design":"verilog_opt2",)"
      R"("matrices":1}})";
  constexpr int kPerSubmitter = 8;
  std::vector<std::string> answers[2];
  std::vector<std::thread> submitters;
  for (int c = 0; c < 2; ++c)
    submitters.emplace_back([&, c] {
      std::vector<std::future<std::string>> futures;
      for (int i = 0; i < kPerSubmitter; ++i)
        futures.push_back(server.submit(i % 2 ? evaluate : compile));
      for (auto& f : futures) answers[c].push_back(f.get());
    });
  for (std::thread& t : submitters) t.join();

  std::string hash, quality;
  for (const auto& mine : answers)
    for (size_t i = 0; i < mine.size(); ++i) {
      const Json response = Json::parse(mine[i]);
      ASSERT_TRUE(response.find("ok")->as_bool()) << mine[i];
      const Json& result = *response.find("result");
      std::string& want = i % 2 ? quality : hash;
      const std::string got =
          i % 2 ? result.find("quality")->dump()
                : result.find("content_hash")->as_string();
      if (want.empty()) want = got;
      EXPECT_EQ(got, want);
    }
  const DesignCache::Stats stats = server.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, 2 * kPerSubmitter);
  EXPECT_EQ(stats.entries, 1u);
}

// Two submitters bursting compiles of a slow design at a tiny server: every
// reply is ok or a shed `overloaded` with its retry_after_ms hint, the
// server never wedges, and it answers cleanly afterwards.
TEST(Server, TwoClientOverloadSoakEndsHealthy) {
  ServerOptions options = small_server(/*workers=*/2, /*queue=*/2);
  Server server(options);
  server.register_design("slowish", [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return rtl::build_verilog_initial();
  });

  std::atomic<int> succeeded{0}, overloaded{0};
  const auto soak = [&] {
    for (int round = 0; round < 3; ++round) {
      std::vector<std::future<std::string>> burst;
      for (int i = 0; i < 4; ++i)
        burst.push_back(server.submit(
            R"({"method":"compile","params":{"design":"slowish"}})"));
      for (auto& f : burst) {
        const Json r = Json::parse(f.get());
        if (r.find("ok")->as_bool()) {
          ++succeeded;
          continue;
        }
        const Json* error = r.find("error");
        EXPECT_EQ(error->find("code")->as_string(), "overloaded") << r.dump();
        const Json* hint = error->find("retry_after_ms");
        EXPECT_TRUE(hint != nullptr && hint->as_int() > 0) << r.dump();
        ++overloaded;
      }
    }
  };
  std::thread t1(soak), t2(soak);
  t1.join();
  t2.join();

  EXPECT_EQ(succeeded + overloaded, 24);
  EXPECT_GT(succeeded.load(), 0);
  // After the storm: empty queue, healthy daemon, warm cache.
  EXPECT_EQ(server.queue_depth(), 0);
  EXPECT_TRUE(call_ok(server, R"({"method":"ping"})").find("pong")->as_bool());
  EXPECT_GE(server.cache_stats().hits, 1);
}

TEST(Server, EveryResponseCarriesATraceId) {
  Server server(small_server());
  // Success, caller-bug error, and even an unparseable line: all stamped.
  const Json ok = Json::parse(server.handle(
      R"({"id":1,"method":"compile","params":{"design":"verilog_opt1"}})"));
  const Json bad = Json::parse(
      server.handle(R"({"method":"compile","params":{"design":"nope"}})"));
  const Json mangled = Json::parse(server.handle("{{{nope"));
  for (const Json* r : {&ok, &bad, &mangled}) {
    const Json* id = r->find("trace_id");
    ASSERT_NE(id, nullptr) << r->dump();
    EXPECT_EQ(id->as_string().size(), 16u);
    EXPECT_NE(obs::parse_trace_id(id->as_string()), 0u);
  }
  EXPECT_NE(ok.find("trace_id")->as_string(),
            bad.find("trace_id")->as_string());
}

TEST(Server, TraceMethodCorrelatesRequestsAndEvents) {
  obs::set_enabled(true);
  obs::event_log().clear();
  Server server(small_server());
  const Json compiled = Json::parse(server.handle(
      R"({"id":1,"method":"compile","params":{"design":"verilog_opt2"}})"));
  ASSERT_TRUE(compiled.find("ok")->as_bool());
  const std::string trace_id = compiled.find("trace_id")->as_string();

  const Json result = call_ok(
      server, R"({"method":"trace","params":{"trace_id":")" + trace_id +
                  R"("}})");
  EXPECT_TRUE(result.find("events_recorded")->as_bool());
  EXPECT_EQ(result.find("trace_id")->as_string(), trace_id);

  // The summary names the request; the correlated events show its guts
  // (admission, cache lookup, compile, per-pass progress, completion).
  const Json& requests = *result.find("requests");
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].find("method")->as_string(), "compile");
  EXPECT_EQ(requests[0].find("design")->as_string(), "verilog_opt2");
  EXPECT_EQ(requests[0].find("outcome")->as_string(), "ok");
  EXPECT_GE(requests[0].find("total_ms")->as_number(), 0.0);

  const Json& events = *result.find("events");
  ASSERT_GT(events.size(), 0u);
  bool saw_request = false, saw_cache = false, saw_compile = false;
  for (size_t i = 0; i < events.size(); ++i) {
    const std::string name = events[i].find("name")->as_string();
    saw_request |= name == "svc.request";
    saw_cache |= name == "svc.cache.lookup";
    saw_compile |= name == "tools.compile";
    EXPECT_EQ(events[i].find("trace_id")->as_string(), trace_id);
  }
  EXPECT_TRUE(saw_request);
  EXPECT_TRUE(saw_cache);
  EXPECT_TRUE(saw_compile);

  // Without a trace_id filter: newest-first summaries of recent requests.
  const Json all = call_ok(server, R"({"method":"trace"})");
  EXPECT_GE(all.find("requests")->size(), 2u);
  EXPECT_EQ(all.find("events"), nullptr);
  obs::set_enabled(false);
  obs::registry().reset();
}

TEST(Server, TraceMethodRejectsMalformedTraceIds) {
  Server server(small_server());
  EXPECT_EQ(error_code_of(server,
                          R"({"method":"trace","params":{"trace_id":42}})"),
            "invalid_request");
  EXPECT_EQ(
      error_code_of(server,
                    R"({"method":"trace","params":{"trace_id":"nope!"}})"),
      "invalid_request");
  EXPECT_EQ(error_code_of(server,
                          R"({"method":"trace","params":{"limit":0}})"),
            "invalid_request");
  // A well-formed id that matches nothing is an empty answer, not an error.
  const Json result = call_ok(
      server,
      R"({"method":"trace","params":{"trace_id":"00000000000000ff"}})");
  EXPECT_EQ(result.find("requests")->size(), 0u);
}

TEST(Server, StatsReportsEventLogAndRecentRequests) {
  Server server(small_server());
  call_ok(server, R"({"method":"ping"})");
  const Json result = call_ok(server, R"({"method":"stats"})");
  const Json* events = result.find("events");
  ASSERT_NE(events, nullptr);
  EXPECT_GE(events->find("capacity")->as_int(), 1);
  EXPECT_GE(events->find("total")->as_int(), 0);
  EXPECT_GE(events->find("dropped")->as_int(), 0);
  EXPECT_GE(events->find("held")->as_int(), 0);
  EXPECT_GE(result.find("recent_requests")->as_int(), 1);
}

TEST(Server, StatsReportsBatchUtilizationWithMetricsOn) {
  obs::set_enabled(true);
  Server server(small_server());
  // A lane-batched campaign (lanes=4 over 8 sites, one refilling streaming
  // sweep) moves the process-wide batch counters the stats method passes
  // through.
  call_ok(server,
          R"({"method":"campaign","params":{"design":"verilog_opt2",)"
          R"("sites":8,"seed":7,"lanes":4}})");
  const Json result = call_ok(server, R"({"method":"stats"})");
  obs::set_enabled(false);
  const Json* batch = result.find("batch");
  ASSERT_NE(batch, nullptr) << "stats has no batch block under metrics";
  EXPECT_GE(batch->find("sweeps")->as_int(), 1);
  EXPECT_GE(batch->find("lane_runs")->as_int(), 8);
  EXPECT_GE(batch->find("lanes_masked")->as_int(), 0);
}

TEST(Server, CompileAcceptsSchedulerAndNarrowingKnobs) {
  Server server(small_server());
  // Pipelining a raw combinational kernel through the service matches the
  // DSE flows: stages > 0 schedules before the canonical compile pipeline.
  const Json piped = call_ok(
      server, R"({"method":"compile","params":{"design":"idct.rtl_kernel",)"
              R"("stages":4,"objective":"regmin","retime":true}})");
  EXPECT_EQ(piped.find("stages")->as_int(), 4);
  EXPECT_EQ(piped.find("objective")->as_string(), "regmin");
  EXPECT_GE(piped.find("latency")->as_int(), 1);
  EXPECT_LE(piped.find("latency")->as_int(), 4);
  EXPECT_GT(piped.find("pipeline_regs")->as_int(), 0);
  // Narrowing off is the pre-rewrite pipeline; a combinational request
  // reports no scheduler fields.
  const Json wide = call_ok(
      server, R"({"method":"compile","params":{"design":"idct.rtl_kernel",)"
              R"("narrow":false}})");
  EXPECT_GT(wide.find("node_count")->as_int(), 0);
  EXPECT_EQ(wide.find("stages"), nullptr);
  // The two configurations are distinct cache entries.
  EXPECT_NE(piped.find("key")->as_string(), wide.find("key")->as_string());
}

TEST(Server, SchedulerKnobRejectsBadValues) {
  Server server(small_server());
  // Unknown objective, out-of-range stages, wrong-typed knobs: each is the
  // client's mistake, never an internal error.
  for (const char* params :
       {R"({"design":"idct.rtl_kernel","stages":2,"objective":"fastest"})",
        R"({"design":"idct.rtl_kernel","stages":100})",
        R"({"design":"idct.rtl_kernel","stages":-1})",
        R"({"design":"idct.rtl_kernel","stages":2,"objective":42})",
        R"({"design":"idct.rtl_kernel","stages":2,"retime":1})",
        R"({"design":"idct.rtl_kernel","narrow":"wide"})",
        // Pipelining a sequential design is impossible, not a server fault.
        R"({"design":"verilog_initial","stages":2})"}) {
    const std::string line =
        std::string(R"({"method":"compile","params":)") + params + '}';
    EXPECT_EQ(error_code_of(server, line), "invalid_request") << params;
  }
}

TEST(Server, DseHonorsTheNarrowKnob) {
  Server server(small_server());
  const Json result = call_ok(
      server,
      R"({"method":"dse","params":{"flow":"verilog","limit":1,"narrow":false}})");
  ASSERT_GE(result.find("points")->size(), 1u);
  EXPECT_GT((*result.find("points"))[0].find("quality")->as_number(), 0.0);
  EXPECT_EQ(error_code_of(server,
                          R"({"method":"dse","params":)"
                          R"({"flow":"verilog","narrow":"wide"}})"),
            "invalid_request");
}

TEST(Server, StatsReportsNarrowPassCountersWithMetricsOn) {
  obs::set_enabled(true);
  Server server(small_server());
  // A default compile runs the narrow pass at least once; the stats method
  // passes its rewrite counters through.
  call_ok(server,
          R"({"method":"compile","params":{"design":"fir16.rtl_comb"}})");
  const Json result = call_ok(server, R"({"method":"stats"})");
  obs::set_enabled(false);
  const Json* passes = result.find("passes");
  ASSERT_NE(passes, nullptr) << "stats has no passes block under metrics";
  const Json* narrow = passes->find("narrow");
  ASSERT_NE(narrow, nullptr);
  EXPECT_GE(narrow->find("runs")->as_int(), 1);
  EXPECT_GE(narrow->find("changes")->as_int(), 0);
  EXPECT_GE(narrow->find("ns")->as_int(), 0);
}

TEST(Server, RecentRequestRingIsBounded) {
  ServerOptions options = small_server();
  options.recent_requests = 4;
  Server server(options);
  for (int i = 0; i < 10; ++i) call_ok(server, R"({"method":"ping"})");
  const std::vector<Server::RequestRecord> recent = server.recent_requests();
  ASSERT_EQ(recent.size(), 4u);
  for (const Server::RequestRecord& r : recent) {
    EXPECT_EQ(r.method, "ping");
    EXPECT_EQ(r.outcome, "ok");
    EXPECT_NE(r.trace_id, 0u);
  }
}

TEST(Server, ServeRunsLineProtocolInOrder) {
  Server server(small_server());
  std::istringstream in(
      "{\"id\":1,\"method\":\"ping\"}\n"
      "not json\n"
      "{\"id\":2,\"method\":\"compile\","
      "\"params\":{\"design\":\"verilog_opt1\"}}\n"
      "{\"id\":3,\"method\":\"shutdown\"}\n");
  std::ostringstream out;
  server.serve(in, out);

  std::vector<Json> responses;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) responses.push_back(Json::parse(line));
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_EQ(responses[0].find("id")->as_int(), 1);
  EXPECT_TRUE(responses[0].find("ok")->as_bool());
  EXPECT_FALSE(responses[1].find("ok")->as_bool());
  EXPECT_EQ(responses[2].find("id")->as_int(), 2);
  EXPECT_TRUE(responses[2].find("ok")->as_bool());
  EXPECT_EQ(responses[3].find("id")->as_int(), 3);
}

}  // namespace
}  // namespace hlshc::svc
