#include "script.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "chisel/designs.hpp"
#include "rtl/designs.hpp"
#include "workload/workload.hpp"

namespace perfbench {

namespace {

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  size_t below(size_t n) { return static_cast<size_t>(next() % n); }

 private:
  uint64_t state_;
};

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

uint64_t fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// How many of `total` draws each of `n` Zipf-ranked items gets (weight
/// 1/(rank+1)), rounded by largest remainder so the counts sum to `total`.
std::vector<size_t> zipf_counts(size_t n, size_t total) {
  double sum = 0.0;
  for (size_t r = 0; r < n; ++r) sum += 1.0 / (r + 1.0);
  std::vector<size_t> counts(n);
  std::vector<std::pair<double, size_t>> remainders;
  size_t assigned = 0;
  for (size_t r = 0; r < n; ++r) {
    const double exact = total / ((r + 1.0) * sum);
    counts[r] = static_cast<size_t>(exact);
    assigned += counts[r];
    remainders.push_back({exact - counts[r], r});
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t i = 0; assigned < total; ++i, ++assigned)
    ++counts[remainders[i % n].second];
  return counts;
}

/// Orders items by a content hash of their label: a fixed, seed-free
/// popularity ranking that interleaves workloads and flows.
template <typename T>
void rank_by_hash(std::vector<T>& items) {
  std::stable_sort(items.begin(), items.end(), [](const T& a, const T& b) {
    return fnv1a(a.line) < fnv1a(b.line);
  });
}

std::string request_line(size_t id, const char* method, const SvcRequest& r) {
  std::ostringstream out;
  out << "{\"id\": " << id << ", \"method\": \"" << method
      << "\", \"params\": {\"design\": \"" << r.design << '"';
  if (!r.narrow) out << ", \"narrow\": false";
  if (r.strength_reduce) out << ", \"strength_reduce\": true";
  if (r.stages > 0) out << ", \"stages\": " << r.stages;
  if (!r.objective.empty()) out << ", \"objective\": \"" << r.objective << '"';
  if (r.retime) out << ", \"retime\": true";
  out << "}}";
  return out.str();
}

}  // namespace

std::vector<DesignRef> service_designs() {
  namespace wl = hlshc::workload;
  const wl::Registry& reg = wl::Registry::instance();
  std::vector<DesignRef> out;
  for (const auto& [wname, spec] : reg.all())
    for (const wl::BuilderInfo& b : spec.builders)
      if (!b.slow)
        out.push_back({wname + "." + b.name, wname, b.flow, true, b.build});
  const wl::WorkloadSpec& idct = reg.get("idct");
  for (const char* name : {"verilog_initial", "verilog_opt1", "verilog_opt2",
                           "chisel_initial", "chisel_opt"}) {
    const wl::BuilderInfo& b = idct.builder(name);
    out.push_back({name, "idct", b.flow, true, b.build});
  }
  out.push_back({"idct.rtl_kernel", "idct", "verilog", false,
                 hlshc::rtl::build_matrix_kernel});
  out.push_back({"idct.chisel_kernel", "idct", "chisel", false,
                 hlshc::chisel::build_matrix_kernel});
  std::sort(out.begin(), out.end(),
            [](const DesignRef& a, const DesignRef& b) { return a.name < b.name; });
  return out;
}

namespace {

std::vector<SvcRequest> compile_universe(const std::vector<DesignRef>& designs) {
  std::vector<SvcRequest> keys;
  for (const DesignRef& d : designs) {
    for (bool narrow : {true, false})
      for (bool sr : {false, true}) {
        SvcRequest r;
        r.design = d.name;
        r.narrow = narrow;
        r.strength_reduce = sr;
        keys.push_back(r);
      }
    if (!d.axi)
      for (int stages : {2, 3, 4, 6, 8})
        for (const char* objective : {"balance", "regmin"})
          for (bool retime : {false, true}) {
            SvcRequest r;
            r.design = d.name;
            r.stages = stages;
            r.objective = objective;
            r.retime = retime;
            keys.push_back(r);
          }
  }
  for (SvcRequest& r : keys) {
    r.expect = "ok";
    r.line = request_line(0, "compile", r);
  }
  rank_by_hash(keys);
  return keys;
}

}  // namespace

size_t svc_key_universe(const std::vector<DesignRef>& designs) {
  return compile_universe(designs).size();
}

std::vector<SvcRequest> svc_script(uint64_t seed, size_t n,
                                   const std::vector<DesignRef>& designs) {
  const std::vector<SvcRequest> compiles = compile_universe(designs);
  std::vector<SvcRequest> evaluates;
  std::vector<std::string> axi, raw;
  for (const DesignRef& d : designs) {
    (d.axi ? axi : raw).push_back(d.name);
    if (!d.axi) continue;
    SvcRequest r;
    r.kind = SvcRequest::Kind::kEvaluate;
    r.design = d.name;
    r.expect = "ok";
    r.line = request_line(0, "evaluate", r);
    evaluates.push_back(r);
  }
  rank_by_hash(evaluates);

  // One deck holds the exact mix; the script is seeded shuffles of decks,
  // so every run sees the same Zipf skew whatever its seed.
  std::vector<SvcRequest> deck;
  const auto add = [&](const std::vector<SvcRequest>& items, size_t total) {
    const std::vector<size_t> counts = zipf_counts(items.size(), total);
    for (size_t i = 0; i < items.size(); ++i)
      deck.insert(deck.end(), counts[i], items[i]);
  };
  add(compiles, kSvcDeck - kSvcDeck / 5 - kSvcMistakes);
  add(evaluates, kSvcDeck / 5);
  // Client mistakes: an unregistered design, pipelining a sequential
  // (AXI-wrapped) design, evaluating a raw kernel that has no AXI ports.
  for (size_t i = 0; i < kSvcMistakes; ++i) {
    SvcRequest r;
    r.kind = SvcRequest::Kind::kMistake;
    r.expect = "invalid_request";
    if (i % 3 == 0) {
      r.design = "idct.no_such_design";
    } else if (i % 3 == 1) {
      r.design = axi[(i / 3) % axi.size()];
      r.stages = 4;
    } else {
      r.design = raw[(i / 3) % raw.size()];
    }
    deck.push_back(r);
  }

  // The first deck's order is the same for every seed: it is the warm-up
  // that fills the cache, so each run starts measuring from the same cache
  // state and the seed orders the measured decks.
  std::vector<SvcRequest> out;
  out.reserve(n + deck.size());
  Rng warm(0), rng(seed);
  while (out.size() < n) {
    shuffle(deck, out.empty() ? warm : rng);
    out.insert(out.end(), deck.begin(), deck.end());
  }
  out.resize(n);
  for (size_t i = 0; i < n; ++i) {
    SvcRequest& r = out[i];
    const bool evaluate = r.kind == SvcRequest::Kind::kEvaluate ||
                          (r.kind == SvcRequest::Kind::kMistake &&
                           r.stages == 0 && r.design != "idct.no_such_design");
    r.line = request_line(i, evaluate ? "evaluate" : "compile", r);
  }
  return out;
}

const std::vector<std::string>& campaign_designs() {
  static const std::vector<std::string> designs = {
      "fdct.rtl_comb",      "fdct.xls_p2",       "fir16.chisel_comb",
      "fir16.rtl_comb",     "idct.bambu",        "idct.bsv_opt",
      "idct.chisel_initial", "idct.chisel_opt",  "idct.verilog_opt2",
      "idct.xls_p8",        "matmul.chisel_comb", "matmul.rtl_comb",
      "matmul.xls_p2"};
  return designs;
}

std::vector<CampaignOp> campaign_catalogue() {
  std::vector<CampaignOp> ops;
  for (const std::string& d : campaign_designs()) {
    // The HLS FSM design runs hundreds of cycles per frame: fewer SEU
    // operations keep its share of the wall time near the others'.
    const bool fsm = d == "idct.bambu";
    // Odd site seeds take the jobs=1 refill path, even ones the jobs=2
    // sharded path: every design runs half its operations on each.
    for (uint64_t s = 1; s <= (fsm ? 2u : 8u); ++s)
      ops.push_back({d, "seu", s, s % 2 ? 1 : 2});
    for (uint64_t s = 1; s <= 2; ++s)
      ops.push_back({d, "stuck", s, s % 2 ? 1 : 2});
  }
  return ops;
}

std::vector<CampaignOp> campaign_script(uint64_t seed, int rounds) {
  std::vector<CampaignOp> seu, stuck;
  for (const CampaignOp& op : campaign_catalogue())
    (op.kind == "seu" ? seu : stuck).push_back(op);
  Rng rng(seed);
  std::vector<CampaignOp> out;
  for (int round = 0; round < rounds; ++round) {
    shuffle(seu, rng);
    shuffle(stuck, rng);
    const size_t total = seu.size() + stuck.size();
    size_t next_seu = 0, next_stuck = 0;
    for (size_t k = 0; k < total; ++k) {
      // Emit a stuck-at op whenever the prefix falls behind its share.
      const bool take_stuck = (k + 1) * stuck.size() / total > next_stuck;
      out.push_back(take_stuck ? stuck[next_stuck++] : seu[next_seu++]);
    }
  }
  return out;
}

std::string render(const std::vector<SvcRequest>& script) {
  std::string out;
  for (const SvcRequest& r : script) out += r.line + "\texpect=" + r.expect + '\n';
  return out;
}

std::string render(const std::vector<CampaignOp>& script) {
  std::ostringstream out;
  for (const CampaignOp& op : script)
    out << op.design << ' ' << op.kind << " seed=" << op.site_seed
        << " jobs=" << op.jobs << '\n';
  return out.str();
}

}  // namespace perfbench
