#include "axis/testbench.hpp"

#include <algorithm>

#include "base/check.hpp"
#include "obs/trace.hpp"

namespace hlshc::axis {

namespace {

netlist::NodeId resolve_input(const sim::PortAccess& sim,
                              const std::string& name) {
  netlist::NodeId id = sim.design().find_input(name);
  HLSHC_CHECK(id != netlist::kInvalidNode,
              "no input port '" << name << "' in design '"
                                << sim.design().name() << '\'');
  return id;
}

netlist::NodeId resolve_output(const sim::PortAccess& sim,
                               const std::string& name) {
  netlist::NodeId id = sim.design().find_output(name);
  HLSHC_CHECK(id != netlist::kInvalidNode,
              "no output port '" << name << "' in design '"
                                 << sim.design().name() << '\'');
  return id;
}

}  // namespace

// ---- SourceDriver ----------------------------------------------------------

SourceDriver::SourceDriver(sim::PortAccess& sim, std::string prefix)
    : sim_(sim),
      prefix_(std::move(prefix)),
      tvalid_(resolve_input(sim, prefix_ + "_tvalid")),
      tlast_(resolve_input(sim, prefix_ + "_tlast")),
      tready_(resolve_output(sim, prefix_ + "_tready")) {
  for (int c = 0; c < kLanes; ++c)
    lanes_[static_cast<size_t>(c)] = resolve_input(sim, lane_port(prefix_, c));
}

void SourceDriver::queue(const idct::Block& block) {
  for (const Beat& b : matrix_to_beats(block)) beats_.push_back(b);
}

void SourceDriver::pre_cycle() {
  bool present = !beats_.empty() && gap_left_ == 0;
  sim_.poke(tvalid_, present ? 1 : 0);
  if (present) {
    const Beat& b = beats_.front();
    for (int c = 0; c < kLanes; ++c)
      sim_.poke(lanes_[static_cast<size_t>(c)],
                b.lanes[static_cast<size_t>(c)].to_int64());
    sim_.poke(tlast_, b.last ? 1 : 0);
  } else {
    sim_.poke(tlast_, 0);
  }
}

bool SourceDriver::post_eval() {
  if (gap_left_ > 0) {
    --gap_left_;
    return false;
  }
  if (beats_.empty()) return false;
  bool valid = true;  // we presented
  bool ready = sim_.value(tready_).to_bool();
  if (!(valid && ready)) return false;
  if (beat_in_matrix_ == 0) matrix_starts_.push_back(sim_.cycle());
  beat_in_matrix_ = (beat_in_matrix_ + 1) % idct::kBlockDim;
  beats_.pop_front();
  gap_left_ = gap_cycles_;
  return true;
}

// ---- SinkDriver ------------------------------------------------------------

SinkDriver::SinkDriver(sim::PortAccess& sim, std::string prefix)
    : sim_(sim),
      prefix_(std::move(prefix)),
      tvalid_(resolve_output(sim, prefix_ + "_tvalid")),
      tlast_(resolve_output(sim, prefix_ + "_tlast")),
      tready_(resolve_input(sim, prefix_ + "_tready")) {
  for (int c = 0; c < kLanes; ++c)
    lanes_[static_cast<size_t>(c)] = resolve_output(sim, lane_port(prefix_, c));
}

// kept: test hook: the protocol tests drive sink back-pressure with it.
void SinkDriver::set_backpressure(int stall_cycles, int period) {
  HLSHC_CHECK(stall_cycles >= 0 && period >= 0 &&
                  (period == 0 || stall_cycles < period),
              "bad backpressure config " << stall_cycles << '/' << period);
  stall_cycles_ = stall_cycles;
  period_ = period;
}

void SinkDriver::pre_cycle() {
  bool ready = true;
  if (period_ > 0) {
    ready = phase_ >= stall_cycles_;
    phase_ = (phase_ + 1) % period_;
  }
  sim_.poke(tready_, ready ? 1 : 0);
}

bool SinkDriver::post_eval() {
  bool valid = sim_.value(tvalid_).to_bool();
  bool ready = sim_.value(tready_).to_bool();
  if (!(valid && ready)) return false;
  Beat beat;
  for (int c = 0; c < kLanes; ++c)
    beat.lanes[static_cast<size_t>(c)] =
        sim_.value(lanes_[static_cast<size_t>(c)]);
  beat.last = sim_.value(tlast_).to_bool();
  pending_.push_back(beat);
  if (beat.last) {
    idct::Block block{};
    const size_t rows = std::min<size_t>(pending_.size(), idct::kBlockDim);
    for (size_t r = 0; r < rows; ++r)
      store_output_beat(pending_[r], block, static_cast<int>(r));
    if (pending_.size() != idct::kBlockDim) ++malformed_;
    matrices_.push_back(block);
    ends_.push_back(sim_.cycle());
    pending_.clear();
  }
  return true;
}

// ---- StreamTestbench -------------------------------------------------------

StreamTestbench::StreamTestbench(sim::Engine& sim)
    : sim_(sim), source_(sim), sink_(sim), monitor_(sim) {}

std::vector<idct::Block> StreamTestbench::run(
    const std::vector<idct::Block>& inputs, uint64_t max_cycles) {
  obs::Span span("testbench.run", "axis");
  span.arg("design", sim_.design().name())
      .arg("engine", sim_.kind_name())
      .arg("matrices", static_cast<int64_t>(inputs.size()));
  sim_.reset();
  for (const idct::Block& b : inputs) source_.queue(b);

  const size_t want = inputs.size();
  uint64_t cycles = 0;
  while (sink_.matrices().size() < want) {
    if (cycles >= max_cycles)
      throw sim::SimTimeout(
          "stream testbench wedged on '" + sim_.design().name() + "' (" +
              std::to_string(sink_.matrices().size()) + '/' +
              std::to_string(want) + " matrices)",
          cycles);
    source_.pre_cycle();
    sink_.pre_cycle();
    sim_.eval();
    source_.post_eval();
    sink_.post_eval();
    monitor_.sample();
    sim_.step();
    ++cycles;
  }

  timing_ = derive_stream_timing(static_cast<int>(want), sim_.cycle(),
                                 source_.matrix_start_cycles(),
                                 sink_.matrix_end_cycles());
  monitor_.publish_metrics();
  span.arg("cycles", static_cast<int64_t>(timing_.total_cycles));
  return sink_.matrices();
}

StreamTiming derive_stream_timing(int matrices, uint64_t total_cycles,
                                  const std::vector<uint64_t>& starts,
                                  const std::vector<uint64_t>& ends) {
  StreamTiming timing;
  timing.matrices = matrices;
  timing.total_cycles = total_cycles;
  if (!starts.empty() && !ends.empty())
    timing.latency_cycles =
        static_cast<int>(ends.front() - starts.front() + 1);
  if (ends.size() >= 3) {
    // Steady-state completion interval: median of successive differences,
    // skipping the pipeline fill.
    std::vector<uint64_t> deltas;
    for (size_t i = 1; i < ends.size(); ++i)
      deltas.push_back(ends[i] - ends[i - 1]);
    std::sort(deltas.begin(), deltas.end());
    timing.periodicity_cycles =
        static_cast<double>(deltas[deltas.size() / 2]);
  } else if (ends.size() == 2) {
    timing.periodicity_cycles = static_cast<double>(ends[1] - ends[0]);
  } else {
    timing.periodicity_cycles = static_cast<double>(timing.latency_cycles);
  }
  return timing;
}

}  // namespace hlshc::axis
