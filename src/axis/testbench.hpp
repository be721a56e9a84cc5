// AXI-Stream testbench drivers and the streaming measurement loop.
//
// StreamTestbench drives any sim::Engine (interpreter or compiled) over a
// DUT exposing the canonical s/m stream ports, drives queued matrices in,
// collects matrices out, and timestamps every handshake. The evaluation
// procedure derives latency (first accepted input beat -> last delivered
// output beat of the same matrix) and periodicity (steady-state interval
// between completions) from these timestamps — the T_L and T_P of the
// paper, measured rather than asserted.
//
// Port names are resolved to node ids once at construction; the per-cycle
// loop drives and samples by id so the harness overhead does not mask the
// engine's throughput.
//
// The slave-side driver can inject rate limiting and the master-side driver
// back-pressure, which the protocol tests use to check TREADY handling.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "axis/monitor.hpp"
#include "axis/stream.hpp"
#include "sim/engine.hpp"

namespace hlshc::axis {

/// Drives the DUT's slave (input) stream port.
class SourceDriver {
 public:
  /// Resolves the port names against the engine's design; throws on a
  /// design that lacks the canonical stream ports.
  SourceDriver(sim::PortAccess& sim, std::string prefix = "s");

  void queue(const idct::Block& block);
  bool idle() const { return beats_.empty(); }

  /// Present the head beat (or deassert TVALID when empty / throttled).
  void pre_cycle();
  /// After eval: consume the beat on TVALID && TREADY. Returns true when a
  /// beat was accepted this cycle.
  bool post_eval();

  /// If >0, insert this many idle cycles between presented beats.
  void set_gap_cycles(int gap) { gap_cycles_ = gap; }

  /// Cycle numbers at which the *first* beat of each queued matrix was
  /// accepted (indexed by matrix order).
  const std::vector<uint64_t>& matrix_start_cycles() const {
    return matrix_starts_;
  }

 private:
  sim::PortAccess& sim_;
  std::string prefix_;
  netlist::NodeId tvalid_, tlast_, tready_;
  std::array<netlist::NodeId, kLanes> lanes_{};
  std::deque<Beat> beats_;
  int beat_in_matrix_ = 0;
  int gap_cycles_ = 0;
  int gap_left_ = 0;
  std::vector<uint64_t> matrix_starts_;
};

/// Consumes the DUT's master (output) stream port.
class SinkDriver {
 public:
  SinkDriver(sim::PortAccess& sim, std::string prefix = "m");

  /// Deassert TREADY for `n` cycles out of every `period` (0 = always ready).
  void set_backpressure(int stall_cycles, int period);

  void pre_cycle();
  /// After eval: capture the beat on TVALID && TREADY. Returns true when a
  /// beat was captured this cycle.
  bool post_eval();

  /// Every frame TLAST closed, in arrival order. A malformed frame (TLAST
  /// after other than 8 beats) is kept as the matrix its first rows spell —
  /// missing rows zero, rows past the 8th dropped — and counted below: a
  /// wrong beat count is the design's output for the caller to judge.
  const std::vector<idct::Block>& matrices() const { return matrices_; }
  int malformed_frames() const { return malformed_; }
  /// Cycle of the final (TLAST) beat of each completed matrix.
  const std::vector<uint64_t>& matrix_end_cycles() const { return ends_; }

 private:
  sim::PortAccess& sim_;
  std::string prefix_;
  netlist::NodeId tvalid_, tlast_, tready_;
  std::array<netlist::NodeId, kLanes> lanes_{};
  std::vector<Beat> pending_;
  std::vector<idct::Block> matrices_;
  std::vector<uint64_t> ends_;
  int malformed_ = 0;
  int stall_cycles_ = 0;
  int period_ = 0;
  int phase_ = 0;
};

/// Measured stream timing for a run of N matrices.
struct StreamTiming {
  int matrices = 0;
  int latency_cycles = 0;      ///< T_L of the first matrix (incl. I/O)
  double periodicity_cycles = 0.0;  ///< steady-state completion interval T_P
  uint64_t total_cycles = 0;
};

/// The one timing derivation (T_L from the first start/end pair, T_P as the
/// median completion interval) shared by StreamTestbench and the lane-batched
/// harness, so both report bitwise-identical numbers for the same handshake
/// timestamps.
StreamTiming derive_stream_timing(int matrices, uint64_t total_cycles,
                                  const std::vector<uint64_t>& starts,
                                  const std::vector<uint64_t>& ends);

class StreamTestbench {
 public:
  /// `sim` must expose the canonical stream ports. The monitor is armed by
  /// default and records protocol violations.
  explicit StreamTestbench(sim::Engine& sim);

  /// Push `inputs` through the DUT; runs until all outputs are collected or
  /// `max_cycles` elapse (throws sim::SimTimeout — the watchdog that keeps a
  /// wedged TVALID/TREADY handshake from spinning forever). Returns the
  /// outputs.
  std::vector<idct::Block> run(const std::vector<idct::Block>& inputs,
                               uint64_t max_cycles = 200000);

  const StreamTiming& timing() const { return timing_; }
  SourceDriver& source() { return source_; }
  SinkDriver& sink() { return sink_; }
  const Monitor& monitor() const { return monitor_; }

 private:
  sim::Engine& sim_;
  SourceDriver source_;
  SinkDriver sink_;
  Monitor monitor_;
  StreamTiming timing_;
};

}  // namespace hlshc::axis
