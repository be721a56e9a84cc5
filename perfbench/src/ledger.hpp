// Benchmark-side span ledger.
//
// A traced benchmark run wraps every call it makes into one of the
// program's layers (a frontend builder, tools::compile, ExecPlan, the AXI
// testbench, fault::run_campaign, ...) in a Ledger::Scope. Spans are kept
// in memory and written out when the run ends; rows() turns them into the
// per-layer self-time table (a span's duration minus the time its child
// spans cover) plus a "residual" row for the wall time no span covers, so
// the rows always add up to the traced window's wall time.
//
// The spans are recorded from the benchmark's own code around public entry
// points; nothing inside the program is instrumented.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// steady_clock nanoseconds.
int64_t now_ns();

class Ledger {
 public:
  struct Span {
    std::string layer;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;  ///< index of the enclosing span, -1 at top level
  };
  struct Row {
    std::string layer;
    int64_t calls = 0;
    int64_t self_ns = 0;
  };

  /// One call into `layer`, timed from construction to destruction. Scopes
  /// nest lexically and belong to the thread that drives the ledger.
  class Scope {
   public:
    Scope(Ledger& ledger, std::string layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Ledger& ledger_;
    size_t index_;
  };

  /// Opens / closes the wall-time window the rows are reconciled against.
  void start();
  void stop();
  int64_t wall_ns() const { return stop_ns_ - start_ns_; }

  /// Self time and call count per layer, sorted by layer name, followed by
  /// the "residual" row (calls = 0). Sums to wall_ns().
  std::vector<Row> rows() const;
  /// The row of one layer (zero when the layer never ran).
  Row row(std::string_view layer) const;
  /// Calls and self time summed over every layer named `prefix`*.
  Row prefix_row(std::string_view prefix) const;
  int64_t residual_ns() const;

  size_t span_count() const { return spans_.size(); }
  /// One JSON object per line: layer, start/end (ns from start()), parent.
  void write(const std::string& path) const;

  /// Measured host cost of recording one span, in ns: the tracing overhead
  /// of a traced run is span_count() times this.
  static double span_cost_ns();

 private:
  std::vector<int64_t> self_times() const;

  std::vector<Span> spans_;
  std::vector<size_t> open_;
  int64_t start_ns_ = 0;
  int64_t stop_ns_ = 0;
};

}  // namespace perfbench
