#include "ledger.hpp"

#include <chrono>
#include <fstream>
#include <map>
#include <stdexcept>

namespace perfbench {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Ledger::Scope::Scope(Ledger& ledger, std::string layer)
    : ledger_(ledger), index_(ledger.spans_.size()) {
  Span s;
  s.layer = std::move(layer);
  s.parent = ledger.open_.empty() ? -1 : static_cast<int>(ledger.open_.back());
  ledger.spans_.push_back(std::move(s));
  ledger.open_.push_back(index_);
  ledger.spans_[index_].start_ns = now_ns();
}

Ledger::Scope::~Scope() {
  ledger_.spans_[index_].end_ns = now_ns();
  ledger_.open_.pop_back();
}

void Ledger::start() {
  spans_.clear();
  open_.clear();
  start_ns_ = stop_ns_ = now_ns();
}

void Ledger::stop() {
  if (!open_.empty()) throw std::logic_error("ledger stopped with open spans");
  stop_ns_ = now_ns();
}

std::vector<int64_t> Ledger::self_times() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  for (const Span& s : spans_)
    if (s.parent >= 0)
      self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
  return self;
}

std::vector<Ledger::Row> Ledger::rows() const {
  const std::vector<int64_t> self = self_times();
  std::map<std::string, Row> by_layer;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Row& r = by_layer[spans_[i].layer];
    r.layer = spans_[i].layer;
    ++r.calls;
    r.self_ns += self[i];
  }
  std::vector<Row> out;
  for (auto& [layer, row] : by_layer) out.push_back(row);
  out.push_back({"residual", 0, residual_ns()});
  return out;
}

Ledger::Row Ledger::row(std::string_view layer) const {
  const std::vector<int64_t> self = self_times();
  Row r{std::string(layer), 0, 0};
  for (size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].layer == layer) {
      ++r.calls;
      r.self_ns += self[i];
    }
  return r;
}

Ledger::Row Ledger::prefix_row(std::string_view prefix) const {
  const std::vector<int64_t> self = self_times();
  Row r{std::string(prefix), 0, 0};
  for (size_t i = 0; i < spans_.size(); ++i)
    if (std::string_view(spans_[i].layer).substr(0, prefix.size()) == prefix) {
      ++r.calls;
      r.self_ns += self[i];
    }
  return r;
}

int64_t Ledger::residual_ns() const {
  int64_t covered = 0;
  for (const Span& s : spans_)
    if (s.parent < 0) covered += s.end_ns - s.start_ns;
  return wall_ns() - covered;
}

void Ledger::write(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : spans_)
    out << "{\"layer\":\"" << s.layer << "\",\"start_ns\":"
        << s.start_ns - start_ns_ << ",\"end_ns\":" << s.end_ns - start_ns_
        << ",\"parent\":" << s.parent << "}\n";
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

double Ledger::span_cost_ns() {
  constexpr int kSpans = 20000;
  Ledger scratch;
  scratch.start();
  const int64_t t0 = now_ns();
  for (int i = 0; i < kSpans; ++i) Scope s(scratch, "calibrate");
  return static_cast<double>(now_ns() - t0) / kSpans;
}

}  // namespace perfbench
