// Host facts and process measurements recorded with every report.
#pragma once

#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// One line: nproc, CPU model, AVX2/AVX-512 support and the batch
/// simulation kernel set those select (x86-64-v4, -v3 or baseline), so
/// numbers from different kernel sets are never compared.
std::string host_facts();

/// Runs this binary again `runs` times, one child at a time, with `args`;
/// waits for each and returns the number each child printed as its last
/// stdout line.
std::vector<double> run_children(int runs, const std::vector<std::string>& args);

/// Wall seconds of one call of `fn`.
double seconds_of(const std::function<void()>& fn);

/// Peak resident set size of this process so far (VmHWM), in MiB.
double peak_rss_mb();

}  // namespace perfbench
