#pragma once

// The traced run: the workload's seeded operation mix replayed in-process,
// with every call into a layer's public function wrapped in a span recorded
// by the benchmark (the program itself is not instrumented). It reports the
// per-layer metrics and writes the spans as a Chrome trace.

#include "workloads.hpp"

#include <map>
#include <string>

namespace perfbench {

struct TracedResult {
  std::map<std::string, std::pair<double, std::string>> metrics; ///< value, unit
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  std::string firstError;
};

/// Runs the untraced HTTP mix for part of `seconds` (for net.overhead_us),
/// then the traced in-process replay for the rest, then a coverage pass
/// over every operation kind; writes the Chrome trace to `tracePath`.
TracedResult runTraced(const Plan& plan, std::uint64_t seed, double seconds,
                       const std::string& tmpDir, const std::string& tracePath,
                       LiveCounters& live);

} // namespace perfbench
