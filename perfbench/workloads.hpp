#pragma once

// The benchmark's three workloads, each driven through the library's
// public functions only. See README.md for why each was chosen.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// What one workload run in one process measured and checked.
struct Result {
  unsigned threads = 1;  ///< worker threads the workload runs with
  double setup_s = 0.0;  ///< registry, adapters, worlds, arrival plan
  double run_s = 0.0;    ///< the measured call(s), set-up excluded
  double loop_s = 0.0;   ///< load: the tick loop alone; sweeps: == run_s
  std::size_t attempted = 0;  ///< load instances or audited schedules
  std::size_t failed = 0;     ///< operations that failed a correctness check
  std::size_t breaches = 0;   ///< [chain-fault] floor breaches
  std::vector<std::string> failures;  ///< one message per failed check

  /// Every deterministic field of the library's report, one per line, in
  /// a fixed order: identical across repeated runs of one seed, and
  /// between the untraced call and the traced driver.
  std::string report;

  /// Deterministic outcomes (simulated latency, counters).
  std::map<std::string, double> outcomes;
  /// Per-layer numbers; filled by traced runs only.
  std::map<std::string, double> layers;
};

/// `load::run_load` over 10,000 users on one congested shared chain.
Result run_load_congested(std::uint64_t seed, Tracer& tracer);

/// Serial late-delays tree sweeps of the nine tree-capable protocols.
Result run_sweep_tree(std::uint64_t seed, Tracer& tracer);

/// Serial late-delays brute sweeps of all ten protocols under a block
/// squeeze with fee-escalating parties.
Result run_sweep_faults(std::uint64_t seed, Tracer& tracer);

}  // namespace perfbench
