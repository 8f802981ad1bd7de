#pragma once

// The three benchmark workloads. Each returns the result line for one run:
// end-to-end metrics when untraced, per-layer metrics when traced.

#include <cstdint>
#include <string>

#include "harness.hpp"
#include "scenario/scenario_spec.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_given = false;
  double seconds = 20.0;
  bool trace = false;
};

Result run_scenario_workload(const Options& opt);
Result run_replay_mix(const Options& opt);

/// The scenario workloads' shape: a catalog entry, the benchmark's
/// overrides of it, the strategies it runs on, the fingerprint pinned at
/// the catalog seed, and how many repetitions an untraced run makes at
/// least.
struct ScenarioWorkload {
  const char* name;
  const char* entry;
  const char* strategy;          ///< the untraced, timed repetitions
  const char* traced_strategy;   ///< both repetitions of a traced run
  bool detector;                 ///< detector trigger, floor 150 pkts/epoch
  std::uint64_t golden;          ///< scalar fingerprint at the catalog seed
  std::uint64_t min_reps;
};

/// nullptr when `name` is not a scenario workload.
const ScenarioWorkload* find_scenario_workload(const std::string& name);

/// The workload's spec at `seed`.
mafic::scenario::ScenarioSpec workload_spec(const ScenarioWorkload& w,
                                            std::uint64_t seed);

/// The fingerprint the workload is checked with: fingerprint() for a
/// scripted trigger, detector_fingerprint() (a superset) for the detector.
std::uint64_t workload_fingerprint(const ScenarioWorkload& w,
                                   const mafic::scenario::ExperimentResult& r);

/// Measures `spec` as workload `w`. `pinned`: check against w.golden;
/// otherwise against a scalar run of `spec` made before timing.
Result measure_scenario(const ScenarioWorkload& w,
                        const mafic::scenario::ScenarioSpec& spec, bool pinned,
                        const Options& opt);

/// 1 when `got` differs from `expected` (one failed operation), else 0;
/// prints the mismatch.
std::uint64_t check_fingerprint(const char* what, std::uint64_t got,
                                std::uint64_t expected);

int self_test();

}  // namespace perfbench
