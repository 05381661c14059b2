#pragma once
// Workload inputs (the paper suite regenerated from the run seed), the
// optimizer settings each workload runs at, and the output gate.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/options.hpp"
#include "cts/benchmarks.hpp"
#include "timing/power_mode.hpp"
#include "tree/clock_tree.hpp"

namespace wmbench {

/// The seven suite circuits, in suite order. Without `regenerate` they
/// are the paper suite as shipped, whatever the seed. With it, a nonzero
/// seed regenerates every circuit with the same statistics (n, |L|, die,
/// placement style, islands) from a seed derived from the spec's own and
/// the run seed. Regeneration is opt-in because it changes the work by
/// up to 7x between seeds (a circuit may grow beam-capped DP zones),
/// which no run-to-run bound could absorb.
std::vector<wm::BenchmarkSpec> suite_specs(std::uint64_t seed,
                                           bool regenerate);

/// One named circuit of suite_specs(seed, regenerate).
wm::BenchmarkSpec suite_spec(const std::string& name, std::uint64_t seed,
                             bool regenerate);

enum class Algo {
  WaveMin,   ///< ClkWaveMin, Warburton DP (Table V)
  WaveMinF,  ///< ClkWaveMin-f, greedy inner solver
  WaveMinM,  ///< ClkWaveMin-M over make_mode_set's four modes (Table VII)
};

/// Optimizer settings per algorithm: single mode at the paper's
/// |S| = 158, kappa = 20 ps, eps = 0.01; multi-mode at Table VII's
/// kappa = 110 ps with |S| = 32 per mode and dof_beam = 64. One thread:
/// four buy nothing on the suite today.
wm::WaveMinOptions settings(Algo algo);

/// The mode set clk_wavemin builds for a single-mode tree: one nominal
/// mode over every island the tree uses.
wm::ModeSet single_mode_set(const wm::ClockTree& tree);

/// The output correctness gate for one optimized tree: check_tree
/// clean and every mode's skew within kappa plus the 5 % that
/// bench/table7_multi_mode tolerates. Each violation is recorded in
/// `out` against design `name`.
void check_output(const std::string& name, const wm::ClockTree& tree,
                  const wm::ModeSet& modes, double kappa, Outcome& out);

} // namespace wmbench
