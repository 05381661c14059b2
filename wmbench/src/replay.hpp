#pragma once
// The traced replay: run_wavemin's flow re-enacted from the library's
// public layer functions, one span per call.
//
//   candidates   preprocess
//   intervals    enumerate_intersections
//   sampling     build_slots
//   noise_model  build_zone_mosp
//   mosp         dispatch_solve (MospStats)
//   adb          allocate_adbs (ClkWaveMin-M's ADB branch)
//   wavemin      the caller's per-design root span; its self time is
//                the zone memo, winner choice and assignment
//
// Zone solves are memoized on the full (zone, surviving-candidate
// masks) key. The replay is only valid if it is the same computation as
// the end-to-end entry points: the caller checks that its winning worst
// cost equals WaveMinResult::model_peak bit for bit.

#include <cstdint>
#include <string>
#include <vector>

#include "cells/characterizer.hpp"
#include "cells/library.hpp"
#include "common.hpp"
#include "core/options.hpp"
#include "timing/power_mode.hpp"
#include "trace.hpp"
#include "tree/clock_tree.hpp"

namespace wmbench {

/// Work counts gathered at the layer boundaries (deterministic).
struct LayerCounts {
  std::uint64_t intersections = 0;  ///< feasible intersections enumerated
  std::uint64_t intersections_evaluated = 0;
  std::uint64_t zone_evaluations = 0;  ///< (intersection, zone) lookups
  std::uint64_t memo_hits = 0;
  std::uint64_t noise_calls = 0;        ///< build_zone_mosp calls
  std::uint64_t noise_vertices = 0;     ///< MOSP vertices built
  std::uint64_t noise_vertex_dims = 0;  ///< sum of vertices x dims
  std::uint64_t mosp_solves = 0;
  std::uint64_t labels_created = 0;
  std::uint64_t labels_pruned_incumbent = 0;
  std::uint64_t labels_pruned_pre = 0;
  std::uint64_t labels_merged_grid = 0;
  std::uint64_t frontier_peak_max = 0;
  std::uint64_t beam_capped_solves = 0;
  std::uint64_t arena_peak_bytes_max = 0;
  std::uint64_t adb_inserted = 0;
};

struct ReplayResult {
  bool success = false;     ///< a feasible intersection was found
  double model_peak = 0.0;  ///< winning worst cost (uA)
};

/// Per-layer self times (ms) of one replayed pass.
struct LayerTimes {
  double preprocess = 0.0;
  double intervals = 0.0;
  double build_slots = 0.0;
  double noise_model = 0.0;
  double mosp = 0.0;
  double mosp_heaviest = 0.0;  ///< longest single dispatch_solve
  double wavemin = 0.0;        ///< memo, winner choice, assignment
  double adb = 0.0;
};

/// Self times of the spans in [from, tracer.size()).
LayerTimes layer_times(const Tracer& tracer, std::size_t from);

/// Put every in-process per-layer metric: `passes` are reduced to their
/// medians, `counts` are one pass's (deterministic) work counts.
void put_layer_metrics(Outcome& out, double characterize_ms,
                       const std::vector<LayerTimes>& passes,
                       const LayerCounts& counts);

/// Print the per-layer suite totals (the ROADMAP baseline table).
void print_layer_table(const std::string& workload, double characterize_ms,
                       const std::vector<LayerTimes>& passes,
                       const LayerCounts& counts, double traced_pass_ms,
                       double untraced_pass_ms);

/// run_wavemin(tree, lib, chr, modes, lib.assignment_library(), opts),
/// replayed: applies the winning assignment to `tree`.
ReplayResult replay_wavemin(wm::ClockTree& tree, const wm::CellLibrary& lib,
                            const wm::Characterizer& chr,
                            const wm::ModeSet& modes,
                            const wm::WaveMinOptions& opts, Tracer& tracer,
                            std::uint32_t trace, LayerCounts& counts);

/// clk_wavemin_m, replayed: the sizing-only pass, then (when it finds
/// no feasible intersection) ADB allocation and the re-optimization,
/// widened to the full enumeration if the DOF beam left nothing.
ReplayResult replay_wavemin_m(wm::ClockTree& tree, const wm::CellLibrary& lib,
                              const wm::Characterizer& chr,
                              const wm::ModeSet& modes,
                              const wm::WaveMinOptions& opts, Tracer& tracer,
                              std::uint32_t trace, LayerCounts& counts);

} // namespace wmbench
