#include "replay.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "adb/allocation.hpp"
#include "core/candidates.hpp"
#include "core/intervals.hpp"
#include "core/noise_model.hpp"
#include "core/sampling.hpp"
#include "core/solver_dispatch.hpp"
#include "mosp/solver.hpp"
#include "tree/zone.hpp"
#include "util/error.hpp"

namespace wmbench {

namespace {

/// Full memo key: zone index plus the masks of the zone's sinks.
using ZoneKey = std::pair<std::size_t, std::vector<std::uint32_t>>;

struct ZoneSolution {
  double worst = 0.0;
  std::vector<int> choice;
};

double median_of(const std::vector<LayerTimes>& passes,
                 double LayerTimes::*field) {
  std::vector<double> v;
  v.reserve(passes.size());
  for (const LayerTimes& t : passes) v.push_back(t.*field);
  return median(std::move(v));
}

} // namespace

LayerTimes layer_times(const Tracer& tracer, std::size_t from) {
  const std::map<std::string, double> self = tracer.self_ms(from);
  auto get = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  LayerTimes t;
  t.preprocess = get("candidates");
  t.intervals = get("intervals");
  t.build_slots = get("sampling");
  t.noise_model = get("noise_model");
  t.mosp = get("mosp");
  t.mosp_heaviest = tracer.max_ms("mosp", from);
  t.wavemin = get("wavemin");
  t.adb = get("adb");
  return t;
}

void put_layer_metrics(Outcome& out, double characterize_ms,
                       const std::vector<LayerTimes>& passes,
                       const LayerCounts& c) {
  auto count = [&](const char* name, std::uint64_t v) {
    out.put(name, static_cast<double>(v), "count");
  };
  const double noise_ms = median_of(passes, &LayerTimes::noise_model);
  out.put("cells.characterize_ms", characterize_ms, "ms");
  out.put("candidates.preprocess_ms",
          median_of(passes, &LayerTimes::preprocess), "ms");
  out.put("intervals.enumerate_ms", median_of(passes, &LayerTimes::intervals),
          "ms");
  count("intervals.count", c.intersections);
  out.put("sampling.build_slots_ms",
          median_of(passes, &LayerTimes::build_slots), "ms");
  out.put("noise_model.build_ms", noise_ms, "ms");
  count("noise_model.calls", c.noise_calls);
  count("noise_model.vertices", c.noise_vertices);
  out.put("noise_model.ns_per_vertex_dim",
          c.noise_vertex_dims > 0
              ? noise_ms * 1e6 / static_cast<double>(c.noise_vertex_dims)
              : 0.0,
          "ns");
  out.put("mosp.solve_ms", median_of(passes, &LayerTimes::mosp), "ms");
  count("mosp.solves", c.mosp_solves);
  out.put("mosp.heaviest_solve_ms",
          median_of(passes, &LayerTimes::mosp_heaviest), "ms");
  count("mosp.labels_created", c.labels_created);
  count("mosp.labels_pruned_incumbent", c.labels_pruned_incumbent);
  count("mosp.labels_pruned_pre", c.labels_pruned_pre);
  count("mosp.labels_merged_grid", c.labels_merged_grid);
  count("mosp.frontier_peak_max", c.frontier_peak_max);
  count("mosp.beam_capped_solves", c.beam_capped_solves);
  out.put("mosp.arena_peak_mb_max",
          static_cast<double>(c.arena_peak_bytes_max) / (1024.0 * 1024.0),
          "MB");
  out.put("wavemin.self_ms", median_of(passes, &LayerTimes::wavemin), "ms");
  count("wavemin.intersections_evaluated", c.intersections_evaluated);
  count("wavemin.zone_evaluations", c.zone_evaluations);
  out.put("wavemin.memo_hit_ratio",
          c.zone_evaluations > 0 ? static_cast<double>(c.memo_hits) /
                                       static_cast<double>(c.zone_evaluations)
                                 : 0.0,
          "1");
  out.put("adb.allocate_ms", median_of(passes, &LayerTimes::adb), "ms");
  count("adb.inserted", c.adb_inserted);
}

void print_layer_table(const std::string& workload, double characterize_ms,
                       const std::vector<LayerTimes>& passes,
                       const LayerCounts& c, double traced_pass_ms,
                       double untraced_pass_ms) {
  struct Row {
    const char* layer;
    double ms;
    std::string note;
  };
  const double mosp = median_of(passes, &LayerTimes::mosp);
  const Row rows[] = {
      {"cells (Characterizer, set-up)", characterize_ms, "once per run"},
      {"candidates (preprocess)", median_of(passes, &LayerTimes::preprocess),
       ""},
      {"intervals (enumerate)", median_of(passes, &LayerTimes::intervals),
       std::to_string(c.intersections) + " intersections"},
      {"sampling (build_slots)", median_of(passes, &LayerTimes::build_slots),
       ""},
      {"noise_model (build_zone_mosp)",
       median_of(passes, &LayerTimes::noise_model),
       std::to_string(c.noise_calls) + " graphs, " +
           std::to_string(c.noise_vertices) + " vertices"},
      {"mosp (dispatch_solve)", mosp,
       std::to_string(c.mosp_solves) + " solves, " +
           std::to_string(c.beam_capped_solves) + " beam-capped"},
      {"wavemin (memo, winner, assign)",
       median_of(passes, &LayerTimes::wavemin),
       std::to_string(c.memo_hits) + "/" + std::to_string(c.zone_evaluations) +
           " memo hits"},
      {"adb (allocate_adbs)", median_of(passes, &LayerTimes::adb),
       std::to_string(c.adb_inserted) + " inserted"},
  };
  std::printf("\nPer-layer self CPU time, %s, one pass over every design "
              "(median of %zu traced passes)\n\n",
              workload.c_str(), passes.size());
  std::printf("  %-32s %10s  %s\n", "layer", "ms", "note");
  for (const Row& r : rows) {
    std::printf("  %-32s %10.2f  %s\n", r.layer, r.ms, r.note.c_str());
  }
  std::printf("  %-32s %10.2f  untraced %.2f ms\n\n", "traced pass",
              traced_pass_ms, untraced_pass_ms);
}

ReplayResult replay_wavemin(wm::ClockTree& tree, const wm::CellLibrary& lib,
                            const wm::Characterizer& chr,
                            const wm::ModeSet& modes,
                            const wm::WaveMinOptions& opts, Tracer& tracer,
                            std::uint32_t trace, LayerCounts& counts) {
  using namespace wm;
  const ZoneMap zones(tree, opts.zone_tile);
  const Preprocessed pre = [&] {
    Tracer::Scope s(tracer, "candidates", trace);
    return preprocess(tree, zones, modes, lib.assignment_library(), chr,
                      lib);
  }();

  std::vector<std::vector<std::size_t>> zone_sinks(zones.zones().size());
  for (std::size_t s = 0; s < pre.sinks.size(); ++s) {
    zone_sinks[static_cast<std::size_t>(pre.sinks[s].zone)].push_back(s);
  }

  const std::vector<Intersection> inters = [&] {
    Tracer::Scope s(tracer, "intervals", trace);
    return enumerate_intersections(pre, opts.kappa - opts.skew_guard_band,
                                   opts.dof_beam);
  }();
  counts.intersections += inters.size();
  if (inters.empty()) return {};

  std::map<ZoneKey, ZoneSolution> memo;
  auto key_of = [&](std::size_t z, const Intersection& x) {
    ZoneKey k{z, {}};
    k.second.reserve(zone_sinks[z].size());
    for (std::size_t s : zone_sinks[z]) k.second.push_back(x.masks[s]);
    return k;
  };

  double best_worst = 0.0;
  const Intersection* best_x = nullptr;
  std::vector<std::vector<int>> best_choices;
  for (const Intersection& x : inters) {
    ++counts.intersections_evaluated;
    double global_worst = 0.0;
    std::vector<std::vector<int>> choices(zones.zones().size());
    for (std::size_t z = 0; z < zones.zones().size(); ++z) {
      if (zone_sinks[z].empty()) continue;
      ++counts.zone_evaluations;
      ZoneKey key = key_of(z, x);
      auto it = memo.find(key);
      if (it != memo.end()) {
        ++counts.memo_hits;
      } else {
        const std::vector<SampleSlot> slots = [&] {
          Tracer::Scope s(tracer, "sampling", trace);
          return build_slots(pre, zone_sinks[z], x, opts.samples,
                             opts.period);
        }();
        const MospGraph g = [&] {
          Tracer::Scope s(tracer, "noise_model", trace);
          return build_zone_mosp(pre, zone_sinks[z], zones.zones()[z], x, chr,
                                 modes, slots, opts);
        }();
        ++counts.noise_calls;
        counts.noise_vertices += g.vertex_count();
        counts.noise_vertex_dims +=
            g.vertex_count() * static_cast<std::uint64_t>(g.dims);
        MospStats st;
        const MospSolution sol = [&] {
          Tracer::Scope s(tracer, "mosp", trace);
          return dispatch_solve(g, opts, &st);
        }();
        ++counts.mosp_solves;
        counts.labels_created += st.labels_created;
        counts.labels_pruned_incumbent += st.labels_pruned_incumbent;
        counts.labels_pruned_pre += st.labels_pruned_pre;
        counts.labels_merged_grid += st.labels_merged_grid;
        counts.frontier_peak_max =
            std::max<std::uint64_t>(counts.frontier_peak_max, st.frontier_peak);
        if (st.beam_capped) ++counts.beam_capped_solves;
        counts.arena_peak_bytes_max =
            std::max(counts.arena_peak_bytes_max, st.arena_peak_bytes);
        it = memo.emplace(std::move(key), ZoneSolution{sol.worst, sol.choice})
                 .first;
      }
      global_worst = std::max(global_worst, it->second.worst);
      choices[z] = it->second.choice;
    }
    if (best_x == nullptr || global_worst < best_worst) {
      best_worst = global_worst;
      best_x = &x;
      best_choices = std::move(choices);
    }
  }

  for (std::size_t z = 0; z < zone_sinks.size(); ++z) {
    const std::vector<std::size_t>& sinks = zone_sinks[z];
    const std::vector<int>& choice = best_choices[z];
    WM_REQUIRE(choice.size() == sinks.size(), "replay: choice/sink mismatch");
    for (std::size_t i = 0; i < sinks.size(); ++i) {
      const SinkInfo& sink = pre.sinks[sinks[i]];
      const Candidate& cand =
          sink.candidates[static_cast<std::size_t>(choice[i])];
      tree.set_cell(sink.id, cand.cell);
      TreeNode& node = tree.node(sink.id);
      node.adj_codes = cand.adj_codes;
      node.xor_negative = cand.xor_negative;
      node.cell_extra_delay = cand.cell_extra_delay;
    }
  }
  return {true, best_worst};
}

ReplayResult replay_wavemin_m(wm::ClockTree& tree, const wm::CellLibrary& lib,
                              const wm::Characterizer& chr,
                              const wm::ModeSet& modes,
                              const wm::WaveMinOptions& opts, Tracer& tracer,
                              std::uint32_t trace, LayerCounts& counts) {
  ReplayResult r =
      replay_wavemin(tree, lib, chr, modes, opts, tracer, trace, counts);
  if (r.success) return r;
  {
    Tracer::Scope s(tracer, "adb", trace);
    const wm::AdbAllocationResult a =
        wm::allocate_adbs(tree, lib, modes, opts.kappa);
    counts.adb_inserted +=
        static_cast<std::uint64_t>(std::max(0, a.adbs_inserted));
  }
  r = replay_wavemin(tree, lib, chr, modes, opts, tracer, trace, counts);
  if (!r.success && opts.dof_beam != 0) {
    wm::WaveMinOptions wide = opts;
    wide.dof_beam = 0;
    r = replay_wavemin(tree, lib, chr, modes, wide, tracer, trace, counts);
  }
  return r;
}

} // namespace wmbench
