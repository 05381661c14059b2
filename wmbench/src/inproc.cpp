// suite-wm, suite-wmf, multimode: the suite solved in process.
//
// End-to-end run: set-up (library, Characterizer, design generation)
// several times, then whole passes over the seven circuits through the
// public entry points until the window closes. Traced run: a shorter
// untraced phase (the baseline for the trace overhead and the reference
// outputs), then passes of the span-recording replay. Every time here
// is process CPU time (cpu_ms); the window itself is wall time.

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cells/characterizer.hpp"
#include "cells/library.hpp"
#include "core/evaluate.hpp"
#include "core/wavemin.hpp"
#include "core/wavemin_m.hpp"
#include "io/tree_io.hpp"
#include "replay.hpp"
#include "serve_metrics.hpp"
#include "workloads.hpp"

namespace wmbench {

namespace {

constexpr int kSetupReps = 15;
constexpr int kMinPasses = 3;

struct Design {
  wm::BenchmarkSpec spec;
  wm::ModeSet modes;
  const wm::Characterizer* chr = nullptr;
  wm::ClockTree tree;  ///< unoptimized input
};

/// Everything a pass reads. Not movable: trees and characterizers
/// point into `lib`.
struct Setup {
  Setup() : lib(wm::CellLibrary::nangate45_like()) {}
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;

  wm::CellLibrary lib;
  std::map<std::vector<wm::Volt>, std::unique_ptr<wm::Characterizer>> chrs;
  std::vector<Design> designs;
  double characterize_ms = 0.0;
};

wm::ModeSet modes_for(const wm::BenchmarkSpec& spec, const wm::ClockTree& t,
                      Algo algo) {
  return algo == Algo::WaveMinM ? wm::make_mode_set(spec)
                                : single_mode_set(t);
}

std::unique_ptr<Setup> build_setup(Algo algo, const Args& args) {
  auto s = std::make_unique<Setup>();
  for (const wm::BenchmarkSpec& spec :
       suite_specs(args.seed, args.regenerate)) {
    wm::ClockTree tree = wm::make_benchmark(spec, s->lib);
    wm::ModeSet modes = modes_for(spec, tree, algo);
    wm::CharacterizerOptions co;
    if (algo == Algo::WaveMinM) co.vdds = modes.distinct_vdds();
    std::unique_ptr<wm::Characterizer>& chr = s->chrs[co.vdds];
    if (chr == nullptr) {
      const double t0 = cpu_ms();
      chr = std::make_unique<wm::Characterizer>(s->lib, co);
      s->characterize_ms += cpu_ms() - t0;
    }
    s->designs.push_back({spec, std::move(modes), chr.get(), std::move(tree)});
  }
  return s;
}

struct Solved {
  bool ok = false;  ///< success and not degraded
  double model_peak = 0.0;
};

Solved solve(Algo algo, const Setup& s, const Design& d, wm::ClockTree& tree,
             const wm::WaveMinOptions& opts) {
  wm::WaveMinResult r;
  switch (algo) {
    case Algo::WaveMin:
      r = wm::clk_wavemin(tree, s.lib, *d.chr, opts);
      break;
    case Algo::WaveMinF:
      r = wm::clk_wavemin_f(tree, s.lib, *d.chr, opts);
      break;
    case Algo::WaveMinM:
      r = wm::clk_wavemin_m(tree, s.lib, *d.chr, d.modes, opts).opt;
      break;
  }
  return {r.success && !r.report.degraded(), r.model_peak};
}

std::vector<wm::ClockTree> fresh_trees(const Setup& s) {
  std::vector<wm::ClockTree> trees;
  trees.reserve(s.designs.size());
  for (const Design& d : s.designs) trees.push_back(d.tree.clone());
  return trees;
}

/// Reference outputs of the first end-to-end pass; later passes and the
/// replay must reproduce them exactly.
struct Reference {
  std::vector<wm::ClockTree> trees;
  std::vector<std::string> text;
  std::vector<double> model_peak;
};

/// Untraced passes through the public entry points until `budget_ms`
/// has elapsed (at least kMinPasses). Fills per-pass CPU and wall times,
/// per-design CPU times and, from the first pass, the reference.
void timed_passes(Algo algo, const Setup& s, const wm::WaveMinOptions& opts,
                  double budget_ms, std::vector<double>& pass_ms,
                  std::vector<double>& pass_wall_ms,
                  std::vector<std::vector<double>>& design_ms,
                  Reference& ref, Outcome& out) {
  design_ms.assign(s.designs.size(), {});
  const Clock::time_point window = Clock::now();
  while (pass_ms.size() < kMinPasses || ms_since(window) < budget_ms) {
    std::vector<wm::ClockTree> trees = fresh_trees(s);
    std::vector<Solved> solved(s.designs.size());
    const Clock::time_point wall0 = Clock::now();
    const double p0 = cpu_ms();
    for (std::size_t i = 0; i < s.designs.size(); ++i) {
      const double t0 = cpu_ms();
      solved[i] = solve(algo, s, s.designs[i], trees[i], opts);
      design_ms[i].push_back(cpu_ms() - t0);
    }
    pass_ms.push_back(cpu_ms() - p0);
    pass_wall_ms.push_back(ms_since(wall0));

    const bool first = ref.trees.empty();
    for (std::size_t i = 0; i < s.designs.size(); ++i) {
      ++out.attempted;
      const std::string& name = s.designs[i].spec.name;
      if (!solved[i].ok) {
        out.fail(name + ": infeasible or degraded");
        continue;
      }
      std::string text = wm::tree_to_string(trees[i]);
      if (first) {
        ref.text.push_back(std::move(text));
        ref.model_peak.push_back(solved[i].model_peak);
      } else if (i >= ref.text.size() || text != ref.text[i] ||
                 !same_bits(solved[i].model_peak, ref.model_peak[i])) {
        out.fail(name + ": output differs between passes");
      }
    }
    if (first) ref.trees = std::move(trees);
    if (!out.correct()) return;  // no point timing wrong answers
  }
}

void put_end_to_end(Algo algo, const Setup& s, const Reference& ref,
                    double setup_s, const std::vector<double>& pass_ms,
                    const std::vector<double>& pass_wall_ms,
                    const std::vector<std::vector<double>>& design_ms,
                    Outcome& out) {
  double model = 0.0, peak = 0.0, noise = 0.0;
  for (std::size_t i = 0; i < ref.trees.size(); ++i) {
    model += ref.model_peak[i];
    // Table V evaluates single-mode trees in the nominal mode at 1 ps;
    // Table VII every power mode at 2 ps.
    const wm::Evaluation e =
        algo == Algo::WaveMinM
            ? wm::evaluate_design(ref.trees[i], s.designs[i].modes, 2.0)
            : wm::evaluate_design(ref.trees[i]);
    peak += e.peak_current;
    noise += e.vdd_noise + e.gnd_noise;
  }
  std::vector<double> all;
  double worst = 0.0, busy_ms = 0.0;
  for (const std::vector<double>& d : design_ms) {
    all.insert(all.end(), d.begin(), d.end());
    worst = std::max(worst, median(d));
  }
  for (double p : pass_ms) busy_ms += p;
  out.put("setup_s", setup_s, "s");
  out.put("suite_ms", median(pass_ms), "ms");
  out.put("worst_design_ms", worst, "ms");
  out.put("peak_rss_mb", peak_rss_mb(false), "MB");
  out.put("model_peak_ua", model, "uA");
  out.put("validated_peak_ua", peak, "uA");
  out.put("validated_noise_mv", noise, "mV");
  out.put("jobs_per_s", static_cast<double>(all.size()) / (busy_ms / 1000.0),
          "1/s");
  out.put("latency_p50_ms", percentile(all, 0.50), "ms");
  out.put("latency_p90_ms", percentile(all, 0.90), "ms");
  std::printf("%zu passes x %zu designs, %zu design solves timed\n"
              "pass CPU ms :", pass_ms.size(), s.designs.size(), all.size());
  for (double p : pass_ms) std::printf(" %.1f", p);
  std::printf("\npass wall ms:");
  for (double p : pass_wall_ms) std::printf(" %.1f", p);
  std::printf("\n");
}

} // namespace

Outcome run_inproc(const Args& args, Algo algo) {
  Outcome out;
  const wm::WaveMinOptions opts = settings(algo);

  std::vector<double> setup_ms, characterize_ms;
  std::unique_ptr<Setup> s;
  for (int k = 0; k < kSetupReps; ++k) {
    s.reset();
    const double t0 = cpu_ms();
    s = build_setup(algo, args);
    setup_ms.push_back(cpu_ms() - t0);
    characterize_ms.push_back(s->characterize_ms);
  }

  const double window_ms = args.seconds * 1000.0;
  std::vector<double> pass_ms, pass_wall_ms;
  std::vector<std::vector<double>> design_ms;
  Reference ref;
  // The traced run spends 40 % of its window untraced: the overhead
  // baseline and the reference outputs the replay must reproduce.
  timed_passes(algo, *s, opts, args.trace ? 0.4 * window_ms : window_ms,
               pass_ms, pass_wall_ms, design_ms, ref, out);
  if (!out.correct()) return out;
  for (std::size_t i = 0; i < ref.trees.size(); ++i) {
    check_output(s->designs[i].spec.name, ref.trees[i], s->designs[i].modes,
                 opts.kappa, out);
  }

  if (!args.trace) {
    put_end_to_end(algo, *s, ref, median(setup_ms) / 1000.0, pass_ms,
                   pass_wall_ms, design_ms, out);
    return out;
  }

  Tracer tracer;
  std::vector<LayerTimes> layers;
  std::vector<double> traced_ms, unattributed_ms;
  LayerCounts counts;
  const Clock::time_point window = Clock::now();
  while (layers.size() < kMinPasses || ms_since(window) < 0.6 * window_ms) {
    std::vector<wm::ClockTree> trees = fresh_trees(*s);
    LayerCounts pass_counts;
    std::vector<ReplayResult> replayed(trees.size());
    const std::size_t from = tracer.size();
    const double p0 = cpu_ms();
    for (std::size_t i = 0; i < trees.size(); ++i) {
      const Design& d = s->designs[i];
      const auto trace = static_cast<std::uint32_t>(i + 1);
      Tracer::Scope root(tracer, "wavemin", trace);
      replayed[i] =
          algo == Algo::WaveMinM
              ? replay_wavemin_m(trees[i], s->lib, *d.chr, d.modes, opts,
                                 tracer, trace, pass_counts)
              : replay_wavemin(trees[i], s->lib, *d.chr, d.modes, opts,
                               tracer, trace, pass_counts);
    }
    const double pass = cpu_ms() - p0;
    traced_ms.push_back(pass);
    unattributed_ms.push_back(pass - tracer.root_ms(from));
    layers.push_back(layer_times(tracer, from));
    counts = pass_counts;

    for (std::size_t i = 0; i < trees.size(); ++i) {
      const std::string& name = s->designs[i].spec.name;
      if (!replayed[i].success ||
          !same_bits(replayed[i].model_peak, ref.model_peak[i])) {
        out.fail(name + ": replay objective " +
                 std::to_string(replayed[i].model_peak) +
                 " != model_peak " + std::to_string(ref.model_peak[i]));
      } else if (wm::tree_to_string(trees[i]) != ref.text[i]) {
        out.fail(name + ": replay assignment differs from the entry point's");
      }
    }
    if (!out.correct()) return out;
  }
  tracer.write_jsonl("spans.jsonl");

  const double traced = median(traced_ms);
  const double untraced = median(pass_ms);
  print_layer_table(args.workload, median(characterize_ms), layers,
                    counts, traced, untraced);
  put_layer_metrics(out, median(characterize_ms), layers, counts);
  put_serve_metrics(out, ServeLayer{});
  out.put("bench.trace_overhead_pct", 100.0 * (traced - untraced) / untraced,
          "%");
  out.put("bench.unattributed_ms", median(unattributed_ms), "ms");
  return out;
}

} // namespace wmbench
