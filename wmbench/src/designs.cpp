#include "designs.hpp"

#include <algorithm>

#include "timing/arrival.hpp"
#include "util/error.hpp"
#include "verify/verify.hpp"

namespace wmbench {

namespace {

constexpr double kSkewTolerance = 1.05;  // table7_multi_mode's skew_ok

} // namespace

std::vector<wm::BenchmarkSpec> suite_specs(std::uint64_t seed,
                                           bool regenerate) {
  std::vector<wm::BenchmarkSpec> specs = wm::benchmark_suite();
  if (regenerate && seed != 0) {
    for (wm::BenchmarkSpec& s : specs) s.seed = mix64(s.seed ^ mix64(seed));
  }
  return specs;
}

wm::BenchmarkSpec suite_spec(const std::string& name, std::uint64_t seed,
                             bool regenerate) {
  for (const wm::BenchmarkSpec& s : suite_specs(seed, regenerate)) {
    if (s.name == name) return s;
  }
  throw wm::Error("unknown suite circuit " + name);
}

wm::WaveMinOptions settings(Algo algo) {
  wm::WaveMinOptions o;
  o.threads = 1;
  o.epsilon = 0.01;
  if (algo == Algo::WaveMinM) {
    o.kappa = 110.0;
    o.samples = 32;
    o.dof_beam = 64;
  } else {
    o.kappa = 20.0;
    o.samples = 158;
    if (algo == Algo::WaveMinF) o.solver = wm::SolverKind::Greedy;
  }
  return o;
}

wm::ModeSet single_mode_set(const wm::ClockTree& tree) {
  int max_island = 0;
  for (const wm::TreeNode& n : tree.nodes()) {
    max_island = std::max(max_island, n.island);
  }
  return wm::ModeSet::single(max_island + 1);
}

void check_output(const std::string& name, const wm::ClockTree& tree,
                  const wm::ModeSet& modes, double kappa, Outcome& out) {
  const wm::verify::Report rep = wm::verify::check_tree(tree);
  if (rep.error_count() != 0) {
    out.fail(name + ": check_tree reports " +
             std::to_string(rep.error_count()) + " error(s)");
  }
  for (std::size_t m = 0; m < modes.count(); ++m) {
    const double skew = wm::compute_arrivals(tree, modes, m).skew();
    if (skew > kappa * kSkewTolerance) {
      out.fail(name + ": mode " + std::to_string(m) + " skew " +
               std::to_string(skew) + " ps over kappa " +
               std::to_string(kappa) + " ps");
    }
  }
}

} // namespace wmbench
