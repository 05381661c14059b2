// wmbench — the end-to-end WaveMin benchmark program (see ../README.md).
//
//   wmbench --workload <suite-wm|suite-wmf|multimode|serve-mix>
//           [--seed n] [--seconds s] [--trace 0|1] [--regenerate 0|1]
//           [--served path]
//
// Prints a human-readable report, an environment stamp line
// {"wmbench_stamp": ...} and, last, one JSON object
// {"correct", "attempted", "failed", "metrics"}. The same stamp and
// result also land in result.json in the working directory. Exit 0 when
// every output check passed, 1 when one failed, 2 on a usage or
// environment error (no result printed).

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "mosp/vecops.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace {

using namespace wmbench;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "wmbench: %s\n"
               "usage: wmbench --workload "
               "<suite-wm|suite-wmf|multimode|serve-mix> [--seed n] "
               "[--seconds s] [--trace 0|1] [--regenerate 0|1] "
               "[--served path]\n",
               why.c_str());
  std::exit(2);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

wm::json::Value stamp(const Args& a, Algo algo) {
  using wm::json::Value;
  const wm::WaveMinOptions o = settings(algo);
  Value v = Value::object_v();
  v.set("workload", Value::string_v(a.workload));
  v.set("seed", Value::number_v(a.seed));
  v.set("regenerate", Value::boolean_v(a.regenerate));
  v.set("seconds", Value::number_v(a.seconds));
  v.set("trace", Value::boolean_v(a.trace));
  v.set("build_type", Value::string_v(WMBENCH_BUILD_TYPE));
  v.set("compiler", Value::string_v(WMBENCH_COMPILER));
  v.set("cpu", Value::string_v(cpu_model()));
  v.set("nproc", Value::number_v(
                     static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN))));
  v.set("mosp_kernel",
        Value::string_v(wm::mosp::vec_ops(o.mosp_kernel).name));
  v.set("samples", Value::number_v(o.samples));
  v.set("kappa_ps", Value::number_v(o.kappa));
  v.set("epsilon", Value::number_v(o.epsilon));
  v.set("dof_beam", Value::number_v(static_cast<double>(o.dof_beam)));
  v.set("threads", Value::number_v(static_cast<double>(o.threads)));
  return v;
}

/// The result line. Numbers keep every digit (%.17g).
std::string result_json(const Outcome& out) {
  std::ostringstream os;
  os << "{\"correct\": " << (out.correct() ? "true" : "false")
     << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : out.metrics) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", m.value);
    os << (first ? "" : ", ") << wm::json::quote(m.name)
       << ": {\"value\": " << num
       << ", \"unit\": " << wm::json::quote(m.unit) << "}";
    first = false;
  }
  os << "}}";
  return os.str();
}

} // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  // Debug builds default WaveMinOptions::verify_invariants on, which
  // would time the verify hooks instead of the optimizer.
  std::fprintf(stderr, "wmbench: refusing to run a build without NDEBUG\n");
  return 2;
#endif
  Args args;
  std::string served = "wavemin_served";
  for (int i = 1; i < argc; ++i) {
    const std::string t = argv[i];
    if (i + 1 >= argc) usage("missing value for " + t);
    const std::string v = argv[++i];
    if (t == "--workload") {
      args.workload = v;
    } else if (t == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (t == "--seconds") {
      args.seconds = std::atof(v.c_str());
    } else if (t == "--regenerate") {
      args.regenerate = v == "1";
    } else if (t == "--trace") {
      args.trace = v == "1";
    } else if (t == "--served") {
      served = v;
    } else {
      usage("unknown option " + t);
    }
  }
  if (!(args.seconds > 0.0 && args.seconds <= 120.0)) {
    usage("--seconds must be in (0, 120]");
  }
  Algo algo = Algo::WaveMin;
  if (args.workload == "suite-wmf") {
    algo = Algo::WaveMinF;
  } else if (args.workload == "multimode") {
    algo = Algo::WaveMinM;
  } else if (args.workload != "suite-wm" && args.workload != "serve-mix") {
    usage("unknown workload '" + args.workload + "'");
  }

  const std::string stamp_line =
      "{\"wmbench_stamp\": " + wm::json::dump(stamp(args, algo)) + "}";
  std::fprintf(stderr, "%s\n", stamp_line.c_str());

  Outcome out;
  try {
    out = args.workload == "serve-mix" ? run_serve_mix(args, served)
                                       : run_inproc(args, algo);
  } catch (const std::exception& e) {
    out.fail(std::string("run aborted: ") + e.what());
  }
  if (out.attempted < out.failed) out.attempted = out.failed;
  if (out.attempted == 0) out.attempted = 1;

  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "wmbench: FAILED CHECK: %s\n", e.c_str());
  }
  for (const Metric& m : out.metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const std::string result = result_json(out);
  std::ofstream("result.json") << stamp_line << "\n" << result << "\n";
  std::printf("%s\n%s\n", stamp_line.c_str(), result.c_str());
  std::fflush(stdout);
  return out.correct() ? 0 : 1;
}
