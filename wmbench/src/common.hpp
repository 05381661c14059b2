#pragma once
// Shared plumbing of wmbench: run arguments, the result it prints,
// timing and order statistics.

#include <time.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace wmbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// CPU time of the whole process (every thread, user + system), ms.
/// The in-process workloads time with it: they run one thread that
/// never blocks, so on an unshared core it equals wall time, while on a
/// shared host it leaves out the time the hypervisor steals from the
/// guest. On a shared 4-vCPU VM, steal moved wall-time suite passes by
/// up to 2.3x while their CPU time moved by 14 %.
inline double cpu_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Bit-for-bit equality of two doubles (the replay's objective check).
inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;  ///< 0 = the paper suite as shipped
  bool regenerate = false; ///< regenerate the circuits from the seed
  double seconds = 10.0;   ///< measured window of one run
  bool trace = false;      ///< per-layer replay instead of end-to-end
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One run's verdict: what the final JSON line reports. Metrics keep
/// their insertion order so the printed line is stable.
struct Outcome {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> errors;  ///< every failed output check
  std::vector<Metric> metrics;

  void put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Record a failed check; `counts` adds it to `failed` (a design or
  /// job that did not come back correct), else it only fails the run.
  void fail(const std::string& why, bool counts = true) {
    errors.push_back(why);
    if (counts) ++failed;
  }
  bool correct() const { return errors.empty(); }
};

/// Median of a sample (mean of the middle pair for even sizes); 0 when
/// empty.
double median(std::vector<double> v);

/// Nearest-rank percentile, q in [0, 1]; 0 when empty.
double percentile(std::vector<double> v, double q);

/// Peak resident set of this process (self) or of its reaped children,
/// in MB.
double peak_rss_mb(bool children);

/// splitmix64: the derived-seed mixer for designs and job draws.
std::uint64_t mix64(std::uint64_t x);

} // namespace wmbench
