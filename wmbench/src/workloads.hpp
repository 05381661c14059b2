#pragma once
// The four workloads. Each prints its human-readable report to stdout
// and returns the verdict main() turns into the final JSON line.

#include <string>

#include "common.hpp"
#include "designs.hpp"

namespace wmbench {

/// suite-wm, suite-wmf and multimode: the seven suite circuits solved
/// in process, single-threaded, one pass after another.
Outcome run_inproc(const Args& args, Algo algo);

/// serve-mix: a wavemin_served worker pool driven by one closed-loop
/// client process. `served` is the daemon binary.
Outcome run_serve_mix(const Args& args, const std::string& served);

} // namespace wmbench
