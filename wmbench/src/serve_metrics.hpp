#pragma once
// The serve layer's per-layer metrics. Every traced run reports the same
// metric set, so in-process workloads, where the daemon does not run,
// report zeros.

#include "common.hpp"

namespace wmbench {

struct ServeLayer {
  double submit_ack_ms = 0.0;       ///< median submit -> admission reply
  double queue_wait_p95_ms = 0.0;   ///< admission -> first seen running
  double light_latency_p50_ms = 0.0;
  double heavy_latency_p50_ms = 0.0;
  double shards_done = 0.0;         ///< daemon counter serve.shards_done
  double retries = 0.0;             ///< daemon counter serve.retries
  double queue_depth_max = 0.0;     ///< largest sampled stats queue_depth
};

inline void put_serve_metrics(Outcome& out, const ServeLayer& s) {
  out.put("serve.submit_ack_ms", s.submit_ack_ms, "ms");
  out.put("serve.queue_wait_p95_ms", s.queue_wait_p95_ms, "ms");
  out.put("serve.light_latency_p50_ms", s.light_latency_p50_ms, "ms");
  out.put("serve.heavy_latency_p50_ms", s.heavy_latency_p50_ms, "ms");
  out.put("serve.shards_done", s.shards_done, "count");
  out.put("serve.retries", s.retries, "count");
  out.put("serve.queue_depth_max", s.queue_depth_max, "count");
}

} // namespace wmbench
