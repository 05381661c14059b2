// serve-mix: a wavemin_served worker pool under a closed-loop client.
//
// Set-up (untimed): the two designs are generated and written as
// .ctree files, solved in process for the reference outputs, and the
// library + LUT are compiled into a wavemin.blob/v1 file. The timed
// set-up is daemon boot until every pool worker has restored the blob.
//
// The job mix is light s15850 ClkWaveMin-f jobs beside heavy s35932
// ClkWaveMin jobs: every block of kBlock jobs holds kHeavyPerBlock
// heavy ones at an offset the run seed chooses, so the mix and spacing
// are fixed while the order varies. This process is the one client: it
// keeps up to kOutstanding submits in flight and sends the next only
// when one completes (closed loop).
//
// End-to-end jobs submit with "wait": true and time send -> terminal
// reply. The traced phase instead submits with "wait": false (the
// admission reply times the submit) and polls status to see each job
// start and finish; the daemon's own gauges are not on the wire.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cells/characterizer.hpp"
#include "cells/library.hpp"
#include "core/evaluate.hpp"
#include "core/wavemin.hpp"
#include "io/blob.hpp"
#include "io/tree_io.hpp"
#include "replay.hpp"
#include "serve/protocol.hpp"
#include "serve_metrics.hpp"
#include "util/json.hpp"
#include "util/posix_io.hpp"
#include "workloads.hpp"

namespace wmbench {

namespace {

namespace fs = std::filesystem;

constexpr int kBootReps = 9;
constexpr int kPoolWorkers = 3;
constexpr int kOutstandingMax = 4;
constexpr int kBlock = 16;
constexpr int kHeavyPerBlock = 1;
constexpr double kBootTimeoutMs = 30000.0;
constexpr double kPollMs = 2.0;       // traced status polling cadence
constexpr double kStatsPollMs = 20.0;  // traced queue-depth sampling
const char* const kSocket = "wm.sock";
const char* const kSpool = "spool";
const char* const kBlob = "lib.wmblob";

/// One design of the mix, with its in-process reference result.
struct Kind {
  std::string circuit;
  Algo algo;
  std::string ctree;  ///< absolute input path the jobs name
  std::string ref_text;
  double model_peak = 0.0;
  wm::Evaluation eval;
};

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    ::close(fd);
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Append whatever is readable to `buf`; true once it holds a full line
/// (moved to `line`). `eof` is set when the peer closed first.
bool pump_line(int fd, std::string& buf, std::string* line, bool* eof) {
  char chunk[4096];
  const ssize_t n = wm::retry_read(fd, chunk, sizeof chunk);
  if (n <= 0) {
    *eof = true;
    return false;
  }
  buf.append(chunk, static_cast<std::size_t>(n));
  const std::size_t nl = buf.find('\n');
  if (nl == std::string::npos) return false;
  *line = buf.substr(0, nl);
  return true;
}

/// One request down a fresh connection, one reply line back (blocking).
bool roundtrip(const std::string& request, std::string* reply) {
  const int fd = connect_unix(kSocket);
  if (fd < 0) return false;
  const std::string frame = request + '\n';
  bool ok = wm::write_all(fd, frame.data(), frame.size());
  std::string buf;
  bool eof = false;
  while (ok && !pump_line(fd, buf, reply, &eof)) ok = !eof;
  ::close(fd);
  return ok;
}

double stats_counter(const std::string& stats, const char* name) {
  const wm::json::Value v = wm::json::parse(stats);
  const wm::json::Value* c = v.find("counters");
  return c == nullptr ? 0.0 : c->get_number_or(name, 0.0);
}

/// Steady-clock wall time, ns: the clock of the client-side job spans.
std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// The daemon process, in its own process group. Stopping it drains it
/// with SIGTERM, then kills and reaps anything left of the group (this
/// process is a child subreaper, so orphaned pool workers come back to
/// it to be waited for).
class Daemon {
 public:
  Daemon(const std::string& served, const std::vector<std::string>& args) {
    pid_ = ::fork();
    if (pid_ == 0) {
      ::setpgid(0, 0);
      const int log = ::open("daemon.log", O_WRONLY | O_CREAT | O_APPEND |
                                               O_CLOEXEC, 0644);
      if (log >= 0) {
        ::dup2(log, 1);
        ::dup2(log, 2);
      }
      std::vector<char*> argv{const_cast<char*>(served.c_str())};
      for (const std::string& a : args) {
        argv.push_back(const_cast<char*>(a.c_str()));
      }
      argv.push_back(nullptr);
      ::execv(served.c_str(), argv.data());
      ::_exit(127);
    }
    if (pid_ < 0) throw std::runtime_error("fork failed");
    ::setpgid(pid_, pid_);
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// False once the daemon has exited (it is reaped here).
  bool alive() {
    int status = 0;
    if (exited_ || ::waitpid(pid_, &status, WNOHANG) == pid_) exited_ = true;
    return !exited_;
  }

  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const Clock::time_point t0 = Clock::now();
    int status = 0;
    while (alive()) {
      if (ms_since(t0) > 10000.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        exited_ = true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ::kill(-pid_, SIGKILL);  // stragglers of the group, if any
    while (::waitpid(-1, &status, 0) > 0 || errno == EINTR) {
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  bool exited_ = false;
};

std::unique_ptr<Daemon> boot(const std::string& served, double* boot_ms) {
  std::error_code ec;
  fs::remove_all(kSpool, ec);
  fs::create_directories(kSpool);
  fs::remove(kSocket, ec);
  const std::vector<std::string> args = {
      "--socket", kSocket, "--spool", kSpool, "--queue", "64",
      "--workers", std::to_string(kPoolWorkers), "--journal-sync", "off",
      "--pool-workers", std::to_string(kPoolWorkers), "--blob", kBlob,
      "--shards-per-job", std::to_string(kPoolWorkers)};
  const Clock::time_point t0 = Clock::now();
  auto d = std::make_unique<Daemon>(served, args);
  std::string reply;
  for (;;) {
    if (ms_since(t0) > kBootTimeoutMs || !d->alive()) {
      throw std::runtime_error("daemon did not boot (see daemon.log)");
    }
    if (roundtrip(wm::serve::dump_simple("stats"), &reply) &&
        stats_counter(reply, "serve.pool_blob_restored") >= kPoolWorkers) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  *boot_ms = ms_since(t0);
  return d;
}

/// The run seed's job draw: kind index (0 light, 1 heavy) of each job.
/// Every block of kBlock jobs holds kHeavyPerBlock heavy jobs at the
/// same seed-chosen offsets, so heavy jobs stay evenly spaced (two
/// overlapping heavy jobs would swing the latencies between seeds).
class Draw {
 public:
  explicit Draw(std::uint64_t seed)
      : offset_(seed == 0 ? 0 : mix64(seed) % kBlock) {}
  int next() {
    const std::uint64_t slot = (k_++ + kBlock - offset_) % kBlock;
    return slot < static_cast<std::uint64_t>(kHeavyPerBlock) ? 1 : 0;
  }

 private:
  std::uint64_t offset_;
  std::uint64_t k_ = 0;
};

struct JobRecord {
  std::string id;
  int kind = 0;
  double latency_ms = 0.0;
  double ack_ms = 0.0;         ///< traced only
  double queue_wait_ms = 0.0;  ///< traced only
};

wm::serve::JobSpec job_spec(const std::string& id, const Kind& k) {
  wm::serve::JobSpec job;
  job.id = id;
  job.tree = k.ctree;
  job.algo = k.algo == Algo::WaveMinF ? "wavemin-f" : "wavemin";
  const wm::WaveMinOptions o = settings(k.algo);
  job.kappa = o.kappa;
  job.samples = o.samples;
  return job;
}

/// The job state a status frame names ("" when it names no job, as in an
/// error frame); `ok` receives the frame's "ok" field.
std::string job_state(const std::string& frame, bool* ok) {
  const wm::json::Value v = wm::json::parse(frame);
  *ok = v.get_bool_or("ok", false);
  const wm::json::Value* j = v.find("job");
  return j == nullptr ? "" : j->get_string_or("state", "");
}

bool is_terminal(const std::string& state) {
  return state == "done" || state == "degraded" || state == "infeasible" ||
         state == "failed" || state == "quarantined" || state == "drained";
}

/// End-to-end closed loop: submit with wait:true, one connection per
/// job, until `window_ms` has passed; then drain what is in flight.
/// Returns the wall time from the first submit to the last reply.
double run_waiting_client(const std::vector<Kind>& kinds, Draw& draw,
                          int outstanding, double window_ms,
                          const std::string& prefix,
                          std::vector<JobRecord>& jobs, Outcome& out) {
  struct Live {
    int fd;
    std::size_t job;
    Clock::time_point sent;
    std::string buf;
  };
  std::vector<Live> live;
  const Clock::time_point t0 = Clock::now();
  auto submit = [&] {
    const int kind = draw.next();
    JobRecord rec;
    rec.id = prefix + std::to_string(jobs.size());
    rec.kind = kind;
    const std::string frame =
        wm::serve::dump_submit(job_spec(rec.id, kinds[kind]), true) + '\n';
    const Clock::time_point sent = Clock::now();
    const int fd = connect_unix(kSocket);
    ++out.attempted;
    if (fd < 0 || !wm::write_all(fd, frame.data(), frame.size())) {
      if (fd >= 0) ::close(fd);
      out.fail(rec.id + ": submit failed");
      return;
    }
    jobs.push_back(rec);
    live.push_back({fd, jobs.size() - 1, sent, {}});
  };
  while (!live.empty() || ms_since(t0) < window_ms) {
    while (static_cast<int>(live.size()) < outstanding &&
           ms_since(t0) < window_ms && out.correct()) {
      submit();
    }
    if (live.empty()) break;
    std::vector<pollfd> pfds;
    for (const Live& l : live) pfds.push_back({l.fd, POLLIN, 0});
    if (wm::retry_poll(pfds.data(), pfds.size(), 60000) <= 0) {
      throw std::runtime_error("no reply from the daemon within 60 s");
    }
    for (std::size_t i = pfds.size(); i-- > 0;) {
      if (pfds[i].revents == 0) continue;
      Live& l = live[i];
      std::string line;
      bool eof = false;
      if (!pump_line(l.fd, l.buf, &line, &eof) && !eof) continue;
      JobRecord& rec = jobs[l.job];
      rec.latency_ms = ms_since(l.sent);
      bool ok = false;
      const std::string state = eof ? "" : job_state(line, &ok);
      if (!ok || state != "done") {
        out.fail(rec.id + ": ended '" + (eof ? "connection closed" : line) +
                 "'");
      }
      ::close(l.fd);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  return ms_since(t0);
}

/// Traced closed loop: submit with wait:false, then poll each job's
/// status; client-side spans per job (trace id = job number). Returns
/// the wall time from the first submit to the last terminal state.
double run_polling_client(const std::vector<Kind>& kinds, Draw& draw,
                          int outstanding, double window_ms,
                          const std::string& prefix, Tracer& tracer,
                          std::vector<JobRecord>& jobs, double* depth_max,
                          Outcome& out) {
  struct Live {
    std::size_t job;
    std::int64_t sent, acked, started;
  };
  std::vector<Live> live;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point last_stats = t0;
  auto submit = [&] {
    const int kind = draw.next();
    JobRecord rec;
    rec.id = prefix + std::to_string(jobs.size());
    rec.kind = kind;
    ++out.attempted;
    const std::int64_t sent = wall_ns();
    std::string reply;
    bool ok = false;
    if (!roundtrip(wm::serve::dump_submit(job_spec(rec.id, kinds[kind]),
                                          false),
                   &reply) ||
        (job_state(reply, &ok), !ok)) {
      out.fail(rec.id + ": submit rejected: " + reply);
      return;
    }
    jobs.push_back(rec);
    live.push_back({jobs.size() - 1, sent, wall_ns(), 0});
  };
  while (!live.empty() || ms_since(t0) < window_ms) {
    while (static_cast<int>(live.size()) < outstanding &&
           ms_since(t0) < window_ms && out.correct()) {
      submit();
    }
    if (live.empty()) break;
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int>(kPollMs * 1000)));
    if (ms_since(last_stats) >= kStatsPollMs) {
      std::string stats;
      if (roundtrip(wm::serve::dump_simple("stats"), &stats)) {
        const double depth =
            wm::json::parse(stats).get_number_or("queue_depth", 0.0);
        *depth_max = std::max(*depth_max, depth);
      }
      last_stats = Clock::now();
    }
    for (std::size_t i = live.size(); i-- > 0;) {
      Live& l = live[i];
      JobRecord& rec = jobs[l.job];
      std::string reply;
      bool ok = false;
      if (!roundtrip(wm::serve::dump_status(rec.id), &reply)) {
        throw std::runtime_error("status poll failed for " + rec.id);
      }
      const std::string state = job_state(reply, &ok);
      const std::int64_t now = wall_ns();
      if (l.started == 0 && state != "queued") l.started = now;
      if (!is_terminal(state)) continue;
      if (state != "done") out.fail(rec.id + ": ended " + reply);
      const auto trace = static_cast<std::uint32_t>(l.job + 1);
      const int root = tracer.add("serve.job", l.sent, now, -1, trace);
      tracer.add("serve.submit_ack", l.sent, l.acked, root, trace);
      tracer.add("serve.queue_wait", l.acked, l.started, root, trace);
      tracer.add("serve.run", l.started, now, root, trace);
      rec.latency_ms = static_cast<double>(now - l.sent) / 1e6;
      rec.ack_ms = static_cast<double>(l.acked - l.sent) / 1e6;
      rec.queue_wait_ms = static_cast<double>(l.started - l.acked) / 1e6;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  return ms_since(t0);
}

/// Every output tree must be byte-identical to the in-process result
/// for the same design and algorithm.
void check_outputs(const std::vector<Kind>& kinds,
                   const std::vector<JobRecord>& jobs, Outcome& out) {
  for (const JobRecord& j : jobs) {
    const std::string path = std::string(kSpool) + "/" + j.id + ".ctree";
    if (read_file(path) != kinds[j.kind].ref_text) {
      out.fail(j.id + ": served tree differs from the in-process result");
    }
    std::error_code ec;
    fs::remove(path, ec);
  }
}

std::vector<double> latencies(const std::vector<JobRecord>& jobs, int kind) {
  std::vector<double> v;
  for (const JobRecord& j : jobs) {
    if (kind < 0 || j.kind == kind) v.push_back(j.latency_ms);
  }
  return v;
}

} // namespace

Outcome run_serve_mix(const Args& args, const std::string& served) {
  Outcome out;
  // Orphaned pool workers re-parent here, so Daemon::stop can reap them.
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);

  const wm::CellLibrary lib = wm::CellLibrary::nangate45_like();
  const double c0 = cpu_ms();
  const wm::Characterizer chr(lib);
  const double characterize_ms = cpu_ms() - c0;
  wm::blob::write_blob(kBlob, lib, chr);

  std::vector<Kind> kinds = {{"s15850", Algo::WaveMinF, "", "", 0.0, {}},
                             {"s35932", Algo::WaveMin, "", "", 0.0, {}}};
  std::vector<wm::ClockTree> inputs;
  double reference_ms = 0.0;  // untraced in-process solves of the mix
  for (Kind& k : kinds) {
    k.ctree = fs::absolute(k.circuit + ".ctree").string();
    wm::save_tree(k.ctree,
                  wm::make_benchmark(suite_spec(k.circuit, args.seed,
                                                args.regenerate), lib));
    // The workers solve the saved file, so the reference does too.
    inputs.push_back(wm::load_tree(k.ctree, lib));
    wm::ClockTree tree = inputs.back().clone();
    const wm::WaveMinOptions o = settings(k.algo);
    const double t0 = cpu_ms();
    const wm::WaveMinResult r = k.algo == Algo::WaveMinF
                                    ? wm::clk_wavemin_f(tree, lib, chr, o)
                                    : wm::clk_wavemin(tree, lib, chr, o);
    reference_ms += cpu_ms() - t0;
    if (!r.success || r.report.degraded()) {
      out.fail(k.circuit + ": in-process reference infeasible or degraded");
      return out;
    }
    k.ref_text = wm::tree_to_string(tree);
    k.model_peak = r.model_peak;
    check_output(k.circuit, tree, single_mode_set(tree), o.kappa, out);
    if (!args.trace) k.eval = wm::evaluate_design(tree);
  }
  if (!out.correct()) return out;

  // Traced run: the in-process layers of both designs, replayed once.
  Tracer tracer;
  LayerCounts counts;
  std::vector<LayerTimes> layers;
  double unattributed_ms = 0.0, replay_ms = 0.0;
  if (args.trace) {
    const double p0 = cpu_ms();
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      const auto trace = static_cast<std::uint32_t>(i + 1);
      wm::ClockTree tree = inputs[i].clone();
      ReplayResult rr;
      {
        Tracer::Scope root(tracer, "wavemin", trace);
        rr = replay_wavemin(tree, lib, chr, single_mode_set(tree),
                            settings(kinds[i].algo), tracer, trace, counts);
      }
      if (!rr.success || !same_bits(rr.model_peak, kinds[i].model_peak) ||
          wm::tree_to_string(tree) != kinds[i].ref_text) {
        out.fail(kinds[i].circuit + ": replay differs from the entry point");
      }
    }
    replay_ms = cpu_ms() - p0;
    unattributed_ms = replay_ms - tracer.root_ms(0);
    layers.push_back(layer_times(tracer, 0));
  }

  std::vector<double> boot_ms(kBootReps);
  std::unique_ptr<Daemon> daemon;
  for (double& ms : boot_ms) {
    daemon.reset();
    daemon = boot(served, &ms);
  }

  const int outstanding = static_cast<int>(std::min<long>(
      kOutstandingMax, std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN))));
  const double window_ms = args.seconds * 1000.0;
  Draw draw(args.seed);
  std::vector<JobRecord> jobs;
  const double wall_ms =
      run_waiting_client(kinds, draw, outstanding,
                         args.trace ? 0.5 * window_ms : window_ms, "w", jobs,
                         out);
  std::vector<JobRecord> traced_jobs;
  double depth_max = 0.0, traced_wall_ms = 0.0;
  if (args.trace && out.correct()) {
    traced_wall_ms =
        run_polling_client(kinds, draw, outstanding, 0.5 * window_ms, "t",
                           tracer, traced_jobs, &depth_max, out);
  }
  std::string stats;
  if (!roundtrip(wm::serve::dump_simple("stats"), &stats)) {
    throw std::runtime_error("stats request failed");
  }
  daemon.reset();
  for (const char* bad : {"serve.failed", "serve.shed", "serve.degraded",
                          "serve.infeasible"}) {
    if (stats_counter(stats, bad) != 0.0) {
      out.fail(std::string("daemon counted ") + bad, false);
    }
  }
  check_outputs(kinds, jobs, out);
  check_outputs(kinds, traced_jobs, out);
  std::printf("serve-mix: %zu jobs (%zu heavy) end to end, %zu traced, "
              "%d outstanding, %d pool workers\n",
              jobs.size(), latencies(jobs, 1).size(), traced_jobs.size(),
              outstanding, kPoolWorkers);

  const double light = median(latencies(jobs, 0));
  const double heavy = median(latencies(jobs, 1));
  if (!args.trace) {
    double peak = 0.0, noise = 0.0, model = 0.0;
    for (const Kind& k : kinds) {
      model += k.model_peak;
      peak += k.eval.peak_current;
      noise += k.eval.vdd_noise + k.eval.gnd_noise;
    }
    const std::vector<double> all = latencies(jobs, -1);
    out.put("setup_s", median(boot_ms) / 1000.0, "s");
    out.put("suite_ms", light + heavy, "ms");
    out.put("worst_design_ms", std::max(light, heavy), "ms");
    out.put("peak_rss_mb", peak_rss_mb(true), "MB");
    out.put("model_peak_ua", model, "uA");
    out.put("validated_peak_ua", peak, "uA");
    out.put("validated_noise_mv", noise, "mV");
    out.put("jobs_per_s", static_cast<double>(all.size()) / (wall_ms / 1000.0),
            "1/s");
    out.put("latency_p50_ms", percentile(all, 0.50), "ms");
    out.put("latency_p90_ms", percentile(all, 0.90), "ms");
    return out;
  }

  tracer.write_jsonl("spans.jsonl");
  std::vector<double> acks, waits;
  for (const JobRecord& j : traced_jobs) {
    acks.push_back(j.ack_ms);
    waits.push_back(j.queue_wait_ms);
  }
  ServeLayer sl;
  sl.submit_ack_ms = median(acks);
  sl.queue_wait_p95_ms = percentile(waits, 0.95);
  sl.light_latency_p50_ms = light;
  sl.heavy_latency_p50_ms = heavy;
  sl.shards_done = stats_counter(stats, "serve.shards_done");
  sl.retries = stats_counter(stats, "serve.retries");
  sl.queue_depth_max = depth_max;
  // Trace overhead of the serve layer: the polling client's throughput
  // against the waiting client's, over equal windows of one daemon.
  const double untraced_jps = static_cast<double>(jobs.size()) / wall_ms;
  const double traced_jps =
      static_cast<double>(traced_jobs.size()) / traced_wall_ms;
  print_layer_table("serve-mix (in-process replay of both designs)",
                    characterize_ms, layers, counts, replay_ms, reference_ms);
  put_layer_metrics(out, characterize_ms, layers, counts);
  put_serve_metrics(out, sl);
  out.put("bench.trace_overhead_pct",
          100.0 * (untraced_jps / traced_jps - 1.0), "%");
  out.put("bench.unattributed_ms", unattributed_ms, "ms");
  return out;
}

} // namespace wmbench
