#pragma once
// In-memory span recorder of the traced run.
//
// A span is one call into a layer's public function, recorded from the
// benchmark side: name, start, end, the span that caused it and the
// trace id of the design (in-process) or job (serve-mix) it served.
// Spans stay in memory until the run ends; self_ms() then gives each
// layer its span time minus the time its direct children cover.
// open()/close() time on the process CPU clock (cpu_ms); add() takes
// whatever times the caller measured (serve-mix's client-side job
// spans are steady-clock wall times).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace wmbench {

struct Span {
  const char* name = "";  ///< layer name; string literals only
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;          ///< index into the tracer's spans, -1 = root
  std::uint32_t trace = 0;  ///< design or job id
};

class Tracer {
 public:
  /// Process CPU time, ns.
  static std::int64_t now_ns();

  /// Open a nested span under the innermost open one.
  int open(const char* name, std::uint32_t trace);
  void close(int span);

  /// Record a finished span with explicit times (concurrent client-side
  /// spans that do not nest in call order).
  int add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, std::uint32_t trace);

  std::size_t size() const { return spans_.size(); }

  /// Per-layer self time (ms) over spans [from, size()).
  std::map<std::string, double> self_ms(std::size_t from = 0) const;
  /// Summed duration (ms) of the root spans in [from, size()).
  double root_ms(std::size_t from = 0) const;
  /// Longest single span of `name` in [from, size()), ms.
  double max_ms(const char* name, std::size_t from = 0) const;

  /// Write every span as one JSON object per line.
  void write_jsonl(const std::string& path) const;

  /// RAII span for call-ordered nesting.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint32_t trace)
        : t_(t), span_(t.open(name, trace)) {}
    ~Scope() { t_.close(span_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int span_;
  };

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices
};

} // namespace wmbench
