#include "trace.hpp"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace wmbench {

std::int64_t Tracer::now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int Tracer::open(const char* name, std::uint32_t trace) {
  const int parent = open_.empty() ? -1 : open_.back();
  const int idx = add(name, now_ns(), 0, parent, trace);
  open_.push_back(idx);
  return idx;
}

void Tracer::close(int span) {
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

int Tracer::add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                int parent, std::uint32_t trace) {
  spans_.push_back({name, start_ns, end_ns, parent, trace});
  return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, double> Tracer::self_ms(std::size_t from) const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const int p = spans_[i].parent;
    if (p >= 0) {
      child_ns[static_cast<std::size_t>(p)] +=
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const double dur =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    out[spans_[i].name] += (dur - child_ns[i]) / 1e6;
  }
  return out;
}

double Tracer::root_ms(std::size_t from) const {
  double ns = 0.0;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    if (spans_[i].parent < 0) {
      ns += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    }
  }
  return ns / 1e6;
}

double Tracer::max_ms(const char* name, std::size_t from) const {
  double ns = 0.0;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    if (std::strcmp(spans_[i].name, name) == 0) {
      ns = std::max(
          ns, static_cast<double>(spans_[i].end_ns - spans_[i].start_ns));
    }
  }
  return ns / 1e6;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;  // the spans are a by-product, never fatal
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %d, \"trace\": %u}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.trace);
  }
  std::fclose(f);
}

} // namespace wmbench
