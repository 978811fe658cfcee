// In-memory span recorder for the traced run of the serving benchmark.
//
// A span is one timed call into a layer's public function, recorded from
// the benchmark's own code: name, start, end, the span that caused it and
// the request it belongs to. Spans stay in memory while the run measures
// and are written out once at the end; the per-layer table is derived
// from them by name.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";     // layer function, e.g. "component.exact_topk"
  std::uint64_t id = 0;      // unique across all logs of a run
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t request = 0; // request (or replayed query) the span serves
  std::int64_t start_ns = 0; // relative to the run's trace origin
  std::int64_t end_ns = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

/// One log per recording thread (no locking); logs are concatenated after
/// the threads join. `log_index` keeps span ids unique across logs.
class SpanLog {
 public:
  SpanLog(Clock::time_point origin, std::uint64_t log_index)
      : origin_(origin), next_id_((log_index << 40) + 1) {}

  std::uint64_t add(const char* name, std::uint64_t request,
                    std::uint64_t parent, Clock::time_point start,
                    Clock::time_point end) {
    const std::uint64_t id = next_id_++;
    spans_.push_back(Span{name, id, parent, request, ns(start), ns(end)});
    return id;
  }

  /// Records a span from offsets in ns relative to the origin (for a child
  /// whose duration is known but whose clock is not ours, e.g. server_ms).
  std::uint64_t add_ns(const char* name, std::uint64_t request,
                       std::uint64_t parent, std::int64_t start_ns,
                       std::int64_t end_ns) {
    const std::uint64_t id = next_id_++;
    spans_.push_back(Span{name, id, parent, request, start_ns, end_ns});
    return id;
  }

  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  Clock::time_point origin() const { return origin_; }
  const std::vector<Span>& spans() const { return spans_; }
  void append(const SpanLog& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }

 private:
  Clock::time_point origin_;
  std::uint64_t next_id_;
  std::vector<Span> spans_;
};

/// Durations (ms) of every span called `name`.
inline std::vector<double> durations_ms(const std::vector<Span>& spans,
                                        const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans)
    if (name == s.name) out.push_back(s.ms());
  return out;
}

/// One span per line: name id parent request start_ns end_ns.
inline void write_spans(std::ostream& os, const std::vector<Span>& spans) {
  os << "# name id parent request start_ns end_ns\n";
  for (const Span& s : spans)
    os << s.name << ' ' << s.id << ' ' << s.parent << ' ' << s.request << ' '
       << s.start_ns << ' ' << s.end_ns << '\n';
}

}  // namespace perfbench
