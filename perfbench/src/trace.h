#ifndef APLUS_PERFBENCH_TRACE_H_
#define APLUS_PERFBENCH_TRACE_H_

// Benchmark-side spans around calls into the engine's public API.
//
// A span carries its name ("<layer>.<call>"), start and end
// (steady_clock ns), its own id, its parent span's id (the span open on
// the same thread when it started, 0 for a root) and the request id the
// thread was serving. Spans are kept in per-thread memory and written
// when the run ends. A span's self time is its duration minus the time
// its child spans cover; summing self time by layer attributes a
// request's latency to the layers it crossed.
//
// Recording is switched per thread (SetThreadActive), so the closed-loop
// runner can alternate traced and untraced slices of one window and the
// traced run reports its own overhead.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {
namespace trace {

void SetThreadActive(bool on);
void SetThreadRequest(uint64_t request_id);

// Times one call from construction to destruction while the thread's
// switch is on; a no-op otherwise. `name` must be a string literal.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t slot_ = -1;  // index in the thread's span buffer, -1 = not recorded
};

// Per-name aggregate over every recorded span.
struct NameStats {
  uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
  // Durations of the spans kept in memory (the buffers are capped; the
  // aggregates above cover every span).
  std::vector<double> durations_us;

  double mean_us() const { return count == 0 ? 0.0 : total_us / static_cast<double>(count); }
  double percentile_us(double p) const;
};

std::map<std::string, NameStats> Collect();

// Self time per layer (the span-name prefix before the first '.'), in
// us, over the spans recorded while serving a request (request id != 0;
// set-up and probe spans carry id 0).
std::map<std::string, double> SelfTimeByLayer();

// Writes the kept spans as CSV (name,start_ns,end_ns,id,parent,request),
// at most `max_spans` of them, and returns how many were written.
uint64_t WriteCsv(const std::string& path, uint64_t max_spans);

// Total spans recorded (kept or not).
uint64_t SpanCount();

}  // namespace trace
}  // namespace perfbench

#endif  // APLUS_PERFBENCH_TRACE_H_
