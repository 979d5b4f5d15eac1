#ifndef APLUS_PERFBENCH_COMMON_H_
#define APLUS_PERFBENCH_COMMON_H_

// Shared pieces of the repository benchmark: run options, the result
// report (metrics, answer checks, failure accounting, determinism
// record), latency summaries, the closed-loop request runner and the
// host-drift reference loop.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/database.h"
#include "query/row_sink.h"
#include "storage/graph.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch directory inside the checkout for segment files, traces and
  // run records.
  std::string work_dir = ".bench_build/run";
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

inline double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// Preferential-attachment share of the power-law graphs of fraud_tuned
// and seg_recs. The generator's default (0.75) gives a
// degree exponent near 2.3, where the second moment of the degree
// distribution -- which sets the cost of 2-hop requests and the size of
// 2-hop views -- is dominated by a few hubs whose size swings from seed
// to seed. At 0.4 the exponent is near 3.5 and per-seed work is steady.
constexpr double kPreferentialFraction = 0.4;

// Deterministic per-purpose seed derivation: every generator of a run
// draws from Mix(seed, tag) so workloads never share random streams.
uint64_t Mix(uint64_t seed, uint64_t tag);

double Median(std::vector<double> values);
// Nearest-rank percentile (p in [0, 1]) of an ascending-sorted vector.
double PercentileSorted(const std::vector<double>& sorted, double p);

struct LoopResult;

// Collects everything one run prints: the metrics of its mode, the
// answer checks, the attempted/failed request counts, and the
// determinism record (seed, threads, SIMD level, dataset sizes,
// host reference loop).
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  // A failed answer check: the run is marked incorrect and one request
  // is counted as failed.
  void CheckFailed(const std::string& what);
  // Counts a window's attempted and failed requests and records the
  // host steal seen during it.
  void AddLoop(const LoopResult& loop);
  void Record(const std::string& key, const std::string& json_value);
  void Record(const std::string& key, double value);

  bool correct() const { return check_failures_.empty(); }
  uint64_t checks() const { return checks_; }
  void CountCheck() { ++checks_; }

  // Prints the record line, then (last) the result line.
  void Print() const;
  // Writes the record to <work_dir>/record-<workload>-<seed>-trace<n>.json.
  void WriteRecord(const Options& options) const;

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Entry> metrics_;
  std::vector<std::string> check_failures_;
  std::vector<std::pair<std::string, std::string>> record_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t checks_ = 0;
};

// Fixed CPU + memory loop (integer hashing plus dependent random reads
// over a 32 MiB table). Its time moves only with the host, never with
// the program, so a drifting set of runs can be told apart from a
// program change. It runs in a child process, so its table never counts
// toward this process's peak RSS.
double RefLoopMs();

// VmHWM of this process, in MiB.
double PeakRssMb();

// Cumulative steal time of all CPUs from /proc/stat, in clock ticks
// (0 where the kernel does not report it).
uint64_t HostStealTicks();

// One closed-loop request: returns true when the reply was OK and
// correct. `index` counts the caller thread's requests from 0.
using RequestFn = std::function<bool(int thread, uint64_t index)>;

// An untraced closed-loop window is cut into this many equal slices.
constexpr size_t kLoopSlices = 15;

// Request latencies (us) in log-spaced buckets 0.5% wide from 0.1 us to
// ~74 s, with failed requests counted apart as +inf. Its memory is fixed
// however many requests a window completes: a vector of every latency
// made peak_rss_mb grow with qps.
class LatencyHistogram {
 public:
  // +inf (a failed request) counts as failed.
  void Add(double us);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return ok_ + failed_; }
  uint64_t ok() const { return ok_; }
  // Nearest-rank percentile (p in [0, 1]), interpolated linearly within
  // its bucket: +inf when the rank falls on a failed request, 0 when
  // empty.
  double Percentile(double p) const;

 private:
  static constexpr size_t kBuckets = 4096;
  std::vector<uint64_t> buckets_ = std::vector<uint64_t>(kBuckets, 0);
  uint64_t ok_ = 0;
  uint64_t failed_ = 0;
};

// Latency summary of a closed-loop window.
struct LoopResult {
  double seconds = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Per-request latency, all threads; failed requests read +inf so they
  // count as over any latency limit.
  LatencyHistogram latencies;
  // Traced-run split: completed-OK counts and elapsed time of the
  // untraced and traced quarters (`latencies` holds the untraced ones).
  uint64_t ok_untraced = 0;
  uint64_t ok_traced = 0;
  double seconds_untraced = 0.0;
  double seconds_traced = 0.0;
  // Untraced runs: completed-OK requests per second and p90 of each
  // slice that ran at least half its length with no more host steal
  // than the window's median slice.
  std::vector<double> slice_qps;
  std::vector<double> slice_p90_us;
  // Host steal over the window, in /proc/stat clock ticks.
  uint64_t steal_ticks = 0;

  // Median slice throughput and median slice p90 (whole-window figures
  // when no slice qualifies); p50 over every untraced request.
  double qps() const;
  double p50_us() const;
  double p90_us() const;
};

// Runs `threads` closed-loop callers for `seconds`: each issues its next
// request only after the previous one returned. With `trace`, the window
// is cut into four equal slices that alternate untraced / traced (the
// per-thread trace switch of trace.h), so the traced run measures its
// own tracing overhead. `stop` (optional) ends the window early.
LoopResult RunClosedLoop(int threads, double seconds, bool trace, const RequestFn& request,
                         const std::atomic<bool>* stop = nullptr);

// Index of the current trace slice for a window that started at
// `start_ns` (odd slices are traced).
inline bool TracedSlice(bool trace, uint64_t start_ns, double seconds) {
  if (!trace) return false;
  double t = SecondsSince(start_ns);
  int slice = static_cast<int>(t / (seconds / 4.0));
  return (slice & 1) == 1;
}

// Returns freed heap memory to the system, so the peak RSS of a run
// reflects one set-up rather than the allocator's leftovers.
void ReleaseFreedMemory();

// Resets this process's VmHWM to its current RSS (no-op where the
// kernel does not allow it).
void ResetPeakRss();

// Median over `reps` fresh set-ups. Each repetition releases the
// previous one's state, then `setup(rep, last, state)` builds a fresh
// State up to the first timed request and returns the seconds it took.
// The last repetition's state is kept; in a traced run only it is traced.
// The peak RSS is reset before the last repetition, so it covers the
// kept set-up and the run, not the discarded ones.
template <typename State, typename F>
double MedianSetupSeconds(int reps, bool trace, std::unique_ptr<State>* state, F setup) {
  std::vector<double> seconds;
  for (int rep = 0; rep < reps; ++rep) {
    state->reset();
    ReleaseFreedMemory();
    bool last = rep == reps - 1;
    if (last) ResetPeakRss();
    *state = std::make_unique<State>();
    trace::SetThreadActive(trace && last);
    seconds.push_back(setup(rep, last, state->get()));
    trace::SetThreadActive(false);
  }
  return Median(seconds);
}

// Seconds of each named set-up phase, one entry per set-up repetition.
// A phase is timed under a trace span of the same name, and the traced
// run reports the median of phase "x.y" as the metric "x.y_s".
class PhaseTimes {
 public:
  template <typename F>
  void Time(const char* phase, F run) {
    trace::Span span(phase);
    uint64_t start = NowNs();
    run();
    Add(phase, SecondsSince(start));
  }
  void Add(const std::string& phase, double seconds) { seconds_[phase].push_back(seconds); }
  // Last repetition's seconds of `phase` (0 when it never ran).
  double Last(const std::string& phase) const;
  // The median of every phase as a per-layer metric.
  void ReportMedians(Report* report) const;

 private:
  std::map<std::string, std::vector<double>> seconds_;
};

// The end-to-end metrics of an untraced run. `peak_rss_mb` is read by
// the workload once its measured work is done, before an answer check
// builds state of its own.
void ReportEndToEnd(const LoopResult& loop, double setup_s, double index_bytes_per_edge,
                    double peak_rss_mb, Report* report);

// Vertices of `graph` with out-degree in [lo, hi], ascending.
std::vector<aplus::vertex_id_t> VerticesWithOutDegree(const aplus::Graph& graph, uint32_t lo,
                                                      uint32_t hi);

// One embedded request: binds $src and executes at `threads` morsel
// workers under core.bind / core.execute spans, delivering rows to
// `consumer` (may be null). A bind error returns a kBindError outcome.
aplus::QueryOutcome RunRequest(aplus::PreparedQuery* q, aplus::vertex_id_t src,
                               aplus::RowConsumer* consumer, int threads = 1);

// Rows of one result, each rendered as its cells' Value::ToString
// joined by '|', for exact comparison across access paths.
using Rows = std::vector<std::string>;
std::string RenderRow(const std::vector<aplus::Value>& cells);

// Collects every row an embedded execution delivers (thread-safe: a
// morsel-parallel projection calls OnBatch from several workers).
class RowCollector : public aplus::RowConsumer {
 public:
  void OnBatch(const aplus::RowBatch& batch) override;
  Rows TakeRows() { return std::move(rows_); }

 private:
  std::mutex mu_;
  Rows rows_;
};

}  // namespace perfbench

#endif  // APLUS_PERFBENCH_COMMON_H_
