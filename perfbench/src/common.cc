#include "common.h"

#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>

#include "trace.h"
#include "util/rng.h"

namespace perfbench {

uint64_t Mix(uint64_t seed, uint64_t tag) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag * 0xbf58476d1ce4e5b9ULL + 0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

void Report::Metric(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = Entry{value, unit};
}

void Report::CheckFailed(const std::string& what) {
  if (check_failures_.size() < 16) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  check_failures_.push_back(what);
  failed_++;
}

void Report::AddLoop(const LoopResult& loop) {
  attempted_ += loop.attempted;
  failed_ += loop.failed;
  Record("host_steal_ticks", static_cast<double>(loop.steal_ticks));
}

void Report::Record(const std::string& key, const std::string& json_value) {
  record_.emplace_back(key, json_value);
}

void Report::Record(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  record_.emplace_back(key, buf);
}

namespace {

std::string RecordJson(const std::vector<std::pair<std::string, std::string>>& record) {
  std::string out = "{";
  for (size_t i = 0; i < record.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + record[i].first + "\": " + record[i].second;
  }
  return out + "}";
}

}  // namespace

void Report::Print() const {
  std::printf("{\"record\": %s}\n", RecordJson(record_).c_str());
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<uint64_t>(attempted_, 1));
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    char value[64];
    // A non-finite value (a latency percentile that landed on a failed
    // request) prints as a huge number so it can never read as a gain.
    std::snprintf(value, sizeof(value), "%.10g",
                  std::isfinite(entry.value) ? entry.value : 1e12);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" + entry.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void Report::WriteRecord(const Options& options) const {
  std::string path = options.work_dir + "/record-" + options.workload + "-" +
                     std::to_string(options.seed) + "-trace" + (options.trace ? "1" : "0") +
                     ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "%s\n", RecordJson(record_).c_str());
  std::fclose(f);
}

namespace {

double RefLoopInProcessMs() {
  constexpr size_t kWords = (32u << 20) / sizeof(uint64_t);
  std::vector<uint64_t> table(kWords);
  aplus::Rng rng(12345);
  for (uint64_t& w : table) w = rng.Next();
  uint64_t start = NowNs();
  uint64_t acc = 0;
  uint64_t idx = 0;
  for (int i = 0; i < 1000000; ++i) {
    idx = (table[idx] ^ acc) % kWords;  // dependent random read
    acc = acc * 6364136223846793005ULL + table[idx] + static_cast<uint64_t>(i);
  }
  double ms = static_cast<double>(NowNs() - start) * 1e-6;
  if (acc == 42) std::fprintf(stderr, " ");  // keep the loop observable
  return ms;
}

}  // namespace

double RefLoopMs() {
  // Called before any thread starts, so fork() is safe. The child sends
  // its time back through a pipe; without fork the loop runs here.
  int fds[2];
  if (::pipe(fds) != 0) return RefLoopInProcessMs();
  pid_t child = ::fork();
  if (child < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return RefLoopInProcessMs();
  }
  if (child == 0) {
    ::close(fds[0]);
    double ms = RefLoopInProcessMs();
    ssize_t n = ::write(fds[1], &ms, sizeof(ms));
    ::_exit(n == static_cast<ssize_t>(sizeof(ms)) ? 0 : 1);
  }
  ::close(fds[1]);
  double ms = 0.0;
  ssize_t n = ::read(fds[0], &ms, sizeof(ms));
  ::close(fds[0]);
  int status = 0;
  ::waitpid(child, &status, 0);
  return n == static_cast<ssize_t>(sizeof(ms)) ? ms : RefLoopInProcessMs();
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  unsigned long long kb = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

namespace {

constexpr double kHistMinUs = 0.1;
constexpr double kHistGrowth = 1.005;

// Bucket b > 0 holds [kHistMinUs * g^(b-1), kHistMinUs * g^b); bucket 0
// holds everything below kHistMinUs.
double BucketLowUs(size_t b) {
  return b == 0 ? 0.0 : kHistMinUs * std::pow(kHistGrowth, static_cast<double>(b - 1));
}

}  // namespace

void LatencyHistogram::Add(double us) {
  if (!std::isfinite(us)) {
    failed_++;
    return;
  }
  size_t b = 0;
  if (us >= kHistMinUs) {
    double index = std::log(us / kHistMinUs) / std::log(kHistGrowth);
    b = std::min<size_t>(kBuckets - 1, 1 + static_cast<size_t>(index));
  }
  buckets_[b]++;
  ok_++;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  ok_ += other.ok_;
  failed_ += other.failed_;
}

double LatencyHistogram::Percentile(double p) const {
  uint64_t n = count();
  if (n == 0) return 0.0;
  auto rank = static_cast<uint64_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<uint64_t>(rank, 1, n);
  if (rank > ok_) return std::numeric_limits<double>::infinity();
  uint64_t below = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    if (below + buckets_[b] >= rank) {
      double frac = (static_cast<double>(rank - below) - 0.5) / static_cast<double>(buckets_[b]);
      double lo = BucketLowUs(b);
      return lo + (BucketLowUs(b + 1) - lo) * frac;
    }
    below += buckets_[b];
  }
  return BucketLowUs(kBuckets);
}

double LoopResult::qps() const {
  if (!slice_qps.empty()) return Median(slice_qps);
  return seconds > 0.0 ? static_cast<double>(attempted - failed) / seconds : 0.0;
}

double LoopResult::p50_us() const { return latencies.Percentile(0.50); }

double LoopResult::p90_us() const {
  if (!slice_p90_us.empty()) return Median(slice_p90_us);
  return latencies.Percentile(0.90);
}

LoopResult RunClosedLoop(int threads, double seconds, bool trace, const RequestFn& request,
                         const std::atomic<bool>* stop) {
  struct PerThread {
    std::vector<LatencyHistogram> slices{kLoopSlices};  // untraced latencies by slice
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t ok_untraced = 0;
    uint64_t ok_traced = 0;
  };
  std::vector<PerThread> per(static_cast<size_t>(threads));
  uint64_t start = NowNs();
  uint64_t slice_ns = static_cast<uint64_t>(seconds * 1e9 / kLoopSlices);
  uint64_t deadline = start + slice_ns * kLoopSlices;
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      PerThread& mine = per[static_cast<size_t>(t)];
      for (uint64_t i = 0;; ++i) {
        uint64_t t0 = NowNs();
        if (t0 >= deadline) break;
        if (stop != nullptr && stop->load(std::memory_order_acquire)) break;
        bool traced = TracedSlice(trace, start, seconds);
        trace::SetThreadActive(traced);
        trace::SetThreadRequest((static_cast<uint64_t>(t) << 40) | i);
        bool ok;
        {
          trace::Span span("host.request");
          ok = request(t, i);
        }
        double us = static_cast<double>(NowNs() - t0) * 1e-3;
        mine.attempted++;
        if (!ok) {
          mine.failed++;
          us = std::numeric_limits<double>::infinity();
        } else if (traced) {
          mine.ok_traced++;
        } else {
          mine.ok_untraced++;
        }
        if (!traced) {
          size_t slice = std::min<size_t>((t0 - start) / slice_ns, kLoopSlices - 1);
          mine.slices[slice].Add(us);
        }
      }
      trace::SetThreadActive(false);
    });
  }
  // Host steal ticks (time the hypervisor ran something else on this
  // VM's CPUs) at every slice boundary, sampled while the callers run.
  std::vector<uint64_t> steal_marks{HostStealTicks()};
  for (size_t s = 1; s <= kLoopSlices; ++s) {
    uint64_t boundary = start + s * slice_ns;
    bool stopped = false;
    for (uint64_t now = NowNs(); now < boundary && !stopped; now = NowNs()) {
      uint64_t nap_ns = std::min<uint64_t>(boundary - now, 10000000);
      std::this_thread::sleep_for(std::chrono::nanoseconds(nap_ns));
      stopped = stop != nullptr && stop->load(std::memory_order_acquire);
    }
    steal_marks.push_back(HostStealTicks());
    if (stopped) break;
  }
  for (std::thread& th : pool) th.join();
  LoopResult out;
  uint64_t end = NowNs();
  out.seconds = static_cast<double>(end - start) * 1e-9;
  std::vector<LatencyHistogram> slices(kLoopSlices);
  for (PerThread& mine : per) {
    out.attempted += mine.attempted;
    out.failed += mine.failed;
    out.ok_untraced += mine.ok_untraced;
    out.ok_traced += mine.ok_traced;
    for (size_t s = 0; s < kLoopSlices; ++s) {
      slices[s].Merge(mine.slices[s]);
    }
  }
  if (trace) {
    // Slices alternate untraced / traced, so each side covers half the
    // window (the last slice may be cut short by `stop`).
    out.seconds_untraced = out.seconds / 2.0;
    out.seconds_traced = out.seconds / 2.0;
  } else {
    out.seconds_untraced = out.seconds;
  }
  // Untraced windows report the median over slices of each slice's
  // throughput and p90. A slice counts unless its host steal
  // exceeds both the window's median slice and the least-stolen slice
  // plus 5% of the VM's CPU time, so a stretch in which the hypervisor
  // took this VM's CPUs away moves none of them. (A cut at the median
  // alone would set aside calm slices with a tick or two of steal; on a
  // window whose rate drifts, the median would then follow when the
  // steal fell.) Slices cut short by `stop` to under half their length
  // are dropped.
  std::vector<uint64_t> slice_steal;
  for (size_t s = 0; s + 1 < steal_marks.size(); ++s) {
    slice_steal.push_back(steal_marks[s + 1] - steal_marks[s]);
  }
  std::vector<double> steal_sorted(slice_steal.begin(), slice_steal.end());
  std::sort(steal_sorted.begin(), steal_sorted.end());
  double least_steal = steal_sorted.empty() ? 0.0 : steal_sorted.front();
  double steal_margin = 0.05 * static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)) *
                        static_cast<double>(::sysconf(_SC_CLK_TCK)) *
                        static_cast<double>(slice_ns) * 1e-9;
  double steal_cut = std::max(Median(steal_sorted), least_steal + steal_margin);
  out.steal_ticks = steal_marks.back() - steal_marks.front();
  std::fprintf(stderr, "requests (host steal ticks) per slice of %.2f s:",
               static_cast<double>(slice_ns) * 1e-9);
  for (size_t s = 0; s < kLoopSlices; ++s) {
    const LatencyHistogram& lat = slices[s];
    uint64_t slice_start = start + s * slice_ns;
    uint64_t slice_end = std::min(end, slice_start + slice_ns);
    uint64_t steal = s < slice_steal.size() ? slice_steal[s] : 0;
    std::fprintf(stderr, " %llu(%llu)", static_cast<unsigned long long>(lat.count()),
                 static_cast<unsigned long long>(steal));
    out.latencies.Merge(lat);
    if (trace || s + 1 >= steal_marks.size() || slice_end <= slice_start ||
        slice_end - slice_start < slice_ns / 2) {
      continue;
    }
    if (static_cast<double>(steal) > steal_cut) continue;
    out.slice_qps.push_back(static_cast<double>(lat.ok()) /
                            (static_cast<double>(slice_end - slice_start) * 1e-9));
    out.slice_p90_us.push_back(lat.Percentile(0.90));
  }
  std::fprintf(stderr, "\n");
  const LatencyHistogram& lat = out.latencies;
  std::fprintf(stderr,
               "latency us over %llu samples: p10 %.1f p50 %.1f p90 %.1f p95 %.1f p99 %.1f "
               "p99.9 %.1f\n",
               static_cast<unsigned long long>(lat.count()), lat.Percentile(0.10),
               lat.Percentile(0.50), lat.Percentile(0.90), lat.Percentile(0.95),
               lat.Percentile(0.99), lat.Percentile(0.999));
  return out;
}

void ReleaseFreedMemory() { ::malloc_trim(0); }

void ResetPeakRss() {
  // Writing 5 to clear_refs resets the peak RSS (Linux 4.0 and later).
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

uint64_t HostStealTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
                      &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<uint64_t>(v[7]) : 0;
}

std::vector<aplus::vertex_id_t> VerticesWithOutDegree(const aplus::Graph& graph, uint32_t lo,
                                                      uint32_t hi) {
  std::vector<uint32_t> degree(graph.num_vertices(), 0);
  for (aplus::edge_id_t e = 0; e < graph.num_edges(); ++e) degree[graph.edge_src(e)]++;
  std::vector<aplus::vertex_id_t> out;
  for (aplus::vertex_id_t v = 0; v < graph.num_vertices(); ++v) {
    if (degree[v] >= lo && degree[v] <= hi) out.push_back(v);
  }
  return out;
}

aplus::QueryOutcome RunRequest(aplus::PreparedQuery* q, aplus::vertex_id_t src,
                               aplus::RowConsumer* consumer, int threads) {
  {
    trace::Span span("core.bind");
    if (!q->Bind("src", aplus::Value::Int64(static_cast<int64_t>(src)))) {
      aplus::QueryOutcome out;
      out.status = aplus::QueryOutcome::Status::kBindError;
      out.error = q->bind_error();
      return out;
    }
  }
  trace::Span span("core.execute");
  return q->Execute(consumer, threads);
}

double PhaseTimes::Last(const std::string& phase) const {
  auto it = seconds_.find(phase);
  return it == seconds_.end() || it->second.empty() ? 0.0 : it->second.back();
}

void PhaseTimes::ReportMedians(Report* report) const {
  for (const auto& [phase, seconds] : seconds_) report->Metric(phase + "_s", Median(seconds), "s");
}

void ReportEndToEnd(const LoopResult& loop, double setup_s, double index_bytes_per_edge,
                    double peak_rss_mb, Report* report) {
  report->Metric("setup_s", setup_s, "s");
  report->Metric("qps", loop.qps(), "1/s");
  report->Metric("p50_us", loop.p50_us(), "us");
  report->Metric("p90_us", loop.p90_us(), "us");
  report->Metric("index_bytes_per_edge", index_bytes_per_edge, "B");
  report->Metric("peak_rss_mb", peak_rss_mb, "MB");
}

std::string RenderRow(const std::vector<aplus::Value>& cells) {
  std::string out;
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out += '|';
    out += cells[i].ToString();
  }
  return out;
}

void RowCollector::OnBatch(const aplus::RowBatch& batch) {
  std::vector<aplus::Value> cells(batch.num_columns());
  Rows rendered;
  for (uint32_t r = 0; r < batch.num_rows(); ++r) {
    for (size_t c = 0; c < batch.num_columns(); ++c) cells[c] = batch.Cell(c, r);
    rendered.push_back(RenderRow(cells));
  }
  std::lock_guard<std::mutex> lock(mu_);
  rows_.insert(rows_.end(), rendered.begin(), rendered.end());
}

}  // namespace perfbench
