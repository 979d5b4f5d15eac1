#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common.h"

namespace perfbench {
namespace trace {

namespace {

// Spans kept in memory per thread; later spans still count in the
// aggregates but are not kept for percentiles or the CSV.
constexpr size_t kKeptSpansPerThread = size_t{1} << 19;

struct Record {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t id;
  uint64_t parent;
  uint64_t request;
  uint64_t self_ns;
};

struct Open {
  const char* name;
  uint64_t start_ns;
  uint64_t id;
  uint64_t parent;
  uint64_t child_ns;
  int64_t slot;  // index in `kept`, -1 when beyond the cap
};

struct Overflow {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};

struct ThreadBuffer {
  uint64_t thread_no = 0;
  uint64_t next_id = 1;
  uint64_t request = 0;
  bool active = false;
  std::vector<Open> stack;
  std::vector<Record> kept;
  std::unordered_map<const char*, Overflow> overflow;
};

std::mutex registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>>& Registry() {
  static std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  return buffers;
}

ThreadBuffer* Local() {
  thread_local ThreadBuffer* buffer = [] {
    std::lock_guard<std::mutex> lock(registry_mu);
    auto& reg = Registry();
    reg.push_back(std::make_unique<ThreadBuffer>());
    reg.back()->thread_no = reg.size();
    return reg.back().get();
  }();
  return buffer;
}

}  // namespace

void SetThreadActive(bool on) { Local()->active = on; }
void SetThreadRequest(uint64_t request_id) { Local()->request = request_id; }

Span::Span(const char* name) {
  ThreadBuffer* buf = Local();
  if (!buf->active) return;
  Open open;
  open.name = name;
  open.id = (buf->thread_no << 40) | buf->next_id++;
  open.parent = buf->stack.empty() ? 0 : buf->stack.back().id;
  open.child_ns = 0;
  open.slot = -1;
  if (buf->kept.size() < kKeptSpansPerThread) {
    if (buf->kept.capacity() == 0) buf->kept.reserve(kKeptSpansPerThread);
    open.slot = static_cast<int64_t>(buf->kept.size());
    buf->kept.push_back(Record{name, 0, 0, open.id, open.parent, buf->request, 0});
  }
  slot_ = static_cast<int64_t>(buf->stack.size());
  buf->stack.push_back(open);
  buf->stack.back().start_ns = NowNs();
}

Span::~Span() {
  if (slot_ < 0) return;
  uint64_t end = NowNs();
  ThreadBuffer* buf = Local();
  Open open = buf->stack.back();
  buf->stack.pop_back();
  uint64_t duration = end - open.start_ns;
  uint64_t self = duration > open.child_ns ? duration - open.child_ns : 0;
  if (!buf->stack.empty()) buf->stack.back().child_ns += duration;
  if (open.slot >= 0) {
    Record& rec = buf->kept[static_cast<size_t>(open.slot)];
    rec.start_ns = open.start_ns;
    rec.end_ns = end;
    rec.self_ns = self;
  } else {
    Overflow& agg = buf->overflow[open.name];
    agg.count++;
    agg.total_ns += duration;
    agg.self_ns += self;
  }
}

double NameStats::percentile_us(double p) const {
  std::vector<double> sorted = durations_us;
  std::sort(sorted.begin(), sorted.end());
  return PercentileSorted(sorted, p);
}

std::map<std::string, NameStats> Collect() {
  std::lock_guard<std::mutex> lock(registry_mu);
  std::map<std::string, NameStats> out;
  for (const auto& buf : Registry()) {
    for (const Record& rec : buf->kept) {
      if (rec.end_ns == 0) continue;  // still open
      NameStats& s = out[rec.name];
      double us = static_cast<double>(rec.end_ns - rec.start_ns) * 1e-3;
      s.count++;
      s.total_us += us;
      s.self_us += static_cast<double>(rec.self_ns) * 1e-3;
      s.durations_us.push_back(us);
    }
    for (const auto& [name, agg] : buf->overflow) {
      NameStats& s = out[name];
      s.count += agg.count;
      s.total_us += static_cast<double>(agg.total_ns) * 1e-3;
      s.self_us += static_cast<double>(agg.self_ns) * 1e-3;
    }
  }
  return out;
}

std::map<std::string, double> SelfTimeByLayer() {
  std::lock_guard<std::mutex> lock(registry_mu);
  std::map<std::string, double> out;
  auto layer = [](const char* name) {
    std::string s(name);
    return s.substr(0, s.find('.'));
  };
  for (const auto& buf : Registry()) {
    for (const Record& rec : buf->kept) {
      if (rec.end_ns == 0 || rec.request == 0) continue;
      out[layer(rec.name)] += static_cast<double>(rec.self_ns) * 1e-3;
    }
    for (const auto& [name, agg] : buf->overflow) {
      out[layer(name)] += static_cast<double>(agg.self_ns) * 1e-3;
    }
  }
  return out;
}

uint64_t WriteCsv(const std::string& path, uint64_t max_spans) {
  std::lock_guard<std::mutex> lock(registry_mu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  std::fprintf(f, "name,start_ns,end_ns,id,parent,request\n");
  uint64_t written = 0;
  for (const auto& buf : Registry()) {
    for (const Record& rec : buf->kept) {
      if (written >= max_spans) break;
      if (rec.end_ns == 0) continue;
      std::fprintf(f, "%s,%llu,%llu,%llu,%llu,%llu\n", rec.name,
                   static_cast<unsigned long long>(rec.start_ns),
                   static_cast<unsigned long long>(rec.end_ns),
                   static_cast<unsigned long long>(rec.id),
                   static_cast<unsigned long long>(rec.parent),
                   static_cast<unsigned long long>(rec.request));
      ++written;
    }
  }
  std::fclose(f);
  return written;
}

uint64_t SpanCount() {
  std::lock_guard<std::mutex> lock(registry_mu);
  uint64_t n = 0;
  for (const auto& buf : Registry()) {
    n += buf->kept.size();
    for (const auto& [name, agg] : buf->overflow) n += agg.count;
  }
  return n;
}

}  // namespace trace
}  // namespace perfbench
