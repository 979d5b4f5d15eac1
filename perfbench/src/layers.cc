// Per-layer metrics shared by every workload's traced run: parse/plan
// probes over the workload's query texts, core-layer figures from the
// spans, kernel probes on adjacency lists sampled from the workload
// graph, self time per layer, and the tracing overhead.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/database.h"
#include "query/cypher_parser.h"
#include "query/intersect_kernels.h"
#include "storage/codec.h"
#include "trace.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace aplus;  // NOLINT: benchmark brevity

struct SampledList {
  std::vector<vertex_id_t> nbrs;  // ascending
  std::vector<edge_id_t> eids;
};

// Out-lists of up to 256 seeded vertices with out-degree >= 8, each
// sorted by neighbour ID (the primary index's innermost order).
std::vector<SampledList> SampleLists(const Graph& graph) {
  std::vector<vertex_id_t> candidates =
      VerticesWithOutDegree(graph, 8, std::numeric_limits<uint32_t>::max());
  Rng rng(0x5eed);
  std::vector<int32_t> slot(graph.num_vertices(), -1);
  std::vector<SampledList> lists;
  for (int i = 0; i < 256 && !candidates.empty(); ++i) {
    vertex_id_t v = candidates[rng.NextBounded(candidates.size())];
    if (slot[v] >= 0) continue;
    slot[v] = static_cast<int32_t>(lists.size());
    lists.emplace_back();
  }
  for (edge_id_t e = 0; e < graph.num_edges(); ++e) {
    int32_t s = slot[graph.edge_src(e)];
    if (s < 0) continue;
    lists[static_cast<size_t>(s)].nbrs.push_back(graph.edge_dst(e));
    lists[static_cast<size_t>(s)].eids.push_back(e);
  }
  for (SampledList& list : lists) {
    std::vector<size_t> order(list.nbrs.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return list.nbrs[a] != list.nbrs[b] ? list.nbrs[a] < list.nbrs[b]
                                          : list.eids[a] < list.eids[b];
    });
    SampledList sorted;
    for (size_t i : order) {
      sorted.nbrs.push_back(list.nbrs[i]);
      sorted.eids.push_back(list.eids[i]);
    }
    list = std::move(sorted);
  }
  return lists;
}

// Median over passes of `pass()`'s ns per unit of work.
template <typename F>
double MedianNsPerUnit(int passes, F pass) {
  std::vector<double> per_unit;
  for (int p = 0; p < passes; ++p) {
    uint64_t units = 0;
    uint64_t t = NowNs();
    units = pass();
    uint64_t ns = NowNs() - t;
    per_unit.push_back(static_cast<double>(ns) / static_cast<double>(std::max<uint64_t>(units, 1)));
  }
  return Median(per_unit);
}

void KernelProbes(const Graph& graph, Report* report) {
  std::vector<SampledList> lists = SampleLists(graph);
  if (lists.size() < 2) return;
  const simd::Kernels& k = simd::Active();
  volatile uint64_t sink = 0;

  // Frontier advance: gallop each list's entries through the next list.
  report->Metric("kernel.advance_ns", MedianNsPerUnit(31, [&] {
                   uint64_t calls = 0;
                   for (size_t i = 0; i + 1 < lists.size(); ++i) {
                     const auto& a = lists[i].nbrs;
                     const auto& b = lists[i + 1].nbrs;
                     uint32_t pos = 0;
                     uint32_t end = static_cast<uint32_t>(b.size());
                     for (vertex_id_t x : a) {
                       pos = k.advance_ge(b.data(), pos, end, x);
                       calls++;
                       if (pos == end) break;
                     }
                     sink = sink + pos;
                   }
                   return calls;
                 }),
                 "ns");

  // Offset-list decode: every list re-read through a reversed offset
  // permutation of the narrowest width that addresses it.
  std::vector<std::vector<uint8_t>> offsets(lists.size());
  std::vector<uint8_t> widths(lists.size());
  for (size_t i = 0; i < lists.size(); ++i) {
    uint32_t n = static_cast<uint32_t>(lists[i].nbrs.size());
    uint8_t width = n <= 0xff ? 1 : (n <= 0xffff ? 2 : 4);
    widths[i] = width;
    for (uint32_t j = 0; j < n; ++j) {
      uint32_t off = n - 1 - j;
      for (uint8_t b = 0; b < width; ++b) offsets[i].push_back(static_cast<uint8_t>(off >> (8 * b)));
    }
  }
  std::vector<vertex_id_t> out_nbrs;
  std::vector<edge_id_t> out_eids;
  report->Metric("kernel.decode_offsets_ns_per_entry", MedianNsPerUnit(31, [&] {
                   uint64_t entries = 0;
                   for (size_t i = 0; i < lists.size(); ++i) {
                     uint32_t n = static_cast<uint32_t>(lists[i].nbrs.size());
                     out_nbrs.resize(n);
                     k.decode_nbrs(lists[i].nbrs.data(), offsets[i].data(), widths[i], 0, n,
                                   out_nbrs.data());
                     entries += n;
                     sink = sink + out_nbrs[0];
                   }
                   return entries;
                 }),
                 "ns");

  // Packed varint decode of codec::PackAdjacency streams.
  std::vector<std::vector<uint8_t>> streams(lists.size());
  for (size_t i = 0; i < lists.size(); ++i) {
    codec::PackAdjacency(lists[i].nbrs.data(), lists[i].eids.data(),
                         static_cast<uint32_t>(lists[i].nbrs.size()), &streams[i]);
  }
  report->Metric("kernel.decode_varint_ns_per_entry", MedianNsPerUnit(31, [&] {
                   uint64_t entries = 0;
                   for (size_t i = 0; i < lists.size(); ++i) {
                     uint32_t n = static_cast<uint32_t>(lists[i].nbrs.size());
                     out_nbrs.resize(n);
                     out_eids.resize(n);
                     k.decode_varint_block(streams[i].data(), 0, n, out_nbrs.data(),
                                           out_eids.data());
                     entries += n;
                     sink = sink + out_eids[0];
                   }
                   return entries;
                 }),
                 "ns");
}

}  // namespace

void ReportParsePlan(Database* db, const std::vector<std::string>& texts, Report* report) {
  constexpr int kReps = 20;
  std::vector<double> parse_us;
  std::vector<double> prepare_us;
  trace::SetThreadActive(true);
  trace::SetThreadRequest(0);
  for (int rep = 0; rep < kReps; ++rep) {
    for (const std::string& text : texts) {
      uint64_t t = NowNs();
      {
        trace::Span span("query.parse");
        ParsedCypher parsed = ParseCypher(text, db->graph().catalog());
        if (!parsed.ok()) report->CheckFailed("parse: " + parsed.error);
      }
      parse_us.push_back(static_cast<double>(NowNs() - t) * 1e-3);
      t = NowNs();
      {
        trace::Span span("optimizer.prepare");
        std::unique_ptr<PreparedQuery> q = db->Prepare(text);
        if (!q->ok()) report->CheckFailed("prepare: " + q->error());
      }
      prepare_us.push_back(static_cast<double>(NowNs() - t) * 1e-3);
    }
  }
  trace::SetThreadActive(false);
  double parse = Median(parse_us);
  report->Metric("query.parse_us", parse, "us");
  report->Metric("optimizer.plan_us", Median(prepare_us) - parse, "us");
}

void ReportCommonLayers(const Graph& graph, const LoopResult& loop, Report* report) {
  KernelProbes(graph, report);

  auto stats = trace::Collect();
  auto mean = [&](const char* name) {
    auto it = stats.find(name);
    return it == stats.end() ? 0.0 : it->second.mean_us();
  };
  auto pct = [&](const char* name, double p) {
    auto it = stats.find(name);
    return it == stats.end() ? 0.0 : it->second.percentile_us(p);
  };
  report->Metric("core.prepare_us", mean("core.prepare"), "us");
  report->Metric("core.bind_us", mean("core.bind"), "us");
  // p99 request latency of the untraced quarters: too unsteady on a
  // shared host to gate end to end, kept here for attribution.
  report->Metric("host.request_p99_us", loop.latencies.Percentile(0.99), "us");
  // Write path: the traced run's ingest probe.
  report->Metric("storage.add_edge_us", mean("storage.add_edge"), "us");
  report->Metric("index.maint_insert_p50_us", pct("index.maint_insert", 0.50), "us");
  report->Metric("index.maint_insert_p99_us", pct("index.maint_insert", 0.99), "us");
  report->Metric("index.end_ingest_s", mean("index.end_ingest") * 1e-6, "s");
  report->Metric("core.execute_p50_us", pct("core.execute", 0.50), "us");
  report->Metric("core.execute_p99_us", pct("core.execute", 0.99), "us");

  // Self time by layer per traced root span (a request or a replayed
  // request; set-up and probe spans carry request id 0 and are
  // excluded).
  uint64_t requests = 0;
  for (const auto& [name, s] : stats) {
    if (name.rfind("host.", 0) == 0) requests += s.count;
  }
  auto self = trace::SelfTimeByLayer();
  for (const char* layer : {"host", "server", "core"}) {
    report->Metric(std::string("self.") + layer + "_us",
                   self[layer] / static_cast<double>(std::max<uint64_t>(requests, 1)), "us");
  }

  double untraced = loop.seconds_untraced > 0
                        ? static_cast<double>(loop.ok_untraced) / loop.seconds_untraced
                        : 0.0;
  double traced = loop.seconds_traced > 0
                      ? static_cast<double>(loop.ok_traced) / loop.seconds_traced
                      : 0.0;
  report->Metric("trace.overhead_pct", traced > 0 ? (untraced / traced - 1.0) * 100.0 : 0.0,
                 "%");
}

}  // namespace perfbench
