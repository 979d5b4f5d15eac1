// The ingest probe of every traced run: a short single-writer stream
// into the workload's own heap database. Its rate is the per-layer
// index.ingest_eps, and its spans give the other write-path metrics.

#include <cstdio>
#include <vector>

#include "core/database.h"
#include "trace.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace aplus;  // NOLINT: benchmark brevity

double ProbeIngestEps(Database* db, uint64_t seed, uint64_t count) {
  Graph& graph = db->graph();
  uint64_t existing = graph.num_edges();
  if (existing == 0 || count == 0) return 0.0;
  // New edges join uniform random vertices, and every numeric edge
  // property copies a random existing edge's value. (Degree-biased
  // endpoints sent most inserts to the few hub pages, whose merge cost
  // swings with the seed's hub sizes.)
  struct NewEdge {
    vertex_id_t src;
    vertex_id_t dst;
    label_t label;
    edge_id_t props_from;
  };
  Rng rng(Mix(seed, 90));
  uint64_t vertices = graph.num_vertices();
  std::vector<NewEdge> stream;
  for (uint64_t i = 0; i < count; ++i) {
    auto src = static_cast<vertex_id_t>(rng.NextBounded(vertices));
    auto dst = static_cast<vertex_id_t>(rng.NextBounded(vertices - 1));
    if (dst >= src) dst++;
    edge_id_t like = rng.NextBounded(existing);
    stream.push_back(NewEdge{src, dst, graph.edge_label(like), like});
  }
  std::vector<PropertyColumn*> columns;
  const Catalog& catalog = graph.catalog();
  for (prop_key_t key = 0; key < catalog.num_properties(); ++key) {
    const PropertyMeta& meta = catalog.property(key);
    if (meta.target == PropTargetKind::kEdge && meta.type != ValueType::kString) {
      columns.push_back(graph.edge_props().mutable_column(key));
    }
  }

  // Maintenance cost is back-loaded (deltas buffer first, merges and
  // the close come later), so the rate covers the whole phase.
  trace::SetThreadRequest(0);
  ConcurrentIngestOptions options;
  options.max_vertices = graph.num_vertices();
  options.max_edges = existing + count;
  db->BeginConcurrentIngest(options);
  uint64_t start = NowNs();
  bool failed = false;
  for (const NewEdge& e : stream) {
    edge_id_t id;
    {
      trace::Span span("storage.add_edge");
      id = graph.AddEdge(e.src, e.dst, e.label);
      if (id != kInvalidEdge) {
        for (PropertyColumn* column : columns) column->Set(id, column->Get(e.props_from));
      }
    }
    failed = id == kInvalidEdge;
    if (failed) break;
    trace::Span span("index.maint_insert");
    db->maintainer().OnEdgeInserted(id);
  }
  uint64_t closing = NowNs();
  {
    trace::Span span("index.end_ingest");
    db->EndConcurrentIngest();
  }
  std::fprintf(stderr, "ingest probe: %llu edges, stream %.3f s, close %.3f s\n",
               static_cast<unsigned long long>(count),
               static_cast<double>(closing - start) * 1e-9, SecondsSince(closing));
  return failed ? 0.0 : static_cast<double>(count) / SecondsSince(start);
}

}  // namespace perfbench
