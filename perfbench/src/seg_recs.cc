// seg_recs: recommendations served from a sealed segment larger than L3.
//
// A power-law follow graph with a `time` edge property is built on the
// heap, sealed with default (auto) compression to a segment file larger
// than the host's 105 MiB L3, and reopened with OpenFromSegment. Two
// embedded reader threads alternate a MagicRecs-shaped 2-hop top-k
// recommendation and a single-source triangle count from seeded sources
// spread over the whole ID space. Packed varint decode, mmap paging and
// galloping do the work; there are no writes and no server. The answer
// check compares the segment's rows with the heap database's rows for
// the same requests, taken before sealing.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "datagen/financial_props.h"
#include "datagen/power_law_generator.h"
#include "storage/segment.h"
#include "trace.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace aplus;  // NOLINT: benchmark brevity

constexpr uint64_t kNumVertices = 250000;
constexpr double kAvgDegree = 16.0;
constexpr int kReaders = 2;
constexpr int kSetupReps = 3;
constexpr size_t kSourcesPerReader = 65536;
// The first kCheckedPerReader requests of every reader are checked.
constexpr size_t kCheckedPerReader = 100;

// MagicRecs-shaped 2-hop top-k recommendation.
constexpr const char* kRecs =
    "MATCH (a)-[e1:E]->(b)<-[e2:E]-(c) WHERE a.ID = $src, e1.time < 300 "
    "RETURN c, COUNT(*) ORDER BY COUNT(*) DESC, c LIMIT 10";
constexpr const char* kTriangle =
    "MATCH (a)-[r1:E]->(b)-[r2:E]->(c), (a)-[r3:E]->(c) WHERE a.ID = $src RETURN COUNT(*)";

struct SegState {
  std::unique_ptr<Database> db;  // segment-backed
  std::vector<vertex_id_t> sources[kReaders];
  std::unique_ptr<Session> sessions[kReaders];
  PreparedQuery* recs[kReaders] = {};
  PreparedQuery* triangle[kReaders] = {};
  Rows expected[kReaders][kCheckedPerReader];
  uint64_t edges = 0;
  uint64_t vertices = 0;
  uint64_t file_bytes = 0;
  double packed_page_ratio = 0.0;
  size_t heap_primary_bytes = 0;
  double ingest_eps = 0.0;
};

// Runs request i of a reader: even requests recommend, odd ones count
// triangles.
bool RunMixed(PreparedQuery* recs, PreparedQuery* triangle, vertex_id_t src, uint64_t i,
              RowConsumer* consumer, uint64_t* rows) {
  QueryOutcome out = RunRequest(i % 2 == 0 ? recs : triangle, src, consumer);
  if (rows != nullptr) *rows += out.rows;
  return out.ok();
}

// One set-up; `oracle` (the kept, last one) also takes the heap answers
// for the check and, in a traced run, runs the ingest probe.
double Setup(const Options& options, bool oracle, SegState* state, PhaseTimes* phases,
             std::string* error) {
  uint64_t start = NowNs();
  std::unique_ptr<Database> heap;
  phases->Time("datagen.generate", [&] {
    Graph graph;
    PowerLawParams params;
    params.num_vertices = kNumVertices;
    params.avg_degree = kAvgDegree;
    params.preferential_fraction = kPreferentialFraction;
    params.seed = Mix(options.seed, 30);
    GeneratePowerLawGraph(params, &graph);
    AddTimeProperty(Mix(options.seed, 31), 1000, &graph);
    heap = std::make_unique<Database>(std::move(graph));
  });
  phases->Time("index.primary_build", [&] { heap->BuildPrimaryIndexes(); });
  state->vertices = heap->graph().num_vertices();
  // Sources uniform over the whole ID space.
  for (int r = 0; r < kReaders; ++r) {
    Rng rng(Mix(options.seed, 40 + static_cast<uint64_t>(r)));
    state->sources[r].clear();
    for (size_t i = 0; i < kSourcesPerReader; ++i) {
      state->sources[r].push_back(static_cast<vertex_id_t>(rng.NextBounded(state->vertices)));
    }
  }

  // The traced run's ingest probe streams into the heap database (a
  // segment-backed one is read-only), so the segment holds its edges too.
  uint64_t probe_start = NowNs();
  if (options.trace && oracle) {
    state->ingest_eps = ProbeIngestEps(heap.get(), options.seed, kProbeEdges);
  }
  state->edges = heap->graph().num_edges();
  state->heap_primary_bytes = heap->index_store().PrimaryMemoryBytes();
  double oracle_s = SecondsSince(probe_start);
  if (oracle) {
    uint64_t t = NowNs();
    Session session(heap.get());
    PreparedQuery* recs = session.Prepare(kRecs);
    PreparedQuery* triangle = session.Prepare(kTriangle);
    for (int r = 0; r < kReaders; ++r) {
      for (size_t i = 0; i < kCheckedPerReader; ++i) {
        RowCollector rows;
        if (!RunMixed(recs, triangle, state->sources[r][i], i, &rows, nullptr)) {
          *error = "heap request failed";
          return -1.0;
        }
        state->expected[r][i] = rows.TakeRows();
      }
    }
    oracle_s += SecondsSince(t);
  }

  std::string path = options.work_dir + "/seg_recs-" + std::to_string(::getpid()) + ".seg";
  bool sealed = false;
  phases->Time("storage.seal", [&] { sealed = heap->SealToSegment(path, error); });
  if (!sealed) return -1.0;
  heap.reset();
  phases->Time("storage.open", [&] { state->db = Database::OpenFromSegment(path, error); });
  if (state->db == nullptr) {
    ::unlink(path.c_str());
    return -1.0;
  }
  uint64_t stats_start = NowNs();
  {
    std::unique_ptr<Segment> segment = OpenSegment(path, error);
    if (segment != nullptr) {
      const SegmentStats& stats = segment->stats();
      state->file_bytes = stats.file_bytes;
      uint32_t pages = stats.raw_pages + stats.packed_pages;
      state->packed_page_ratio =
          pages == 0 ? 0.0 : static_cast<double>(stats.packed_pages) / static_cast<double>(pages);
    }
  }
  double stats_s = SecondsSince(stats_start);
  // The mapping stays valid after the file's name is gone.
  ::unlink(path.c_str());

  for (int r = 0; r < kReaders; ++r) {
    state->sessions[r] = std::make_unique<Session>(state->db.get());
    {
      trace::Span span("core.prepare");
      state->recs[r] = state->sessions[r]->Prepare(kRecs);
    }
    {
      trace::Span span("core.prepare");
      state->triangle[r] = state->sessions[r]->Prepare(kTriangle);
    }
    if (!state->recs[r]->ok() || !state->triangle[r]->ok()) {
      *error = "prepare failed: " + state->recs[r]->error() + state->triangle[r]->error();
      return -1.0;
    }
  }
  // Warm-up from the tail of the source lists (never checked).
  for (int r = 0; r < kReaders; ++r) {
    for (size_t i = kSourcesPerReader - 200; i < kSourcesPerReader; ++i) {
      if (!RunMixed(state->recs[r], state->triangle[r], state->sources[r][i], i, nullptr,
                      nullptr)) {
        *error = "warm-up request failed";
        return -1.0;
      }
    }
  }
  return SecondsSince(start) - oracle_s - stats_s;
}

}  // namespace

void RunSegRecs(const Options& options, Report* report) {
  std::unique_ptr<SegState> state;
  std::string error;
  PhaseTimes phases;
  double setup_s = MedianSetupSeconds(kSetupReps, options.trace, &state,
                                      [&](int rep, bool last, SegState* st) {
    double s = Setup(options, last, st, &phases, &error);
    std::fprintf(stderr,
                 "setup rep %d: %.3f s (generate %.3f, primary %.3f, seal %.3f, open %.3f)\n", rep,
                 s, phases.Last("datagen.generate"), phases.Last("index.primary_build"),
                 phases.Last("storage.seal"), phases.Last("storage.open"));
    return s;
  });
  if (!error.empty() || state->db == nullptr) {
    report->CheckFailed("set-up: " + error);
    return;
  }
  report->Record("threads", "{\"readers\": 2, \"execute_threads\": 1}");
  report->Record("vertices", static_cast<double>(state->vertices));
  report->Record("edges", static_cast<double>(state->edges));
  report->Record("segment_bytes", static_cast<double>(state->file_bytes));
  report->Record("segment_over_l3", static_cast<double>(state->file_bytes) / (105.0 * 1048576));
  if (state->file_bytes <= 105ull * 1048576) {
    report->CheckFailed("segment of " + std::to_string(state->file_bytes) +
                        " bytes does not exceed the 105 MiB L3");
  }

  std::vector<std::vector<Rows>> seen(kReaders, std::vector<Rows>(kCheckedPerReader));
  std::vector<uint64_t> rows(kReaders, 0);
  LoopResult loop = RunClosedLoop(kReaders, options.seconds, options.trace,
                                  [&](int r, uint64_t i) {
    vertex_id_t src = state->sources[r][i % kSourcesPerReader];
    if (i < kCheckedPerReader) {
      RowCollector collector;
      bool ok = RunMixed(state->recs[r], state->triangle[r], src, i, &collector,
                           &rows[static_cast<size_t>(r)]);
      seen[static_cast<size_t>(r)][i] = collector.TakeRows();
      return ok;
    }
    return RunMixed(state->recs[r], state->triangle[r], src, i, nullptr,
                      &rows[static_cast<size_t>(r)]);
  });
  report->AddLoop(loop);

  // Answer check: segment rows equal the heap rows of the same requests.
  for (int r = 0; r < kReaders; ++r) {
    for (size_t i = 0; i < kCheckedPerReader; ++i) {
      Rows& got = seen[static_cast<size_t>(r)][i];
      if (got.empty()) {
        RowCollector collector;
        RunMixed(state->recs[r], state->triangle[r], state->sources[r][i], i, &collector,
                   nullptr);
        got = collector.TakeRows();
      }
      report->CountCheck();
      if (got != state->expected[r][i]) {
        report->CheckFailed("segment rows differ from heap rows for source " +
                            std::to_string(state->sources[r][i]));
      }
    }
  }

  if (!options.trace) {
    ReportEndToEnd(loop, setup_s,
                   static_cast<double>(state->file_bytes) / static_cast<double>(state->edges),
                   PeakRssMb(), report);
    return;
  }
  phases.ReportMedians(report);
  report->Metric("index.primary_bytes_per_edge",
                 static_cast<double>(state->heap_primary_bytes) /
                     static_cast<double>(state->edges),
                 "B");
  report->Metric("storage.packed_page_ratio", state->packed_page_ratio, "ratio");
  report->Metric("index.ingest_eps", state->ingest_eps, "1/s");
  uint64_t total_rows = 0;
  for (uint64_t n : rows) total_rows += n;
  report->Metric("query.rows_per_request",
                 static_cast<double>(total_rows) /
                     static_cast<double>(std::max<uint64_t>(loop.attempted - loop.failed, 1)),
                 "rows");
  ReportParsePlan(state->db.get(), {kRecs, kTriangle}, report);
  ReportCommonLayers(state->db->graph(), loop, report);
}

}  // namespace perfbench
