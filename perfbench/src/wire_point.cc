// wire_point: prepared point requests over the aplusd wire protocol.
//
// An in-process Server (2 workers) on loopback serves 2 client
// connections issuing a seeded 80/20 mix of a 1-hop lookup and a
// single-source triangle count from out-degree 1..8 sources of the
// loadgen's 20K-vertex, average-degree-8 power-law graph (fits in L3).
// The engine is a few us of each request, so the server and protocol
// layers do most of the work.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "datagen/power_law_generator.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "trace.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace aplus;  // NOLINT: benchmark brevity

constexpr const char* kLookup = "MATCH (a)-[r:E]->(b) WHERE a.ID = $src RETURN b, r.amt";
constexpr const char* kTriangle =
    "MATCH (a)-[r1:E]->(b)-[r2:E]->(c), (a)-[r3:E]->(c) WHERE a.ID = $src RETURN COUNT(*)";
constexpr int kConnections = 2;
constexpr int kWorkers = 2;
// A set-up takes ~0.1 s, so one disturbed stretch of the host can double
// it; the median of eleven rides that out.
constexpr int kSetupReps = 11;
constexpr uint64_t kNumVertices = 20000;
// Every kSampleEvery-th request of a connection keeps its rows for the
// wire-vs-embedded answer check, up to kMaxSamples per connection.
constexpr uint64_t kSampleEvery = 61;
constexpr size_t kMaxSamples = 400;

// One request of the seeded stream: which statement and which source.
struct Request {
  bool triangle = false;
  vertex_id_t src = 0;
};

// The seeded request stream of connection `conn`: request i is the i-th
// draw, so the embedded replay can issue the exact same sequence.
class RequestStream {
 public:
  RequestStream(uint64_t seed, int conn, const std::vector<vertex_id_t>* sources)
      : rng_(Mix(seed, 100 + static_cast<uint64_t>(conn))), sources_(sources) {}
  Request Next() {
    Request r;
    r.triangle = rng_.NextBounded(5) == 0;
    r.src = (*sources_)[rng_.NextBounded(sources_->size())];
    return r;
  }

 private:
  Rng rng_;
  const std::vector<vertex_id_t>* sources_;
};

struct Sample {
  Request request;
  Rows rows;
};

struct WireState {
  std::unique_ptr<Database> db;
  std::vector<vertex_id_t> sources;
  std::unique_ptr<Server> server;
  std::unique_ptr<Client> clients[kConnections];
  uint32_t lookup_stmt[kConnections] = {0, 0};
  uint32_t triangle_stmt[kConnections] = {0, 0};

  ~WireState() {
    for (auto& c : clients) {
      if (c) c->Close();
    }
    if (server) server->Stop();
  }
};

Graph MakeGraph(uint64_t seed) {
  Graph graph;
  PowerLawParams params;
  params.num_vertices = kNumVertices;
  params.avg_degree = 8.0;
  params.seed = Mix(seed, 1);
  GeneratePowerLawGraph(params, &graph);
  prop_key_t amt_key = graph.AddEdgeProperty("amt", ValueType::kInt64);
  PropertyColumn* amt = graph.edge_props().mutable_column(amt_key);
  Rng rng(Mix(seed, 2));
  for (edge_id_t e = 0; e < graph.num_edges(); ++e) {
    amt->SetInt64(e, static_cast<int64_t>(rng.NextBounded(10000)));
  }
  return graph;
}

Rows RenderWireRows(const Client::Result& result) {
  Rows rows;
  for (const auto& row : result.rows.rows) rows.push_back(RenderRow(row));
  return rows;
}

// Builds everything up to the first timed request; returns its seconds.
double Setup(uint64_t seed, WireState* state, PhaseTimes* phases, std::string* error) {
  uint64_t start = NowNs();
  phases->Time("datagen.generate",
               [&] { state->db = std::make_unique<Database>(MakeGraph(seed)); });
  phases->Time("index.primary_build", [&] { state->db->BuildPrimaryIndexes(); });
  state->sources = VerticesWithOutDegree(state->db->graph(), 1, 8);
  if (state->sources.empty()) {
    *error = "no vertex has out-degree 1..8";
    return -1.0;
  }
  ServerOptions options = ServerOptions::FromEnv();
  options.port = 0;
  options.num_workers = kWorkers;
  state->server = std::make_unique<Server>(state->db.get(), options);
  if (!state->server->Start(error)) return -1.0;
  for (int c = 0; c < kConnections; ++c) {
    state->clients[c] = std::make_unique<Client>();
    if (!state->clients[c]->Connect("127.0.0.1", state->server->port(), error)) return -1.0;
    Client::PreparedInfo lookup;
    Client::PreparedInfo triangle;
    {
      trace::Span span("server.prepare");
      lookup = state->clients[c]->Prepare(kLookup);
    }
    {
      trace::Span span("server.prepare");
      triangle = state->clients[c]->Prepare(kTriangle);
    }
    if (!lookup.ok() || !triangle.ok()) {
      *error = "prepare failed: " + lookup.error + triangle.error;
      return -1.0;
    }
    state->lookup_stmt[c] = lookup.stmt_id;
    state->triangle_stmt[c] = triangle.stmt_id;
  }
  // Warm-up: a short burst per connection from a stream the timed
  // window does not use.
  for (int c = 0; c < kConnections; ++c) {
    RequestStream warm(Mix(seed, 7), c, &state->sources);
    for (int i = 0; i < 500; ++i) {
      Request r = warm.Next();
      Client::Result result = state->clients[c]->Execute(
          r.triangle ? state->triangle_stmt[c] : state->lookup_stmt[c],
          {{"src", Value::Int64(static_cast<int64_t>(r.src))}});
      if (!result.ok()) {
        *error = "warm-up request failed: " + result.error;
        return -1.0;
      }
    }
  }
  return SecondsSince(start);
}

// Embedded reference rows for one request; false on a non-OK status.
bool EmbeddedRows(Session* session, const Request& r, Rows* rows) {
  PreparedQuery* q = session->Prepare(r.triangle ? kTriangle : kLookup);
  RowCollector collector;
  bool ok = RunRequest(q, r.src, &collector).ok();
  *rows = collector.TakeRows();
  return ok;
}

// Times wire::AppendRowsFrame on every batch an embedded execution
// delivers (the server's encode step, run from the benchmark's side).
class EncodeTimer : public RowConsumer {
 public:
  void OnBatch(const RowBatch& batch) override {
    buffer_.clear();
    uint64_t t = NowNs();
    wire::AppendRowsFrame(batch, &buffer_);
    total_ns_ += NowNs() - t;
    frames_++;
  }
  double ns_per_frame() const {
    return frames_ == 0 ? 0.0 : static_cast<double>(total_ns_) / static_cast<double>(frames_);
  }

 private:
  std::vector<uint8_t> buffer_;
  uint64_t total_ns_ = 0;
  uint64_t frames_ = 0;
};

// Per-layer extras of the traced run: the embedded replay of connection
// 0's request stream, raw-frame response sizes and decode cost, and the
// shared plan cache hit ratio.
void TraceLayers(uint64_t seed, WireState* state, const LoopResult& loop, Report* report) {
  // Embedded replay of the same request stream.
  Session session(state->db.get());
  PreparedQuery* lookup = nullptr;
  PreparedQuery* triangle = nullptr;
  trace::SetThreadActive(true);
  {
    trace::Span span("core.prepare");
    lookup = session.Prepare(kLookup);
  }
  {
    trace::Span span("core.prepare");
    triangle = session.Prepare(kTriangle);
  }
  trace::SetThreadActive(false);
  uint64_t replay = std::clamp<uint64_t>(loop.attempted / kConnections, 1000, 50000);
  RequestStream stream(seed, 0, &state->sources);
  EncodeTimer encoder;
  uint64_t rows = 0;
  uint64_t ok = 0;
  for (uint64_t i = 0; i < replay; ++i) {
    Request r = stream.Next();
    PreparedQuery* q = r.triangle ? triangle : lookup;
    trace::SetThreadActive(true);
    trace::SetThreadRequest((uint64_t{9} << 40) | i);
    {
      trace::Span request("host.replay");
      QueryOutcome out = RunRequest(q, r.src, &encoder);
      if (out.ok()) {
        ok++;
        rows += out.rows;
      }
    }
    trace::SetThreadActive(false);
  }
  trace::SetThreadRequest(0);
  report->Metric("query.rows_per_request",
                 static_cast<double>(rows) / static_cast<double>(std::max<uint64_t>(ok, 1)),
                 "rows");
  report->Metric("protocol.encode_ns", encoder.ns_per_frame(), "ns");

  // Raw frames: response bytes per request and client-side decode cost.
  Client raw;
  std::string error;
  uint64_t response_bytes = 0;
  uint64_t responses = 0;
  std::vector<std::vector<uint8_t>> row_payloads;
  if (raw.Connect("127.0.0.1", state->server->port(), &error)) {
    Client::PreparedInfo lk = raw.Prepare(kLookup);
    Client::PreparedInfo tr = raw.Prepare(kTriangle);
    RequestStream sample(seed, 0, &state->sources);
    std::vector<uint8_t> frame;
    for (int i = 0; i < 2000 && lk.ok() && tr.ok(); ++i) {
      Request r = sample.Next();
      frame.clear();
      wire::FrameWriter w(&frame);
      w.BeginFrame(wire::FrameType::kExecute);
      w.PutU32(r.triangle ? tr.stmt_id : lk.stmt_id);
      w.PutU32(0);
      w.PutU64(0);
      w.PutU32(1);
      w.PutStr16("src");
      w.PutU8(static_cast<uint8_t>(wire::ParamTag::kInt64));
      w.PutI64(static_cast<int64_t>(r.src));
      w.EndFrame();
      if (!raw.SendRaw(frame.data(), frame.size())) break;
      bool done = false;
      while (!done) {
        std::vector<uint8_t> reply;
        if (!raw.ReadFrameRaw(&reply, &error)) {
          done = true;
          break;
        }
        response_bytes += reply.size();
        auto type = static_cast<wire::FrameType>(reply[4]);
        if (type == wire::FrameType::kRows) {
          if (row_payloads.size() < 2000) {
            row_payloads.emplace_back(reply.begin() + wire::kFrameHeaderBytes, reply.end());
          }
        } else if (type == wire::FrameType::kDone || type == wire::FrameType::kError) {
          done = true;
        }
      }
      responses++;
    }
    raw.Close();
  }
  report->Metric("server.response_bytes",
                 static_cast<double>(response_bytes) /
                     static_cast<double>(std::max<uint64_t>(responses, 1)),
                 "B");
  uint64_t decode_ns = 0;
  uint64_t decoded = 0;
  for (int pass = 0; pass < 5; ++pass) {
    for (const auto& payload : row_payloads) {
      wire::DecodedRows out;
      uint64_t t = NowNs();
      wire::DecodeRowsPayload(payload.data(), payload.size(), &out, &error);
      decode_ns += NowNs() - t;
      decoded++;
    }
  }
  report->Metric("protocol.decode_ns",
                 static_cast<double>(decode_ns) / static_cast<double>(std::max<uint64_t>(decoded, 1)),
                 "ns");

  Client::Stats stats = state->clients[0]->GetStats();
  double lookups = static_cast<double>(stats.cache_hits + stats.cache_misses);
  report->Metric("server.plan_cache_hit_ratio",
                 lookups > 0 ? static_cast<double>(stats.cache_hits) / lookups : 0.0, "ratio");
}

}  // namespace

void RunWirePoint(const Options& options, Report* report) {
  std::unique_ptr<WireState> state;
  std::string error;
  PhaseTimes phases;
  double setup_s = MedianSetupSeconds(kSetupReps, options.trace, &state,
                                      [&](int, bool, WireState* st) {
    return Setup(options.seed, st, &phases, &error);
  });
  if (!error.empty()) {
    report->CheckFailed("set-up: " + error);
    return;
  }
  const Graph& graph = state->db->graph();
  report->Record("threads", "{\"connections\": 2, \"server_workers\": 2, \"execute_threads\": 1}");
  report->Record("vertices", static_cast<double>(graph.num_vertices()));
  report->Record("edges", static_cast<double>(graph.num_edges()));
  report->Record("index_bytes", static_cast<double>(state->db->index_store().TotalMemoryBytes()));

  // The timed window.
  std::vector<RequestStream> streams;
  for (int c = 0; c < kConnections; ++c) streams.emplace_back(options.seed, c, &state->sources);
  std::vector<std::vector<Sample>> samples(kConnections);
  LoopResult loop = RunClosedLoop(kConnections, options.seconds, options.trace,
                                  [&](int c, uint64_t i) {
    Request r = streams[static_cast<size_t>(c)].Next();
    Client::Result result;
    {
      trace::Span span("server.execute");
      result = state->clients[c]->Execute(
          r.triangle ? state->triangle_stmt[c] : state->lookup_stmt[c],
          {{"src", Value::Int64(static_cast<int64_t>(r.src))}});
    }
    if (!result.ok()) return false;
    if (i % kSampleEvery == 0 && samples[static_cast<size_t>(c)].size() < kMaxSamples) {
      samples[static_cast<size_t>(c)].push_back(Sample{r, RenderWireRows(result)});
    }
    return true;
  });
  report->AddLoop(loop);

  // Answer check: sampled wire rows equal embedded rows.
  Session session(state->db.get());
  for (auto& per_conn : samples) {
    for (Sample& s : per_conn) {
      Rows expected;
      bool ok = EmbeddedRows(&session, s.request, &expected);
      std::sort(expected.begin(), expected.end());
      std::sort(s.rows.begin(), s.rows.end());
      report->CountCheck();
      if (!ok || expected != s.rows) {
        report->CheckFailed("wire rows differ from embedded rows for src " +
                            std::to_string(s.request.src));
      }
    }
  }

  uint64_t edges = graph.num_edges();
  double index_bytes = static_cast<double>(state->db->index_store().TotalMemoryBytes());
  double primary_bytes = static_cast<double>(state->db->index_store().PrimaryMemoryBytes());
  if (!options.trace) {
    ReportEndToEnd(loop, setup_s, index_bytes / static_cast<double>(edges), PeakRssMb(), report);
    return;
  }
  phases.ReportMedians(report);
  report->Metric("index.primary_bytes_per_edge", primary_bytes / static_cast<double>(edges), "B");
  TraceLayers(options.seed, state.get(), loop, report);
  ReportParsePlan(state->db.get(), {kLookup, kTriangle}, report);
  // The probe runs after the window, so the served graph is the
  // loadgen's; the server is idle.
  trace::SetThreadActive(true);
  report->Metric("index.ingest_eps", ProbeIngestEps(state->db.get(), options.seed, kProbeEdges),
                 "1/s");
  trace::SetThreadActive(false);
  ReportCommonLayers(graph, loop, report);
  auto stats = trace::Collect();
  double wire_p50 = loop.p50_us();
  double embedded_p50 = stats["core.execute"].percentile_us(0.5);
  report->Metric("server.overhead_us", wire_p50 - embedded_p50, "us");
  report->Metric("server.prepare_us", stats["server.prepare"].mean_us(), "us");
}

}  // namespace perfbench
