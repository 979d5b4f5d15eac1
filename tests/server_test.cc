// aplusd server tests: the wire protocol end-to-end against an
// in-process Server on an ephemeral loopback port. Row payloads are
// byte-decoded by the client and compared against a Session executing
// the same text in-process (the serving-API oracle); protocol abuse
// (malformed / truncated / oversized / out-of-order frames) must fail
// with typed PROTOCOL_ERROR frames and never take the server down.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "datagen/power_law_generator.h"
#include "server/client.h"
#include "server/server.h"
#include "util/rng.h"

namespace aplus {
namespace {

constexpr const char* kPointLookup =
    "MATCH (a)-[r1:E]->(b)-[r2:E]->(c) WHERE a.ID = $src RETURN b, c, r2.amt";
constexpr const char* kPointCount =
    "MATCH (a)-[r1:E]->(b)-[r2:E]->(c) WHERE a.ID = $src RETURN COUNT(*)";
constexpr const char* kGroupedAgg =
    "MATCH (a)-[r1:E]->(b) RETURN b, COUNT(*), SUM(r1.amt)";
constexpr const char* kDistinctMid = "MATCH (a)-[r1:E]->(b)-[r2:E]->(c) RETURN DISTINCT b";
constexpr const char* kWholeGraphRows = "MATCH (a)-[r1:E]->(b)-[r2:E]->(c) RETURN a, b, c";

// Canonical order-insensitive encoding of a row set (both sides of the
// oracle diff deliver rows in nondeterministic order).
std::string Repr(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "∅";
    case ValueType::kDouble:
      return "d:" + std::to_string(v.AsDouble());
    case ValueType::kString:
      return "s:" + v.AsString();
    case ValueType::kBool:
      return v.AsBool() ? "b:1" : "b:0";
    default:
      return "i:" + std::to_string(v.AsInt64());
  }
}

std::vector<std::string> Canon(const std::vector<std::vector<Value>>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const auto& row : rows) {
    std::string s;
    for (const Value& v : row) {
      s += Repr(v);
      s.push_back('|');
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct RowCollector : RowConsumer {
  std::mutex mu;
  std::vector<std::vector<Value>> rows;
  void OnBatch(const RowBatch& batch) override {
    std::lock_guard<std::mutex> lock(mu);
    for (uint32_t r = 0; r < batch.num_rows(); ++r) {
      std::vector<Value> row;
      for (size_t c = 0; c < batch.num_columns(); ++c) row.push_back(batch.Cell(c, r));
      rows.push_back(std::move(row));
    }
  }
};

// An EXECUTE frame with an optional int64 `src` binding, for raw sends.
std::vector<uint8_t> ExecuteFrame(uint32_t stmt_id, uint64_t max_rows, const int64_t* src) {
  std::vector<uint8_t> buf;
  wire::FrameWriter w(&buf);
  w.BeginFrame(wire::FrameType::kExecute);
  w.PutU32(stmt_id);
  w.PutU32(0);  // server default deadline
  w.PutU64(max_rows);
  w.PutU32(src != nullptr ? 1 : 0);
  if (src != nullptr) {
    w.PutStr16("src");
    w.PutU8(static_cast<uint8_t>(wire::ParamTag::kInt64));
    w.PutI64(*src);
  }
  w.EndFrame();
  return buf;
}

// A frame whose payload is at most one u32 (FETCH appends max_rows).
std::vector<uint8_t> SmallFrame(wire::FrameType type, const uint32_t* stmt_id,
                                const uint64_t* max_rows = nullptr) {
  std::vector<uint8_t> buf;
  wire::FrameWriter w(&buf);
  w.BeginFrame(type);
  if (stmt_id != nullptr) w.PutU32(*stmt_id);
  if (max_rows != nullptr) w.PutU64(*max_rows);
  w.EndFrame();
  return buf;
}

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() { Rebuild(600); }

  void Rebuild(uint64_t num_vertices) {
    server_.reset();
    Graph graph;
    PowerLawParams params;
    params.num_vertices = num_vertices;
    params.avg_degree = 5.0;
    params.seed = 17;
    GeneratePowerLawGraph(params, &graph);
    amt_key_ = graph.AddEdgeProperty("amt", ValueType::kInt64);
    PropertyColumn* amt = graph.edge_props().mutable_column(amt_key_);
    Rng rng(23);
    for (edge_id_t e = 0; e < graph.num_edges(); ++e) {
      amt->SetInt64(e, static_cast<int64_t>(rng.NextBounded(1000)));
    }
    db_ = std::make_unique<Database>(std::move(graph));
    db_->BuildPrimaryIndexes();
    elabel_ = db_->graph().catalog().FindEdgeLabel("E");
  }

  // Starts (or restarts) the in-process server on an ephemeral port.
  void StartServer(ServerOptions options = {}) {
    server_ = std::make_unique<Server>(db_.get(), options);
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  std::unique_ptr<Client> Connect() {
    auto client = std::make_unique<Client>();
    std::string error;
    EXPECT_TRUE(client->Connect("127.0.0.1", server_->port(), &error)) << error;
    return client;
  }

  // The in-process oracle: the same text through a Session.
  std::vector<std::vector<Value>> OracleRows(const std::string& text,
                                             const std::vector<std::pair<std::string, Value>>&
                                                 params = {}) {
    Session session(db_.get());
    PreparedQuery* q = session.Prepare(text);
    EXPECT_TRUE(q->ok()) << q->error();
    for (const auto& p : params) EXPECT_TRUE(q->Bind(p.first, p.second)) << q->bind_error();
    RowCollector rows;
    QueryOutcome out = q->Execute(&rows);
    EXPECT_TRUE(out.ok()) << out.error;
    return std::move(rows.rows);
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Server> server_;
  prop_key_t amt_key_ = kInvalidPropKey;
  label_t elabel_ = kInvalidLabel;
};

TEST_F(ServerTest, HelloHandshakeReportsBatchingFlag) {
  ServerOptions options;
  options.batching = false;
  StartServer(options);
  auto client = Connect();
  ASSERT_TRUE(client->connected());
  EXPECT_FALSE(client->server_batching());
}

TEST_F(ServerTest, PreparedPointLookupMatchesSessionOracle) {
  StartServer();
  auto client = Connect();
  Client::PreparedInfo info = client->Prepare(kPointLookup);
  ASSERT_TRUE(info.ok()) << info.error;
  ASSERT_EQ(info.param_names.size(), 1u);
  EXPECT_EQ(info.param_names[0], "src");
  ASSERT_EQ(info.columns.size(), 3u);
  EXPECT_EQ(info.columns[0].second, "b");
  EXPECT_EQ(info.columns[2].second, "r2.amt");

  for (vertex_id_t src : {7u, 42u, 123u, 0u}) {
    Client::Result result =
        client->Execute(info.stmt_id, {{"src", Value::Int64(src)}});
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_FALSE(result.more);
    auto oracle = OracleRows(kPointLookup, {{"src", Value::Int64(src)}});
    EXPECT_EQ(Canon(result.rows.rows), Canon(oracle)) << "src=" << src;
  }
}

TEST_F(ServerTest, CountStarAndGroupedAggregateMatchOracle) {
  StartServer();
  auto client = Connect();
  Client::PreparedInfo count = client->Prepare(kPointCount);
  ASSERT_TRUE(count.ok()) << count.error;
  Client::Result counted = client->Execute(count.stmt_id, {{"src", Value::Int64(7)}});
  ASSERT_TRUE(counted.ok()) << counted.error;
  auto count_oracle = OracleRows(kPointCount, {{"src", Value::Int64(7)}});
  EXPECT_EQ(Canon(counted.rows.rows), Canon(count_oracle));

  Client::PreparedInfo agg = client->Prepare(kGroupedAgg);
  ASSERT_TRUE(agg.ok()) << agg.error;
  Client::Result grouped = client->Execute(agg.stmt_id, {});
  ASSERT_TRUE(grouped.ok()) << grouped.error;
  EXPECT_EQ(Canon(grouped.rows.rows), Canon(OracleRows(kGroupedAgg)));
}

TEST_F(ServerTest, DistinctOverWireMatchesOracle) {
  StartServer();
  auto client = Connect();
  Client::PreparedInfo info = client->Prepare(kDistinctMid);
  ASSERT_TRUE(info.ok()) << info.error;
  Client::Result result = client->Execute(info.stmt_id, {});
  ASSERT_TRUE(result.ok()) << result.error;
  auto canon = Canon(result.rows.rows);
  EXPECT_EQ(canon, Canon(OracleRows(kDistinctMid)));
  // DISTINCT actually deduplicates: every canonical row is unique.
  EXPECT_EQ(std::unique(canon.begin(), canon.end()), canon.end());
}

TEST_F(ServerTest, FetchPagesThroughTheSpool) {
  StartServer();
  auto client = Connect();
  Client::PreparedInfo info = client->Prepare(kWholeGraphRows);
  ASSERT_TRUE(info.ok()) << info.error;
  auto oracle = OracleRows(kWholeGraphRows);
  ASSERT_GT(oracle.size(), 100u);

  // First page: max_rows rounds up to whole batches, so delivered >=
  // requested while more rows remain.
  Client::Result first = client->Execute(info.stmt_id, {}, 0, 100);
  ASSERT_TRUE(first.ok()) << first.error;
  EXPECT_TRUE(first.more);
  EXPECT_GE(first.rows_delivered, 100u);
  EXPECT_LT(first.rows.rows.size(), oracle.size());

  std::vector<std::vector<Value>> all = std::move(first.rows.rows);
  bool more = first.more;
  while (more) {
    Client::Result page = client->Fetch(info.stmt_id, 100);
    ASSERT_TRUE(page.ok()) << page.error;
    for (auto& row : page.rows.rows) all.push_back(std::move(row));
    more = page.more;
  }
  EXPECT_EQ(Canon(all), Canon(oracle));

  // A drained spool fetches zero rows, not an error.
  Client::Result done = client->Fetch(info.stmt_id, 100);
  ASSERT_TRUE(done.ok()) << done.error;
  EXPECT_EQ(done.rows.rows.size(), 0u);
  EXPECT_FALSE(done.more);

  // FETCH on an unknown statement is a typed protocol error.
  Client::Result bad = client->Fetch(9999, 10);
  EXPECT_EQ(bad.status, wire::WireStatus::kProtocolError);
}

TEST_F(ServerTest, DeadlineProducesTimeoutFrame) {
  Rebuild(20000);
  StartServer();
  auto client = Connect();
  // Whole-graph triangle counting: far beyond a 1ms deadline at this size.
  Client::PreparedInfo info = client->Prepare(
      "MATCH (a)-[r1:E]->(b)-[r2:E]->(c), (a)-[r3:E]->(c) RETURN COUNT(*)");
  ASSERT_TRUE(info.ok()) << info.error;
  Client::Result result = client->Execute(info.stmt_id, {}, /*deadline_millis=*/1);
  EXPECT_EQ(result.status, wire::WireStatus::kTimeout) << result.error;
  EXPECT_FALSE(result.error.empty());
  // The connection survives a timed-out request.
  Client::Result retry = client->Execute(info.stmt_id, {}, /*deadline_millis=*/60000);
  EXPECT_TRUE(retry.ok()) << retry.error;
}

TEST_F(ServerTest, AdmissionFullReturnsOverloadedFrame) {
  Rebuild(20000);
  db_->admission().Configure({/*max_concurrent=*/1, /*max_queue=*/0, /*queue_timeout_ms=*/0});
  ServerOptions options;
  options.num_workers = 8;
  StartServer(options);

  constexpr int kClients = 6;
  std::atomic<int> ok_count{0};
  std::atomic<int> overloaded{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      auto client = Connect();
      Client::PreparedInfo info = client->Prepare(
          "MATCH (a)-[r1:E]->(b)-[r2:E]->(c), (a)-[r3:E]->(c) RETURN COUNT(*)");
      ASSERT_TRUE(info.ok()) << info.error;
      Client::Result result = client->Execute(info.stmt_id, {});
      if (result.ok()) {
        ok_count.fetch_add(1);
      } else {
        EXPECT_EQ(result.status, wire::WireStatus::kOverloaded) << result.error;
        overloaded.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // One slot, no queue: at least one runs, at least one is rejected
  // with the typed OVERLOADED frame, nothing hangs or crashes.
  EXPECT_GE(ok_count.load(), 1);
  EXPECT_GE(overloaded.load(), 1);
  EXPECT_EQ(ok_count.load() + overloaded.load(), kClients);
}

TEST_F(ServerTest, SharedPlanCacheHitsAcrossConnectionsAndInvalidates) {
  StartServer();
  auto a = Connect();
  auto b = Connect();
  ASSERT_TRUE(a->Prepare(kPointLookup).ok());
  EXPECT_EQ(db_->plan_cache().misses(), 1u);
  EXPECT_EQ(db_->plan_cache().hits(), 0u);
  // Second connection, same text: served from the shared plan.
  ASSERT_TRUE(b->Prepare(kPointLookup).ok());
  EXPECT_EQ(db_->plan_cache().misses(), 1u);
  EXPECT_EQ(db_->plan_cache().hits(), 1u);
  // Whitespace variants normalize onto the same entry.
  ASSERT_TRUE(b->Prepare("  MATCH (a)-[r1:E]->(b)-[r2:E]->(c)   WHERE a.ID = $src "
                         "RETURN b, c, r2.amt  ")
                  .ok());
  EXPECT_EQ(db_->plan_cache().hits(), 2u);

  // DDL (index rebuild) bumps the store version: the entry is stale and
  // the next prepare re-optimizes.
  db_->BuildPrimaryIndexes();
  ASSERT_TRUE(a->Prepare(kPointLookup).ok());
  EXPECT_EQ(db_->plan_cache().misses(), 2u);

  // Ingest growing the graph past 2x the planned edge count also
  // invalidates (the plan quality rule, Database::PlanStale).
  const uint64_t to_add = db_->graph().num_edges() + 1;
  Rng rng(5);
  const uint64_t n = db_->graph().num_vertices();
  for (uint64_t i = 0; i < to_add; ++i) {
    edge_id_t e = db_->graph().AddEdge(static_cast<vertex_id_t>(rng.NextBounded(n)),
                                       static_cast<vertex_id_t>(rng.NextBounded(n)), elabel_);
    db_->graph().edge_props().mutable_column(amt_key_)->SetInt64(e, 1);
    db_->maintainer().OnEdgeInserted(e);
  }
  ASSERT_TRUE(b->Prepare(kPointLookup).ok());
  EXPECT_EQ(db_->plan_cache().misses(), 3u);
  // And the re-prepared plan still answers correctly on the grown graph.
  auto c = Connect();
  Client::PreparedInfo info = c->Prepare(kPointLookup);
  ASSERT_TRUE(info.ok());
  Client::Result result = c->Execute(info.stmt_id, {{"src", Value::Int64(7)}});
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(Canon(result.rows.rows),
            Canon(OracleRows(kPointLookup, {{"src", Value::Int64(7)}})));
}

TEST_F(ServerTest, MalformedFramesFailTypedNotFatal) {
  StartServer();

  {  // A frame advertising an oversized payload is rejected and closed.
    auto client = Connect();
    uint8_t bad[5];
    uint32_t len = wire::kMaxFrameBytes + 1;
    std::memcpy(bad, &len, 4);
    bad[4] = 0x02;
    ASSERT_TRUE(client->SendRaw(bad, sizeof(bad)));
    std::vector<uint8_t> frame;
    std::string error;
    ASSERT_TRUE(client->ReadFrameRaw(&frame, &error)) << error;
    EXPECT_EQ(frame[4], static_cast<uint8_t>(wire::FrameType::kError));
    EXPECT_EQ(frame[5], static_cast<uint8_t>(wire::WireStatus::kProtocolError));
    // ...and the server closes the connection afterwards.
    EXPECT_FALSE(client->ReadFrameRaw(&frame, &error));
  }

  {  // Unknown frame type.
    auto client = Connect();
    uint8_t bad[5] = {0, 0, 0, 0, 0x7F};
    ASSERT_TRUE(client->SendRaw(bad, sizeof(bad)));
    std::vector<uint8_t> frame;
    std::string error;
    ASSERT_TRUE(client->ReadFrameRaw(&frame, &error)) << error;
    EXPECT_EQ(frame[5], static_cast<uint8_t>(wire::WireStatus::kProtocolError));
  }

  {  // EXECUTE whose payload truncates mid-parameter.
    auto client = Connect();
    std::vector<uint8_t> buf;
    wire::FrameWriter w(&buf);
    w.BeginFrame(wire::FrameType::kExecute);
    w.PutU32(1);  // stmt_id, but the rest of the payload is missing
    w.EndFrame();
    ASSERT_TRUE(client->SendRaw(buf.data(), buf.size()));
    std::vector<uint8_t> frame;
    std::string error;
    ASSERT_TRUE(client->ReadFrameRaw(&frame, &error)) << error;
    EXPECT_EQ(frame[5], static_cast<uint8_t>(wire::WireStatus::kProtocolError));
  }

  {  // A request before HELLO is rejected on a hand-rolled socket.
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    std::vector<uint8_t> buf;
    wire::FrameWriter w(&buf);
    w.BeginFrame(wire::FrameType::kStats);
    w.EndFrame();
    ASSERT_EQ(send(fd, buf.data(), buf.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(buf.size()));
    uint8_t response[6] = {0};
    ssize_t got = recv(fd, response, sizeof(response), MSG_WAITALL);
    ASSERT_EQ(got, static_cast<ssize_t>(sizeof(response)));
    EXPECT_EQ(response[4], static_cast<uint8_t>(wire::FrameType::kError));
    EXPECT_EQ(response[5], static_cast<uint8_t>(wire::WireStatus::kProtocolError));
    close(fd);
  }

  {  // A truncated frame followed by connection abort must not wedge
     // the server; a later client still gets served.
    auto client = Connect();
    uint8_t partial[3] = {9, 0, 0};
    ASSERT_TRUE(client->SendRaw(partial, sizeof(partial)));
    client->Close();
  }

  {  // Random byte fuzz: the server survives garbage from many
     // connections in a row.
    Rng rng(99);
    for (int round = 0; round < 10; ++round) {
      auto client = Connect();
      uint8_t junk[257];
      size_t len = 1 + rng.NextBounded(sizeof(junk) - 1);
      for (size_t i = 0; i < len; ++i) junk[i] = static_cast<uint8_t>(rng.NextBounded(256));
      client->SendRaw(junk, len);
      client->Close();
    }
  }

  // After all of the abuse, a well-behaved client still works.
  auto client = Connect();
  Client::PreparedInfo info = client->Prepare(kPointCount);
  ASSERT_TRUE(info.ok()) << info.error;
  Client::Result result = client->Execute(info.stmt_id, {{"src", Value::Int64(7)}});
  EXPECT_TRUE(result.ok()) << result.error;
}

TEST_F(ServerTest, BatchingGroupsIdenticalExecutesAndMatchesUnbatched) {
  // One worker plus a slow occupying query (whole-graph triangles on a
  // 20k graph): identical requests queue behind it, so the batching
  // seam deterministically groups them.
  Rebuild(20000);
  ServerOptions batched;
  batched.num_workers = 1;
  batched.batching = true;
  StartServer(batched);

  auto oracle = OracleRows(kPointLookup, {{"src", Value::Int64(7)}});

  auto blocker = Connect();
  Client::PreparedInfo blocker_info = blocker->Prepare(
      "MATCH (a)-[r1:E]->(b)-[r2:E]->(c), (a)-[r3:E]->(c) RETURN COUNT(*)");
  ASSERT_TRUE(blocker_info.ok());

  constexpr int kFollowers = 3;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<Client::PreparedInfo> infos;
  for (int i = 0; i < kFollowers; ++i) {
    clients.push_back(Connect());
    infos.push_back(clients.back()->Prepare(kPointLookup));
    ASSERT_TRUE(infos.back().ok());
  }

  std::thread occupant([&] {
    Client::Result r = blocker->Execute(blocker_info.stmt_id, {});
    EXPECT_TRUE(r.ok()) << r.error;
  });
  // Give the occupying execute time to claim the single worker, then
  // fire the identical requests; they queue and group.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::vector<std::thread> threads;
  for (int i = 0; i < kFollowers; ++i) {
    threads.emplace_back([&, i] {
      Client::Result r = clients[i]->Execute(infos[i].stmt_id, {{"src", Value::Int64(7)}});
      ASSERT_TRUE(r.ok()) << r.error;
      EXPECT_EQ(Canon(r.rows.rows), Canon(oracle));
    });
  }
  occupant.join();
  for (std::thread& t : threads) t.join();
  EXPECT_GE(server_->batch_saved(), 1u);

  // Differential: batching off produces the same rows.
  ServerOptions unbatched;
  unbatched.batching = false;
  StartServer(unbatched);
  auto client = Connect();
  Client::PreparedInfo info = client->Prepare(kPointLookup);
  ASSERT_TRUE(info.ok());
  Client::Result r = client->Execute(info.stmt_id, {{"src", Value::Int64(7)}});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(Canon(r.rows.rows), Canon(oracle));
  EXPECT_EQ(server_->batch_saved(), 0u);
}

TEST_F(ServerTest, EightClientSoakWithHighCacheHitRate) {
  StartServer();
  auto point_oracle = [&](vertex_id_t src) {
    return Canon(OracleRows(kPointLookup, {{"src", Value::Int64(src)}}));
  };
  std::vector<std::vector<std::string>> oracles;
  for (vertex_id_t src = 0; src < 16; ++src) oracles.push_back(point_oracle(src));
  auto agg_oracle = Canon(OracleRows(kGroupedAgg));
  auto distinct_oracle = Canon(OracleRows(kDistinctMid));

  constexpr int kClients = 8;
  constexpr int kRounds = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      auto client = Connect();
      Rng rng(static_cast<uint64_t>(1000 + t));
      for (int round = 0; round < kRounds; ++round) {
        // Statement churn every round: prepares keep flowing through
        // the shared cache, which is what the hit-rate bar measures.
        Client::PreparedInfo point = client->Prepare(kPointLookup);
        ASSERT_TRUE(point.ok()) << point.error;
        for (int i = 0; i < 4; ++i) {
          vertex_id_t src = static_cast<vertex_id_t>(rng.NextBounded(16));
          Client::Result r = client->Execute(point.stmt_id, {{"src", Value::Int64(src)}});
          ASSERT_TRUE(r.ok()) << r.error;
          EXPECT_EQ(Canon(r.rows.rows), oracles[src]);
        }
        Client::PreparedInfo agg = client->Prepare(kGroupedAgg);
        ASSERT_TRUE(agg.ok()) << agg.error;
        Client::Result ar = client->Execute(agg.stmt_id, {});
        ASSERT_TRUE(ar.ok()) << ar.error;
        EXPECT_EQ(Canon(ar.rows.rows), agg_oracle);
        Client::PreparedInfo distinct = client->Prepare(kDistinctMid);
        ASSERT_TRUE(distinct.ok()) << distinct.error;
        Client::Result dr = client->Execute(distinct.stmt_id, {});
        ASSERT_TRUE(dr.ok()) << dr.error;
        EXPECT_EQ(Canon(dr.rows.rows), distinct_oracle);
        std::string error;
        ASSERT_TRUE(client->CloseStatement(point.stmt_id, &error)) << error;
        ASSERT_TRUE(client->CloseStatement(agg.stmt_id, &error)) << error;
        ASSERT_TRUE(client->CloseStatement(distinct.stmt_id, &error)) << error;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const uint64_t hits = db_->plan_cache().hits();
  const uint64_t misses = db_->plan_cache().misses();
  ASSERT_GT(hits + misses, 0u);
  // 3 texts, 8 clients x 8 rounds of prepares: after the 3 warmup
  // misses everything is a shared-plan hit (>= 90% acceptance bar).
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(hits + misses), 0.9);
  EXPECT_EQ(server_->queries(), uint64_t{kClients * kRounds * 6});
}

TEST_F(ServerTest, CancelStopsInflightExecute) {
  Rebuild(20000);
  StartServer();
  auto client = Connect();
  Client::PreparedInfo info = client->Prepare(
      "MATCH (a)-[r1:E]->(b)-[r2:E]->(c), (a)-[r3:E]->(c) RETURN COUNT(*)");
  ASSERT_TRUE(info.ok()) << info.error;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    client->Cancel();
  });
  Client::Result result = client->Execute(info.stmt_id, {});
  canceller.join();
  // Either the cancel landed mid-execute (CANCELLED) or the query beat
  // it (OK) — on the 20k graph the former, but don't flake on fast
  // machines.
  if (!result.ok()) {
    EXPECT_EQ(result.status, wire::WireStatus::kCancelled) << result.error;
    // The connection stays usable.
    Client::Result retry = client->Execute(info.stmt_id, {}, /*deadline_millis=*/60000);
    EXPECT_TRUE(retry.ok()) << retry.error;
  }
}

TEST_F(ServerTest, CleanShutdownDrainsInflightQueries) {
  Rebuild(20000);
  StartServer();
  constexpr int kClients = 4;
  std::atomic<int> responded{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      auto client = Connect();
      Client::PreparedInfo info = client->Prepare(
          "MATCH (a)-[r1:E]->(b)-[r2:E]->(c), (a)-[r3:E]->(c) RETURN COUNT(*)");
      ASSERT_TRUE(info.ok()) << info.error;
      Client::Result result = client->Execute(info.stmt_id, {});
      // Stop() cancels in-flight work; any typed outcome (or a closed
      // socket) is acceptable, hanging is not.
      responded.fetch_add(1);
      (void)result;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server_->Stop();  // must not hang with executes in flight
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(responded.load(), kClients);
}

TEST_F(ServerTest, CancelLandsWhileTheOnlyWorkerExecutes) {
  // One worker, busy with the whole-graph triangle: the CANCEL can only
  // be read by the I/O loop thread, which must act on it mid-execute.
  Rebuild(20000);
  ServerOptions options;
  options.num_workers = 1;
  StartServer(options);
  auto client = Connect();
  Client::PreparedInfo info = client->Prepare(
      "MATCH (a)-[r1:E]->(b)-[r2:E]->(c), (a)-[r3:E]->(c) RETURN COUNT(*)");
  ASSERT_TRUE(info.ok()) << info.error;
  const auto start = std::chrono::steady_clock::now();
  std::atomic<double> cancel_after{0.0};
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    cancel_after.store(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
    client->Cancel();
  });
  Client::Result result = client->Execute(info.stmt_id, {});
  canceller.join();
  if (result.ok()) {
    // Only a query that finished before the cancel was sent may succeed.
    EXPECT_LT(result.seconds, cancel_after.load())
        << "the execute outlived the CANCEL but was not cancelled";
    return;
  }
  EXPECT_EQ(result.status, wire::WireStatus::kCancelled) << result.error;
  // The connection and the single worker stay usable.
  Client::Result retry = client->Execute(info.stmt_id, {}, /*deadline_millis=*/60000);
  EXPECT_TRUE(retry.ok()) << retry.error;
}

TEST_F(ServerTest, CancelReadWithItsExecuteStopsItBeforeItStarts) {
  // EXECUTE and CANCEL in one send: the worker parses both before the
  // query starts, so no query is in flight when the CANCEL is read. It
  // must still cancel this execute (and not the statement's next one).
  Rebuild(20000);
  ServerOptions options;
  options.num_workers = 1;
  StartServer(options);
  auto client = Connect();
  Client::PreparedInfo info = client->Prepare(
      "MATCH (a)-[r1:E]->(b)-[r2:E]->(c), (a)-[r3:E]->(c) RETURN COUNT(*)");
  ASSERT_TRUE(info.ok()) << info.error;
  std::vector<uint8_t> burst = ExecuteFrame(info.stmt_id, 0, nullptr);
  const std::vector<uint8_t> cancel = SmallFrame(wire::FrameType::kCancel, nullptr);
  burst.insert(burst.end(), cancel.begin(), cancel.end());
  ASSERT_TRUE(client->SendRaw(burst.data(), burst.size()));
  std::vector<uint8_t> frame;
  std::string error;
  do {
    ASSERT_TRUE(client->ReadFrameRaw(&frame, &error)) << error;
  } while (static_cast<wire::FrameType>(frame[4]) == wire::FrameType::kRows);
  ASSERT_EQ(static_cast<wire::FrameType>(frame[4]), wire::FrameType::kError)
      << "the execute ran to completion despite its CANCEL";
  EXPECT_EQ(static_cast<wire::WireStatus>(frame[wire::kFrameHeaderBytes]),
            wire::WireStatus::kCancelled);
  // The next execute of the statement is unaffected.
  Client::Result next = client->Execute(info.stmt_id, {}, /*deadline_millis=*/60000);
  EXPECT_TRUE(next.ok()) << next.error;
}

TEST_F(ServerTest, PipelinedFramesAnswerInOrder) {
  StartServer();
  auto client = Connect();
  Client::PreparedInfo rows = client->Prepare(kWholeGraphRows);
  Client::PreparedInfo count = client->Prepare(kPointCount);
  ASSERT_TRUE(rows.ok()) << rows.error;
  ASSERT_TRUE(count.ok()) << count.error;
  const uint64_t total_rows = OracleRows(kWholeGraphRows).size();
  ASSERT_GT(total_rows, 200u);

  // EXECUTE (first page), EXECUTE, STATS, FETCH (rest), CLOSE in one send.
  const int64_t src = 7;
  const uint64_t page = 100;
  const uint64_t rest = 0;
  std::vector<uint8_t> burst = ExecuteFrame(rows.stmt_id, page, nullptr);
  for (const std::vector<uint8_t>& frame :
       {ExecuteFrame(count.stmt_id, 0, &src), SmallFrame(wire::FrameType::kStats, nullptr),
        SmallFrame(wire::FrameType::kFetch, &rows.stmt_id, &rest),
        SmallFrame(wire::FrameType::kClose, &rows.stmt_id)}) {
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(client->SendRaw(burst.data(), burst.size()));

  // Reads one response: ROWS frames up to its terminator, whose type and
  // payload are returned.
  auto read_response = [&](uint64_t* rows_seen, std::vector<uint8_t>* last) {
    *rows_seen = 0;
    std::string error;
    while (client->ReadFrameRaw(last, &error)) {
      const auto type = static_cast<wire::FrameType>((*last)[4]);
      if (type != wire::FrameType::kRows) return type;
      wire::DecodedRows decoded;
      EXPECT_TRUE(wire::DecodeRowsPayload(last->data() + wire::kFrameHeaderBytes,
                                          last->size() - wire::kFrameHeaderBytes, &decoded,
                                          &error))
          << error;
      *rows_seen += decoded.rows.size();
    }
    ADD_FAILURE() << "connection ended early: " << error;
    return wire::FrameType::kError;
  };
  uint64_t first = 0;
  uint64_t counted = 0;
  uint64_t fetched = 0;
  uint64_t none = 0;
  std::vector<uint8_t> frame;
  ASSERT_EQ(read_response(&first, &frame), wire::FrameType::kDone);
  EXPECT_EQ(frame[6], 1) << "first page should leave more rows";  // DONE.more
  EXPECT_GE(first, page);
  EXPECT_LT(first, total_rows);
  ASSERT_EQ(read_response(&counted, &frame), wire::FrameType::kDone);
  EXPECT_EQ(counted, 1u);  // COUNT(*) is one row
  ASSERT_EQ(read_response(&none, &frame), wire::FrameType::kStatsResult);
  uint64_t queries = 0;
  std::memcpy(&queries, frame.data() + wire::kFrameHeaderBytes + 24, sizeof(queries));
  EXPECT_EQ(queries, 2u);  // both executes ran before STATS was answered
  ASSERT_EQ(read_response(&fetched, &frame), wire::FrameType::kDone);
  EXPECT_EQ(frame[6], 0);
  EXPECT_EQ(first + fetched, total_rows);
  ASSERT_EQ(read_response(&none, &frame), wire::FrameType::kClosed);
  uint32_t closed = 0;
  std::memcpy(&closed, frame.data() + wire::kFrameHeaderBytes, sizeof(closed));
  EXPECT_EQ(closed, rows.stmt_id);
  // Still in step: a normal round trip follows.
  Client::Result again = client->Execute(count.stmt_id, {{"src", Value::Int64(src)}});
  EXPECT_TRUE(again.ok()) << again.error;
}

TEST_F(ServerTest, LargeResultReachesAReaderThatStartsLate) {
  // A result far beyond the socket buffers: the worker's send stops
  // short, the I/O loop thread drains the rest as the client reads, and
  // the connection then goes back to serving requests.
  Rebuild(2000);
  StartServer();
  auto client = Connect();
  Client::PreparedInfo info = client->Prepare(kWholeGraphRows);
  ASSERT_TRUE(info.ok()) << info.error;
  std::vector<uint8_t> execute = ExecuteFrame(info.stmt_id, 0, nullptr);
  ASSERT_TRUE(client->SendRaw(execute.data(), execute.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  uint64_t rows = 0;
  std::vector<uint8_t> frame;
  std::string error;
  while (true) {
    ASSERT_TRUE(client->ReadFrameRaw(&frame, &error)) << error;
    const auto type = static_cast<wire::FrameType>(frame[4]);
    if (type != wire::FrameType::kRows) {
      ASSERT_EQ(type, wire::FrameType::kDone);
      break;
    }
    uint32_t batch_rows = 0;
    std::memcpy(&batch_rows, frame.data() + wire::kFrameHeaderBytes, sizeof(batch_rows));
    rows += batch_rows;
  }
  uint64_t count = 0;
  std::memcpy(&count, frame.data() + wire::kFrameHeaderBytes + 2, sizeof(count));
  EXPECT_EQ(rows, count);
  EXPECT_GT(rows * 3 * sizeof(int64_t), uint64_t{8} << 20);
  Client::Stats stats = client->GetStats();
  EXPECT_TRUE(stats.ok) << stats.error;
}

TEST_F(ServerTest, DisconnectMidExecuteThenConnectionChurn) {
  Rebuild(20000);
  StartServer();
  {
    // Sends the whole-graph triangle and hangs up while it runs.
    auto client = Connect();
    Client::PreparedInfo info = client->Prepare(
        "MATCH (a)-[r1:E]->(b)-[r2:E]->(c), (a)-[r3:E]->(c) RETURN COUNT(*)");
    ASSERT_TRUE(info.ok()) << info.error;
    std::vector<uint8_t> execute = ExecuteFrame(info.stmt_id, 0, nullptr);
    ASSERT_TRUE(client->SendRaw(execute.data(), execute.size()));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    client->Close();
  }
  for (int i = 0; i < 200; ++i) {
    auto client = Connect();
    ASSERT_TRUE(client->connected()) << "cycle " << i;
    client->Close();
  }
  // Still serviceable.
  auto client = Connect();
  Client::PreparedInfo info = client->Prepare(kPointCount);
  ASSERT_TRUE(info.ok()) << info.error;
  Client::Result result = client->Execute(info.stmt_id, {{"src", Value::Int64(7)}});
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(Canon(result.rows.rows), Canon(OracleRows(kPointCount, {{"src", Value::Int64(7)}})));
}

}  // namespace
}  // namespace aplus
