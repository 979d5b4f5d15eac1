#ifndef APLUS_CORE_DATABASE_H_
#define APLUS_CORE_DATABASE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "core/admission.h"
#include "core/plan_cache.h"
#include "core/session.h"
#include "index/index_store.h"
#include "index/maintenance.h"
#include "optimizer/dp_optimizer.h"
#include "query/cypher_parser.h"
#include "query/query_graph.h"
#include "storage/graph.h"
#include "view/ddl_parser.h"

namespace aplus {

// Result of executing a DDL command (RECONFIGURE / CREATE ... VIEW).
struct DdlResult {
  bool ok = false;
  std::string message;
  double seconds = 0.0;  // index (re)build time — the IR/IC columns
};

// Capacity contract of one concurrent ingest phase: the graph and index
// storage are pre-sized so lock-free readers never race a reallocation.
struct ConcurrentIngestOptions {
  uint64_t max_vertices = 0;  // >= current count; hard cap during the phase
  uint64_t max_edges = 0;
  // Compact deltas on a dedicated merger thread (default); false merges
  // inline on the ingest thread once a page crosses its cost threshold.
  bool background_merge = true;
};

// The public facade of the engine: a property graph plus its A+ index
// subsystem, the DP optimizer, and maintenance.
//
// The serving flow prepares once and executes per request:
//
//   Database db(std::move(graph));
//   db.BuildPrimaryIndexes();
//   db.ExecuteDdl("RECONFIGURE PRIMARY INDEXES ...");
//
//   Session session(&db);  // one per serving thread; leases from db.plan_cache()
//   PreparedQuery* q = session.Prepare(
//       "MATCH (a)-[r1:W]->(b)-[r2:W]->(c) WHERE a.ID = $src "
//       "RETURN b, c, r2.amount LIMIT 100");
//   q->Bind("src", Value::Int64(42));
//   QueryOutcome out = q->Execute(&my_row_consumer);   // streams RowBatches
//
// One-shot paths (Execute / ExecuteCypher) parse + optimize per call and
// also report through QueryOutcome.
//
// Threading: Sessions (and server connections) on one Database may
// prepare and execute concurrently. Planning — Prepare, Execute(const
// QueryGraph&), Explain — is serialized by one internal lock around the
// cached optimizer. DDL, BuildPrimaryIndexes, sealing and the ingest
// transitions require quiescence, and Prepare is unsupported while a
// concurrent ingest thread writes.
class Segment;

class Database {
 public:
  explicit Database(Graph graph);
  ~Database();

  Graph& graph() { return graph_; }
  const Graph& graph() const { return graph_; }
  IndexStore& index_store() { return *store_; }
  const IndexStore& index_store() const { return *store_; }
  Maintainer& maintainer() { return *maintainer_; }

  // Builds / reconfigures the primary A+ indexes. Returns build seconds.
  double BuildPrimaryIndexes(const IndexConfig& config = IndexConfig::Default());

  // Programmatic secondary index creation. FW-BW views produce one index
  // per direction; `seconds` (optional) receives the total build time.
  VpIndex* CreateVpIndex(const std::string& name, const Predicate& pred,
                         const IndexConfig& config, Direction dir, double* seconds = nullptr);
  // `budget_bytes` > 0 partially materializes the 2-hop view under the
  // given memory budget (Section III-B2 future work).
  EpIndex* CreateEpIndex(const std::string& name, EpKind kind, const Predicate& pred,
                         const IndexConfig& config, double* seconds = nullptr,
                         size_t budget_bytes = 0);

  // Parses and executes one of the paper's index DDL commands. Rejected
  // with a typed error on a segment-backed database (sealed pages are
  // immutable).
  DdlResult ExecuteDdl(const std::string& command);

  // --- Sealed segments (storage/segment.h) ---
  //
  // Writes the graph plus both primary indexes to an immutable segment
  // file. Requires built indexes and no active ingest; pending index
  // updates are flushed first. Returns false with a description in
  // *error.
  bool SealToSegment(const std::string& path, std::string* error = nullptr);

  // Opens a sealed segment: maps the file read-only, copies the graph
  // section into memory, and attaches both primary indexes as views into
  // the mapping — no index rebuild. The database holds the mapping for
  // its lifetime. Segment-backed databases are read-only on the DDL /
  // ingest axis: ExecuteDdl returns a typed error and
  // BeginConcurrentIngest / CreateVpIndex / CreateEpIndex /
  // BuildPrimaryIndexes are rejected. Queries, sessions, morsel
  // parallelism and the server run unchanged. Returns null with a
  // description in *error on any validation failure.
  static std::unique_ptr<Database> OpenFromSegment(const std::string& path,
                                                   std::string* error = nullptr);

  bool segment_backed() const { return segment_ != nullptr; }

  // --- Concurrent serving under online updates ---
  //
  // Between Begin and End, exactly one ingest thread may stream updates
  // (Graph::AddEdge / property writes, then Maintainer::OnEdgeInserted /
  // OnEdgeDeleted — property writes must precede the maintainer call so
  // the edge is fully formed when it becomes probe-visible) while any
  // number of serving threads execute prepared queries. Readers see
  // per-list read-committed snapshots: each probe merges the page's
  // published run + delta atomically, so every row is backed by edges
  // that were live at some point during the phase; whole-query snapshot
  // isolation is NOT provided. DDL, secondary indexes and string
  // property writes are unsupported while the phase is active. Both
  // transitions require quiescence (no queries in flight).
  //
  // Capacity overrun is a typed error, not an abort: once max_vertices /
  // max_edges are exhausted, Graph::AddVertex / AddEdge return
  // kInvalidVertex / kInvalidEdge and the caller must NOT invoke the
  // maintainer for the failed insert. EndConcurrentIngest still flushes
  // cleanly afterwards — the indexes are exact over the edges that did
  // insert.
  void BeginConcurrentIngest(const ConcurrentIngestOptions& options);
  // Stops the merger, flushes every delta and drains the epoch queue;
  // the indexes are exact w.r.t. the graph afterwards.
  void EndConcurrentIngest();
  bool concurrent_ingest_active() const {
    return ingest_active_.load(std::memory_order_acquire);
  }

  // --- Serving API ---

  // Parses + optimizes `text` once into a reusable PreparedQuery (always
  // non-null; parse/plan failures are carried in its status and
  // re-reported by Execute). Prefer Session::Prepare, which leases from
  // plan_cache(): one prepare per normalized text, revalidated by
  // PlanStale.
  std::unique_ptr<PreparedQuery> Prepare(const std::string& text,
                                         const PrepareOptions& options = {});

  // Deep-clones a successfully prepared query without re-parsing or
  // re-optimizing: every physical operator (and sink stage) of `src`'s
  // primary pipeline is cloned into a fresh Plan wired to a fresh
  // PreparedQuery with its own ExecControls, empty scratch, and all
  // parameters unbound. `src` is read-only here and must not be
  // executing concurrently. This is the plan cache's checkout path
  // (core/plan_cache.h): parse + optimize once per distinct query text,
  // clone per Session or connection.
  std::unique_ptr<PreparedQuery> ClonePrepared(const PreparedQuery& src);

  // Optimizes and runs a programmatic pattern (counting); flushes
  // pending index updates first. Honors APLUS_QUERY_TIMEOUT_MS,
  // APLUS_MEM_CAP and APLUS_MEM_CAP_TOTAL like PreparedQuery::Execute.
  QueryOutcome Execute(const QueryGraph& query);

  // One-shot Cypher: Prepare + Execute. Rows stream to `consumer` when
  // the query projects and one is given.
  QueryOutcome ExecuteCypher(const std::string& text, RowConsumer* consumer = nullptr);

  // Figure 6-style plan rendering without executing.
  std::string Explain(const QueryGraph& query);
  std::string Explain(const std::string& text);

  size_t IndexMemoryBytes() const { return store_->TotalMemoryBytes(); }

  // Admission gate shared by every session's PreparedQuery::Execute.
  // Configured from APLUS_MAX_CONCURRENT (plus APLUS_ADMISSION_QUEUE /
  // APLUS_ADMISSION_TIMEOUT_MS) at construction, or programmatically via
  // admission().Configure(). Disabled by default.
  AdmissionController& admission() { return admission_; }

  // The database-wide plan cache every Session and aplusd connection
  // leases prepared queries from.
  PlanCache& plan_cache() { return plan_cache_; }

  // The one staleness rule for planning state captured at
  // (store_version, num_edges) — cached plans and the cached optimizer
  // alike: stale once DDL moved the store version, or the edge count
  // left [num_edges, 2 * num_edges]. Cost estimates are not a
  // correctness input, so ingest re-plans only once the graph doubled or
  // shrank; PreparedQuery::current() checks the store version alone.
  bool PlanStale(uint64_t store_version, uint64_t num_edges) const;

 private:
  // Under prepare_mu_: rebuilds the cached optimizer when PlanStale
  // rejects the state it was built for.
  DpOptimizer* CachedOptimizer();
  // Flushes pending index updates (outside concurrent ingest) and plans
  // `query` ending in `sink` (null: the counting sink) under prepare_mu_.
  // Returns null when no plan exists; otherwise *plan_text receives the
  // Figure 6-style rendering.
  std::unique_ptr<Plan> PlanQuery(const QueryGraph& query, std::unique_ptr<ProjectSinkOp> sink,
                                  std::string* plan_text);

  Graph graph_;
  // Mapping behind segment-backed primary pages; null for in-memory
  // databases. Declared before store_ so the store (whose pages view the
  // mapping) destructs first and nothing dangles during teardown.
  std::unique_ptr<Segment> segment_;
  std::unique_ptr<IndexStore> store_;
  std::unique_ptr<Maintainer> maintainer_;
  std::unique_ptr<DpOptimizer> optimizer_;
  AdmissionController admission_;
  std::atomic<bool> ingest_active_{false};
  std::mutex prepare_mu_;  // guards optimizer_ and its state below
  uint64_t optimizer_store_version_ = ~0ULL;
  uint64_t optimizer_num_edges_ = 0;
  // Declared last: cached plans point into the store, so they go first.
  PlanCache plan_cache_{this};
};

}  // namespace aplus

#endif  // APLUS_CORE_DATABASE_H_
