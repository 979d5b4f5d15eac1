#ifndef APLUS_QUERY_PLAN_H_
#define APLUS_QUERY_PLAN_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "query/morsel.h"
#include "query/operators.h"

namespace aplus {

// Sentinel thread count: defer to Plan::Execute()'s APLUS_THREADS
// environment default (1 when unset; plans with a callback or a
// non-counting sink stay serial under the env knob). Any value >= 1
// pins the worker count explicitly.
inline constexpr int kUseEnvThreads = 0;

// A physical plan: a pipeline of push-based operators ending in a SinkOp.
// Plans are produced by the DP optimizer (src/optimizer) or built by hand
// via PlanBuilder for the benchmark harnesses.
//
// Plans are internally parallel (Execute(num_threads)) but not
// externally thread-safe: one Plan must not be executed from two threads
// at once. MatchStates and per-worker pipeline replicas persist across
// Execute calls, so repeated execution of the same plan (the serving
// pattern) is allocation-free in steady state.
class Plan {
 public:
  Plan(std::vector<std::unique_ptr<Operator>> ops, int num_query_vertices, int num_query_edges);

  // Runs the pipeline and returns the number of complete matches. The
  // worker count comes from the APLUS_THREADS environment variable
  // (default 1). Plans whose SinkOp carries a callback ignore the env
  // knob and stay serial — concurrent callback execution must be
  // requested explicitly through Execute(num_threads), which is the
  // caller's acknowledgement of the SinkOp thread-safety contract.
  uint64_t Execute();

  // Runs the pipeline with `num_threads` workers using morsel-driven
  // parallelism: the leading ScanOp's vertex domain is carved into
  // morsels handed out through an atomic cursor, and each worker drives
  // its own cloned pipeline replica (private operator scratch, private
  // MatchState, private SinkOp callback copy) over the morsels it
  // claims. Match counts accumulate per worker and merge once at the
  // end. See SinkOp for the callback thread-safety contract.
  uint64_t Execute(int num_threads);

  // One line per operator, root first (Figure 6 style).
  std::string Describe() const;

  double last_execute_seconds() const { return last_execute_seconds_; }

  // --- Prepared-query support (core/session.h) ---

  // Number of materialized pipelines: the serial pipeline plus every
  // worker replica created by a parallel Execute so far. Replicas
  // persist across Execute calls, so the count only grows.
  int num_pipelines() const { return 1 + static_cast<int>(workers_.size()); }
  // Terminal (sink) operator of pipeline `pipeline` in [0, num_pipelines).
  Operator* sink(int pipeline);
  // Appends the patchable $param slots of every pipeline. Pointers stay
  // valid until more replicas are created (collect again when
  // num_pipelines() changes).
  void CollectParamSlots(ParamSlots* slots);
  // Installs the cooperative stop token and memory budget on every
  // operator of every pipeline (current and future replicas); nullptrs
  // detach. LIMIT, deadlines, cancellation, and resource exhaustion all
  // stop execution through the token.
  void SetExecContext(ExecToken* token, MemoryBudget* budget);

  // Upper bound on the worker count of Execute(num_threads).
  static constexpr int kMaxThreads = 256;

  // --- Plan-clone support (core/plan_cache.cc) ---
  //
  // The primary pipeline's operators and the query dimensions, for
  // re-materializing an equivalent Plan (Operator::Clone per op) without
  // re-running the optimizer. Callers must not mutate the operators and
  // must not clone while this plan is executing.
  const std::vector<std::unique_ptr<Operator>>& primary_ops() const { return ops_; }
  int num_query_vertices() const { return num_query_vertices_; }
  int num_query_edges() const { return num_query_edges_; }

 private:
  // One parallel worker's pipeline replica; workers_[w] serves worker
  // w + 1 (worker 0 reuses the original ops_ / state_).
  struct WorkerPipeline {
    std::vector<std::unique_ptr<Operator>> ops;
    MatchState state;
  };

  uint64_t ExecuteSerial(ScanOp* scan);
  void EnsureWorkers(int num_replicas);
  // The first-extend split point of pipeline `w` (0 = the primary), or
  // nullptr when the plan's second operator is not a deep-morselizable
  // ExtendOp (see ExtendOp::CanDeepMorselize).
  ExtendOp* DeepExtend(int w);

  // Scan domains smaller than kDeepMorselFactor × num_threads leave
  // workers idle under scan morsels (a one-vertex $src-pinned scan
  // starves all but one); such plans split the first EXTEND's entry
  // domain instead.
  static constexpr uint64_t kDeepMorselFactor = 4;

  std::vector<std::unique_ptr<Operator>> ops_;
  int num_query_vertices_;
  int num_query_edges_;
  double last_execute_seconds_ = 0.0;
  MatchState state_;  // worker 0 / serial state, reused across Execute calls
  std::vector<WorkerPipeline> workers_;
  MorselCursor cursor_;
  EntryCursor entry_cursor_;
  ExecToken* token_ = nullptr;
  MemoryBudget* budget_ = nullptr;
};

// Convenience builder used by benches and tests to assemble pipelines.
class PlanBuilder {
 public:
  PlanBuilder(const Graph* graph, const QueryGraph* query) : graph_(graph), query_(query) {}

  PlanBuilder& Scan(int var, std::vector<QueryComparison> preds = {});
  PlanBuilder& Extend(ListDescriptor list, std::vector<QueryComparison> residual = {},
                      bool closing = false);
  PlanBuilder& ExtendIntersect(std::vector<ListDescriptor> lists, int target_var,
                               std::vector<QueryComparison> residual = {});
  PlanBuilder& MultiExtend(std::vector<ListDescriptor> lists,
                           std::vector<QueryComparison> residual = {});
  PlanBuilder& Filter(std::vector<QueryComparison> preds);

  // Appends a counting SinkOp and finalizes.
  std::unique_ptr<Plan> Build(std::function<void(const MatchState&)> callback = nullptr);
  // Finalizes with a caller-supplied terminal operator (e.g. the serving
  // path's ProjectSinkOp).
  std::unique_ptr<Plan> BuildWithSink(std::unique_ptr<Operator> sink);

 private:
  const Graph* graph_;
  const QueryGraph* query_;
  std::vector<std::unique_ptr<Operator>> ops_;
};

}  // namespace aplus

#endif  // APLUS_QUERY_PLAN_H_
