// Differential tests for morsel-driven parallel plan execution:
// Execute(k) for k in {2, 4, 8} must return exactly the serial match
// count for scan / extend / extend-intersect / multi-extend / filter
// plans over random power-law multi-edge graphs (the same generator
// setup as intersect_diff_test.cc), including on repeated executions of
// the same plan (worker pipelines and MatchStates are reused).

#include <gtest/gtest.h>

#include <atomic>

#include "datagen/label_assigner.h"
#include "datagen/power_law_generator.h"
#include "index/index_store.h"
#include "query/intersect_kernels.h"
#include "query/plan.h"
#include "util/rng.h"

namespace aplus {
namespace {

class ParallelDiffTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  ParallelDiffTest() {
    PowerLawParams params;
    params.num_vertices = 900;
    params.avg_degree = 6.0;
    params.preferential_fraction = 0.8;  // hubs attract parallel edges
    params.seed = GetParam();
    GeneratePowerLawGraph(params, &graph_);
    AssignRandomLabels(2, 2, GetParam() + 100, &graph_);
    grp_key_ = graph_.AddVertexProperty("grp", ValueType::kInt64);
    PropertyColumn* col = graph_.vertex_props().mutable_column(grp_key_);
    Rng rng(GetParam() + 7);
    for (vertex_id_t v = 0; v < graph_.num_vertices(); ++v) {
      col->SetInt64(v, static_cast<int64_t>(rng.NextBounded(5)));
    }
    el0_ = graph_.catalog().FindEdgeLabel("EL0");
    el1_ = graph_.catalog().FindEdgeLabel("EL1");
    store_ = std::make_unique<IndexStore>(&graph_);
    store_->BuildPrimary(IndexConfig::Default());
    IndexConfig grp_config = IndexConfig::Default();
    grp_config.sorts.clear();
    grp_config.sorts.push_back({SortSource::kNbrProp, grp_key_});
    OneHopViewDef all_grp;
    all_grp.name = "all_grp";
    vp_grp_ = store_->CreateVpIndex(all_grp, grp_config, Direction::kFwd);
  }

  ListDescriptor FwdList(int bound_var, label_t elabel, int target_v, int target_e) {
    ListDescriptor desc;
    desc.source = ListDescriptor::Source::kPrimary;
    desc.primary = store_->primary(Direction::kFwd);
    desc.bound_var = bound_var;
    desc.cats = {elabel};
    desc.target_vertex_var = target_v;
    desc.target_edge_var = target_e;
    desc.nbr_sorted = true;
    return desc;
  }

  // Serial count once, then every parallel width twice (the second
  // execution proves the reused worker pipelines stay correct).
  void ExpectParallelMatchesSerial(Plan* plan, const char* what) {
    uint64_t serial = plan->Execute(1);
    for (int k : {2, 4, 8}) {
      EXPECT_EQ(plan->Execute(k), serial) << what << " k=" << k;
      EXPECT_EQ(plan->Execute(k), serial) << what << " k=" << k << " (re-executed)";
    }
    // Serial after parallel: the morsel cursor must not leak into the
    // serial path.
    EXPECT_EQ(plan->Execute(1), serial) << what << " serial re-check";
    EXPECT_GT(serial, 0u) << what << ": differential never matched anything";
  }

  Graph graph_;
  label_t el0_ = kInvalidLabel;
  label_t el1_ = kInvalidLabel;
  prop_key_t grp_key_ = kInvalidPropKey;
  std::unique_ptr<IndexStore> store_;
  VpIndex* vp_grp_ = nullptr;
};

// Scan -> Extend -> Extend/Intersect (unbound triangle).
TEST_P(ParallelDiffTest, TrianglePlan) {
  QueryGraph query;
  int a = query.AddVertex("a");
  int b = query.AddVertex("b");
  int c = query.AddVertex("c");
  query.AddEdge(a, b, el0_, "e0");
  query.AddEdge(a, c, el0_, "e1");
  query.AddEdge(b, c, el1_, "e2");
  PlanBuilder builder(&graph_, &query);
  std::vector<ListDescriptor> lists = {FwdList(a, el0_, c, 1), FwdList(b, el1_, c, 2)};
  auto plan = builder.Scan(a).Extend(FwdList(a, el0_, b, 0)).ExtendIntersect(lists, c).Build();
  ExpectParallelMatchesSerial(plan.get(), "triangle");
}

// Scan with predicates -> Extend -> Filter.
TEST_P(ParallelDiffTest, ScanPredicateAndFilterPlan) {
  QueryGraph query;
  int a = query.AddVertex("a");
  int b = query.AddVertex("b");
  query.AddEdge(a, b, el0_, "e0");
  QueryComparison scan_pred;
  scan_pred.lhs = QueryPropRef{a, false, kInvalidPropKey, /*is_id=*/true};
  scan_pred.op = CmpOp::kLt;
  scan_pred.rhs_const = Value::Int64(static_cast<int64_t>(graph_.num_vertices() / 2));
  QueryComparison filter_pred;
  filter_pred.lhs = QueryPropRef{b, false, grp_key_, false};
  filter_pred.op = CmpOp::kLe;
  filter_pred.rhs_const = Value::Int64(2);
  query.AddPredicate(scan_pred);
  query.AddPredicate(filter_pred);
  PlanBuilder builder(&graph_, &query);
  auto plan =
      builder.Scan(a, {scan_pred}).Extend(FwdList(a, el0_, b, 0)).Filter({filter_pred}).Build();
  ExpectParallelMatchesSerial(plan.get(), "scan-pred+filter");
}

// Scan -> Extend -> closing Extend (2-cycle membership probe).
TEST_P(ParallelDiffTest, ClosingExtendPlan) {
  QueryGraph query;
  int a = query.AddVertex("a");
  int b = query.AddVertex("b");
  query.AddEdge(a, b, el0_, "e0");
  query.AddEdge(b, a, el1_, "e1");
  PlanBuilder builder(&graph_, &query);
  auto plan = builder.Scan(a)
                  .Extend(FwdList(a, el0_, b, 0))
                  .Extend(FwdList(b, el1_, a, 1), {}, /*closing=*/true)
                  .Build();
  ExpectParallelMatchesSerial(plan.get(), "closing-extend");
}

// Scan -> Multi-Extend over property-sorted offset lists.
TEST_P(ParallelDiffTest, MultiExtendPlan) {
  QueryGraph query;
  int a = query.AddVertex("a");
  int b = query.AddVertex("b");
  int d = query.AddVertex("d");
  query.AddEdge(a, b, el0_, "e0");
  query.AddEdge(a, d, el1_, "e1");
  ListDescriptor l1;
  l1.source = ListDescriptor::Source::kVp;
  l1.vp = vp_grp_;
  l1.bound_var = a;
  l1.cats = {el0_};
  l1.target_vertex_var = b;
  l1.target_edge_var = 0;
  ListDescriptor l2 = l1;
  l2.cats = {el1_};
  l2.target_vertex_var = d;
  l2.target_edge_var = 1;
  PlanBuilder builder(&graph_, &query);
  auto plan = builder.Scan(a).MultiExtend({l1, l2}).Build();
  ExpectParallelMatchesSerial(plan.get(), "multi-extend");
}

// A bound leading scan (single-vertex domain): only one worker gets a
// morsel, the rest must drain empty and still merge correctly.
TEST_P(ParallelDiffTest, BoundScanPlan) {
  QueryGraph query;
  int a = query.AddVertex("a", kInvalidLabel, /*bound=*/static_cast<vertex_id_t>(GetParam()));
  int b = query.AddVertex("b");
  int c = query.AddVertex("c");
  query.AddEdge(a, b, el0_, "e0");
  query.AddEdge(b, c, el1_, "e1");
  PlanBuilder builder(&graph_, &query);
  auto plan =
      builder.Scan(a).Extend(FwdList(a, el0_, b, 0)).Extend(FwdList(b, el1_, c, 1)).Build();
  uint64_t serial = plan->Execute(1);
  for (int k : {2, 4, 8}) {
    EXPECT_EQ(plan->Execute(k), serial) << "bound-scan k=" << k;
  }
}

// Per-worker SinkOp callback copies: a callback counting into a
// thread-safe (atomic) shared counter must observe every match exactly
// once regardless of the worker count.
TEST_P(ParallelDiffTest, CallbackInvokedOncePerMatch) {
  QueryGraph query;
  int a = query.AddVertex("a");
  int b = query.AddVertex("b");
  query.AddEdge(a, b, el0_, "e0");
  std::atomic<uint64_t> seen{0};
  PlanBuilder builder(&graph_, &query);
  auto plan = builder.Scan(a)
                  .Extend(FwdList(a, el0_, b, 0))
                  .Build([&seen](const MatchState&) {
                    seen.fetch_add(1, std::memory_order_relaxed);
                  });
  uint64_t serial = plan->Execute(1);
  EXPECT_EQ(seen.load(), serial);
  for (int k : {2, 4, 8}) {
    seen.store(0);
    EXPECT_EQ(plan->Execute(k), serial) << "callback k=" << k;
    EXPECT_EQ(seen.load(), serial) << "callback k=" << k;
  }
}

// A callback that itself executes a parallel sub-plan (the nested
// ParallelRun case): must not deadlock, and both levels must count
// exactly. Each invocation builds its own sub-plan — Plans are not
// externally thread-safe, the outer workers invoke the callback
// concurrently, and holding a shared lock across a nested Execute would
// invert lock order against the pool's job mutex.
TEST_P(ParallelDiffTest, NestedParallelExecuteInCallback) {
  QueryGraph outer_query;
  int a = outer_query.AddVertex("a");
  int b = outer_query.AddVertex("b");
  outer_query.AddEdge(a, b, el0_, "e0");

  QueryGraph inner_query;
  int x = inner_query.AddVertex("x");
  int y = inner_query.AddVertex("y");
  inner_query.AddEdge(x, y, el1_, "e0");
  auto build_inner = [&] {
    PlanBuilder builder(&graph_, &inner_query);
    return builder.Scan(x).Extend(FwdList(x, el1_, y, 0)).Build();
  };
  uint64_t inner_expected = build_inner()->Execute(1);

  std::atomic<uint64_t> nested_failures{0};
  std::atomic<uint64_t> outer_seen{0};
  PlanBuilder outer_builder(&graph_, &outer_query);
  auto outer_plan =
      outer_builder.Scan(a).Extend(FwdList(a, el0_, b, 0)).Build([&](const MatchState&) {
        if (outer_seen.fetch_add(1, std::memory_order_relaxed) % 512 != 0) return;
        if (build_inner()->Execute(2) != inner_expected) {
          nested_failures.fetch_add(1, std::memory_order_relaxed);
        }
      });

  uint64_t outer_expected = outer_plan->Execute(1);
  outer_seen.store(0);
  EXPECT_EQ(outer_plan->Execute(4), outer_expected);
  EXPECT_EQ(outer_seen.load(), outer_expected);
  EXPECT_EQ(nested_failures.load(), 0u);
  EXPECT_GT(outer_expected, 0u);
}

// --- Deep morselization (tiny scan domains split one stage down) ---
//
// A single-vertex scan domain triggers the deep path in Execute(k):
// every replica runs the full scan and the first EXTEND's entry domain
// is claimed block-wise through the shared entry cursor. The tests pit
// it against serial execution, under repeated runs, mode flips, every
// worker width, and every SIMD dispatch level.

// Deep split feeding a plain EXTEND chain: hub sources maximize the
// first extend's entry domain so several blocks are actually contended.
TEST_P(ParallelDiffTest, DeepMorselTwoHopMatchesSerial) {
  // Pick the highest-out-degree vertex: the deepest entry domain.
  const PrimaryIndex* primary = store_->primary(Direction::kFwd);
  vertex_id_t hub = 0;
  uint32_t best = 0;
  for (vertex_id_t v = 0; v < graph_.num_vertices(); ++v) {
    uint32_t len = primary->GetFullList(v).len;
    if (len > best) {
      best = len;
      hub = v;
    }
  }
  ASSERT_GT(best, 0u);
  QueryGraph query;
  int a = query.AddVertex("a", kInvalidLabel, hub);
  int b = query.AddVertex("b");
  int c = query.AddVertex("c");
  query.AddEdge(a, b, el0_, "e0");
  query.AddEdge(b, c, el1_, "e1");
  PlanBuilder builder(&graph_, &query);
  auto plan =
      builder.Scan(a).Extend(FwdList(a, el0_, b, 0)).Extend(FwdList(b, el1_, c, 1)).Build();
  ExpectParallelMatchesSerial(plan.get(), "deep two-hop");
}

// Deep split feeding EXTEND/INTERSECT: the pinned triangle.
TEST_P(ParallelDiffTest, DeepMorselTriangleMatchesSerial) {
  for (uint64_t salt = 0; salt < 8; ++salt) {
    vertex_id_t src = static_cast<vertex_id_t>((GetParam() * 131 + salt * 37) %
                                               graph_.num_vertices());
    QueryGraph query;
    int a = query.AddVertex("a", kInvalidLabel, src);
    int b = query.AddVertex("b");
    int c = query.AddVertex("c");
    query.AddEdge(a, b, el0_, "e0");
    query.AddEdge(a, c, el0_, "e1");
    query.AddEdge(b, c, el1_, "e2");
    PlanBuilder builder(&graph_, &query);
    std::vector<ListDescriptor> lists = {FwdList(a, el0_, c, 1), FwdList(b, el1_, c, 2)};
    auto plan =
        builder.Scan(a).Extend(FwdList(a, el0_, b, 0)).ExtendIntersect(lists, c).Build();
    uint64_t serial = plan->Execute(1);
    for (int k : {2, 4, 8}) {
      EXPECT_EQ(plan->Execute(k), serial) << "deep triangle src=" << src << " k=" << k;
    }
  }
}

// The mode must flip cleanly between executions of one plan: serial,
// deep-parallel, and back, repeatedly — replicas persist across calls
// with their previous cursor wiring.
TEST_P(ParallelDiffTest, DeepMorselModeFlipsAcrossExecutions) {
  QueryGraph query;
  int a = query.AddVertex("a", kInvalidLabel,
                          static_cast<vertex_id_t>(GetParam() % graph_.num_vertices()));
  int b = query.AddVertex("b");
  int c = query.AddVertex("c");
  query.AddEdge(a, b, el0_, "e0");
  query.AddEdge(b, c, el1_, "e1");
  PlanBuilder builder(&graph_, &query);
  auto plan =
      builder.Scan(a).Extend(FwdList(a, el0_, b, 0)).Extend(FwdList(b, el1_, c, 1)).Build();
  uint64_t serial = plan->Execute(1);
  for (int round = 0; round < 3; ++round) {
    for (int k : {8, 1, 2, 4, 1}) {
      EXPECT_EQ(plan->Execute(k), serial) << "round=" << round << " k=" << k;
    }
  }
}

// A closing EXTEND below the scan cannot deep-morselize (its probes are
// membership checks, not enumerations): the plan must fall back to scan
// morsels and stay exact even though only one worker gets the morsel.
TEST_P(ParallelDiffTest, ClosingExtendNeverDeepMorselizes) {
  QueryGraph query;
  int a = query.AddVertex("a", kInvalidLabel,
                          static_cast<vertex_id_t>(GetParam() % graph_.num_vertices()));
  int b = query.AddVertex("b");
  query.AddEdge(a, b, el0_, "e0");
  query.AddEdge(b, a, el1_, "e1");
  PlanBuilder builder(&graph_, &query);
  auto plan = builder.Scan(a)
                  .Extend(FwdList(a, el0_, b, 0))
                  .Extend(FwdList(b, el1_, a, 1), {}, /*closing=*/true)
                  .Build();
  uint64_t serial = plan->Execute(1);
  for (int k : {2, 4, 8}) {
    EXPECT_EQ(plan->Execute(k), serial) << "closing deep k=" << k;
  }
}

// Deep-parallel callbacks still fire exactly once per match.
TEST_P(ParallelDiffTest, DeepMorselCallbackInvokedOncePerMatch) {
  QueryGraph query;
  int a = query.AddVertex("a", kInvalidLabel,
                          static_cast<vertex_id_t>((GetParam() * 7) % graph_.num_vertices()));
  int b = query.AddVertex("b");
  int c = query.AddVertex("c");
  query.AddEdge(a, b, el0_, "e0");
  query.AddEdge(b, c, el1_, "e1");
  std::atomic<uint64_t> seen{0};
  PlanBuilder builder(&graph_, &query);
  auto plan = builder.Scan(a)
                  .Extend(FwdList(a, el0_, b, 0))
                  .Extend(FwdList(b, el1_, c, 1))
                  .Build([&seen](const MatchState&) {
                    seen.fetch_add(1, std::memory_order_relaxed);
                  });
  uint64_t serial = plan->Execute(1);
  EXPECT_EQ(seen.load(), serial);
  for (int k : {2, 4, 8}) {
    seen.store(0);
    EXPECT_EQ(plan->Execute(k), serial) << "deep callback k=" << k;
    EXPECT_EQ(seen.load(), serial) << "deep callback k=" << k;
  }
}

// The parallel differential repeated at every supported SIMD dispatch
// level: kernel selection and morsel scheduling must compose.
TEST_P(ParallelDiffTest, AllKernelLevelsMatchSerial) {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::HostMaxLevel() >= simd::Level::kSse) levels.push_back(simd::Level::kSse);
  if (simd::HostMaxLevel() >= simd::Level::kAvx2) levels.push_back(simd::Level::kAvx2);
  QueryGraph query;
  int a = query.AddVertex("a");
  int b = query.AddVertex("b");
  int c = query.AddVertex("c");
  query.AddEdge(a, b, el0_, "e0");
  query.AddEdge(a, c, el0_, "e1");
  query.AddEdge(b, c, el1_, "e2");
  PlanBuilder builder(&graph_, &query);
  std::vector<ListDescriptor> lists = {FwdList(a, el0_, c, 1), FwdList(b, el1_, c, 2)};
  auto plan =
      builder.Scan(a).Extend(FwdList(a, el0_, b, 0)).ExtendIntersect(lists, c).Build();
  simd::Level prev = simd::ActiveLevel();
  uint64_t expected = 0;
  for (size_t i = 0; i < levels.size(); ++i) {
    simd::SetLevel(levels[i]);
    uint64_t serial = plan->Execute(1);
    if (i == 0) {
      expected = serial;
    } else {
      EXPECT_EQ(serial, expected) << "level=" << ToString(levels[i]);
    }
    for (int k : {2, 4, 8}) {
      EXPECT_EQ(plan->Execute(k), expected)
          << "level=" << ToString(levels[i]) << " k=" << k;
    }
  }
  simd::SetLevel(prev);
  EXPECT_GT(expected, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDiffTest, ::testing::Values(11u, 29u, 47u));

}  // namespace
}  // namespace aplus
