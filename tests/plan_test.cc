#include <gtest/gtest.h>

#include <memory>

#include "datagen/example_graph.h"
#include "datagen/power_law_generator.h"
#include "index/index_store.h"
#include "query/plan.h"

namespace aplus {
namespace {

class PlanTest : public ::testing::Test {
 protected:
  PlanTest() : ex_(BuildExampleGraph()), store_(&ex_.graph) {
    store_.BuildPrimary(IndexConfig::Default());
  }

  ExampleGraph ex_;
  IndexStore store_;
};

TEST_F(PlanTest, SinkCallbackSeesBindings) {
  QueryGraph query;
  int a = query.AddVertex("a", kInvalidLabel, ex_.accounts[0]);
  int b = query.AddVertex("b");
  query.AddEdge(a, b, ex_.wire_label);
  ListDescriptor list;
  list.source = ListDescriptor::Source::kPrimary;
  list.primary = store_.primary(Direction::kFwd);
  list.bound_var = a;
  list.cats = {ex_.wire_label};
  list.target_vertex_var = b;
  list.target_edge_var = 0;
  PlanBuilder builder(&ex_.graph, &query);
  std::vector<vertex_id_t> seen;
  auto plan = builder.Scan(a).Extend(list).Build(
      [&](const MatchState& state) { seen.push_back(state.v[1]); });
  EXPECT_EQ(plan->Execute(), 3u);
  // v1's Wire targets: v2 (t17), v3 (t4), v4 (t20), neighbour-ID sorted.
  EXPECT_EQ(seen, (std::vector<vertex_id_t>{ex_.accounts[1], ex_.accounts[2], ex_.accounts[3]}));
}

TEST_F(PlanTest, DescribeListsOperators) {
  QueryGraph query;
  int a = query.AddVertex("a", ex_.account_label);
  int b = query.AddVertex("b");
  query.AddEdge(a, b);
  ListDescriptor list;
  list.source = ListDescriptor::Source::kPrimary;
  list.primary = store_.primary(Direction::kFwd);
  list.bound_var = a;
  list.target_vertex_var = b;
  list.target_edge_var = 0;
  PlanBuilder builder(&ex_.graph, &query);
  auto plan = builder.Scan(a).Extend(list).Build();
  std::string text = plan->Describe();
  EXPECT_NE(text.find("Scan"), std::string::npos);
  EXPECT_NE(text.find("Extend"), std::string::npos);
  EXPECT_NE(text.find("Sink"), std::string::npos);
}

TEST_F(PlanTest, ExecuteIsRepeatable) {
  QueryGraph query;
  int a = query.AddVertex("a", ex_.account_label);
  int b = query.AddVertex("b", ex_.account_label);
  query.AddEdge(a, b, ex_.dd_label);
  ListDescriptor list;
  list.source = ListDescriptor::Source::kPrimary;
  list.primary = store_.primary(Direction::kFwd);
  list.bound_var = a;
  list.cats = {ex_.dd_label};
  list.target_vertex_var = b;
  list.target_edge_var = 0;
  PlanBuilder builder(&ex_.graph, &query);
  auto plan = builder.Scan(a).Extend(list).Build();
  uint64_t first = plan->Execute();
  uint64_t second = plan->Execute();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, 11u);  // 11 DD transfers
  EXPECT_GE(plan->last_execute_seconds(), 0.0);
}

class BoundedRangeTest : public ::testing::Test {
 protected:
  BoundedRangeTest() {
    PowerLawParams params;
    params.num_vertices = 200;
    params.avg_degree = 20.0;
    GeneratePowerLawGraph(params, &graph_);
    score_ = graph_.AddEdgeProperty("score", ValueType::kInt64);
    PropertyColumn* col = graph_.edge_props().mutable_column(score_);
    for (edge_id_t e = 0; e < graph_.num_edges(); ++e) {
      col->SetInt64(e, static_cast<int64_t>(e % 100));
    }
    primary_ = std::make_unique<PrimaryIndex>(&graph_, Direction::kFwd);
    IndexConfig config = IndexConfig::Default();
    config.sorts.clear();
    config.sorts.push_back({SortSource::kEdgeProp, score_});
    primary_->Build(config);
  }

  ListDescriptor Desc(vertex_id_t v) {
    ListDescriptor desc;
    desc.source = ListDescriptor::Source::kPrimary;
    desc.primary = primary_.get();
    desc.bound_var = 0;
    desc.cats = {0};  // single edge label
    desc.target_vertex_var = 1;
    desc.target_edge_var = 0;
    bound_state_.Reset(2, 1);
    bound_state_.v[0] = v;
    return desc;
  }

  Graph graph_;
  prop_key_t score_;
  std::unique_ptr<PrimaryIndex> primary_;
  MatchState bound_state_;
};

TEST_F(BoundedRangeTest, UpperAndLowerBoundsMatchLinearScan) {
  const PropertyColumn* col = graph_.edge_props().column(score_);
  for (vertex_id_t v = 0; v < 50; ++v) {
    ListDescriptor desc = Desc(v);
    AdjListSlice slice = desc.Fetch(bound_state_);
    for (int64_t bound : {0, 17, 50, 99, 150}) {
      for (bool strict : {true, false}) {
        // Upper bound.
        desc.has_upper_bound = true;
        desc.upper_bound = bound;
        desc.upper_strict = strict;
        desc.has_lower_bound = false;
        auto [ub, ue] = desc.BoundedRange(slice);
        uint64_t expected = 0;
        for (uint32_t i = 0; i < slice.size(); ++i) {
          int64_t key = col->GetInt64(slice.EdgeAt(i));
          if (strict ? key < bound : key <= bound) ++expected;
        }
        EXPECT_EQ(ub, 0u);
        EXPECT_EQ(ue - ub, expected) << "v=" << v << " bound=" << bound;
        // Lower bound.
        desc.has_upper_bound = false;
        desc.has_lower_bound = true;
        desc.lower_bound = bound;
        desc.lower_strict = strict;
        auto [lb, le] = desc.BoundedRange(slice);
        expected = 0;
        for (uint32_t i = 0; i < slice.size(); ++i) {
          int64_t key = col->GetInt64(slice.EdgeAt(i));
          if (strict ? key > bound : key >= bound) ++expected;
        }
        EXPECT_EQ(le, slice.size());
        EXPECT_EQ(le - lb, expected) << "v=" << v << " bound=" << bound;
      }
    }
    // Window [lo, hi).
    desc.has_lower_bound = true;
    desc.lower_bound = 20;
    desc.lower_strict = false;
    desc.has_upper_bound = true;
    desc.upper_bound = 60;
    desc.upper_strict = true;
    auto [wb, we] = desc.BoundedRange(slice);
    uint64_t expected = 0;
    for (uint32_t i = 0; i < slice.size(); ++i) {
      int64_t key = col->GetInt64(slice.EdgeAt(i));
      if (key >= 20 && key < 60) ++expected;
    }
    EXPECT_EQ(we - wb, expected) << "v=" << v;
  }
}

TEST_F(BoundedRangeTest, NoBoundsReturnsWholeList) {
  ListDescriptor desc = Desc(3);
  AdjListSlice slice = desc.Fetch(bound_state_);
  auto [begin, end] = desc.BoundedRange(slice);
  EXPECT_EQ(begin, 0u);
  EXPECT_EQ(end, slice.size());
}

}  // namespace
}  // namespace aplus
