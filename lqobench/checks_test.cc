// Shows that each output check of the benchmark catches a broken output.

#include "checks.h"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using lqolab::optimizer::JoinAlgo;
using lqolab::optimizer::PhysicalPlan;
using lqolab::optimizer::PlanNode;
using lqolab::optimizer::ScanType;
using lqolab::query::JoinEdge;
using lqolab::query::Query;

// A chain a - b - c.
Query Chain() {
  Query q;
  q.id = "chain";
  q.relations = {{0, "a"}, {1, "b"}, {2, "c"}};
  q.edges = {JoinEdge{0, 0, 1, 0}, JoinEdge{1, 1, 2, 0}};
  return q;
}

TEST(CheckPlanShape, AcceptsAConnectedPlanOverEveryAlias) {
  PhysicalPlan plan;
  const int32_t ab = plan.AddJoin(JoinAlgo::kHash, plan.AddScan(0, ScanType::kSeq),
                                  plan.AddScan(1, ScanType::kSeq));
  plan.AddJoin(JoinAlgo::kHash, ab, plan.AddScan(2, ScanType::kSeq));
  EXPECT_EQ(lqobench::CheckPlanShape(Chain(), plan), "");
}

TEST(CheckPlanShape, CatchesAPlanMissingARelation) {
  PhysicalPlan plan;
  plan.AddJoin(JoinAlgo::kHash, plan.AddScan(0, ScanType::kSeq),
               plan.AddScan(1, ScanType::kSeq));
  EXPECT_NE(lqobench::CheckPlanShape(Chain(), plan), "");
}

TEST(CheckPlanShape, CatchesARelationScannedTwice) {
  PhysicalPlan plan;
  const int32_t ab = plan.AddJoin(JoinAlgo::kHash, plan.AddScan(0, ScanType::kSeq),
                                  plan.AddScan(1, ScanType::kSeq));
  // PhysicalPlan::AddJoin refuses overlapping sides, so the broken join
  // over (a b) and b again is appended by hand.
  PlanNode abb;
  abb.type = PlanNode::Type::kJoin;
  abb.left = ab;
  abb.right = plan.AddScan(1, ScanType::kSeq);
  abb.mask = plan.node(ab).mask;
  plan.nodes.push_back(abb);
  const int32_t left = static_cast<int32_t>(plan.nodes.size()) - 1;
  plan.AddJoin(JoinAlgo::kHash, left, plan.AddScan(2, ScanType::kSeq));
  EXPECT_NE(lqobench::CheckPlanShape(Chain(), plan), "");
}

TEST(CheckPlanShape, CatchesACrossProduct) {
  PhysicalPlan plan;
  const int32_t ac = plan.AddJoin(JoinAlgo::kHash, plan.AddScan(0, ScanType::kSeq),
                                  plan.AddScan(2, ScanType::kSeq));
  plan.AddJoin(JoinAlgo::kHash, ac, plan.AddScan(1, ScanType::kSeq));
  EXPECT_NE(lqobench::CheckPlanShape(Chain(), plan), "");
}

TEST(CheckCostAtMost, CatchesAHigherCost) {
  EXPECT_EQ(lqobench::CheckCostAtMost("dp", 100.0, 100.0), "");
  EXPECT_EQ(lqobench::CheckCostAtMost("dp", 99.0, 100.0), "");
  EXPECT_NE(lqobench::CheckCostAtMost("dp", 100.001, 100.0), "");
  EXPECT_NE(lqobench::CheckCostAtMost("dp", std::nan(""), 100.0), "");
}

TEST(CheckRows, CatchesARowCountOffByOne) {
  EXPECT_EQ(lqobench::CheckRows("q", 42, 42), "");
  EXPECT_NE(lqobench::CheckRows("q", 43, 42), "");
  EXPECT_NE(lqobench::CheckRows("q", 41, 42), "");
}

TEST(CheckServed, CatchesANonOkStatus) {
  lqolab::serve::ServedQuery served;
  served.query_id = "1a";
  served.result_rows = 7;
  EXPECT_EQ(lqobench::CheckServed(served, 7), "");
  served.status = lqolab::util::Status(lqolab::util::StatusCode::kUnavailable,
                                       "injected");
  EXPECT_NE(lqobench::CheckServed(served, 7), "");
}

TEST(CheckServed, CatchesATimeoutAndAWrongRowCount) {
  lqolab::serve::ServedQuery served;
  served.query_id = "1a";
  served.result_rows = 8;
  EXPECT_NE(lqobench::CheckServed(served, 7), "");
  served.result_rows = 7;
  served.timed_out = true;
  EXPECT_NE(lqobench::CheckServed(served, 7), "");
}

}  // namespace
