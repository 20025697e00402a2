#include "checks.h"

#include <cmath>

namespace lqobench {

using lqolab::optimizer::PhysicalPlan;
using lqolab::optimizer::PlanNode;
using lqolab::query::AliasMask;
using lqolab::query::Query;

std::string CheckPlanShape(const Query& q, const PhysicalPlan& plan) {
  if (plan.empty()) return q.id + ": empty plan";
  const int32_t n = static_cast<int32_t>(plan.nodes.size());
  std::vector<int32_t> scans(static_cast<size_t>(q.relation_count()), 0);
  for (int32_t i = 0; i < n; ++i) {
    const PlanNode& node = plan.node(i);
    const std::string where = q.id + " node " + std::to_string(i);
    if (node.type == PlanNode::Type::kScan) {
      if (node.alias < 0 || node.alias >= q.relation_count()) {
        return where + ": scan of unknown alias";
      }
      if (node.mask != lqolab::query::MaskOf(node.alias)) {
        return where + ": scan mask does not match its alias";
      }
      ++scans[static_cast<size_t>(node.alias)];
      continue;
    }
    // Plans are built in post order: children precede their parent.
    if (node.left < 0 || node.left >= i || node.right < 0 || node.right >= i) {
      return where + ": join child out of order";
    }
    const AliasMask left = plan.node(node.left).mask;
    const AliasMask right = plan.node(node.right).mask;
    if ((left & right) != 0) return where + ": join sides overlap";
    if (node.mask != (left | right)) {
      return where + ": join mask is not the union of its sides";
    }
    if (!q.HasEdgeBetween(left, right)) {
      return where + ": join sides share no edge (cross product)";
    }
  }
  for (int32_t a = 0; a < q.relation_count(); ++a) {
    if (scans[static_cast<size_t>(a)] != 1) {
      return q.id + ": alias " + q.relations[static_cast<size_t>(a)].alias +
             " scanned " + std::to_string(scans[static_cast<size_t>(a)]) +
             " times";
    }
  }
  if (plan.node(plan.root).mask != q.FullMask()) {
    return q.id + ": root does not cover the query";
  }
  return "";
}

std::string CheckCostAtMost(const std::string& what, double cost,
                            double bound) {
  if (std::isfinite(cost) && std::isfinite(bound) &&
      cost <= bound + 1e-9 * std::fabs(bound)) {
    return "";
  }
  return what + ": cost " + std::to_string(cost) + " exceeds " +
         std::to_string(bound);
}

std::string CheckRows(const std::string& what, int64_t rows,
                      int64_t expected) {
  if (rows == expected) return "";
  return what + ": " + std::to_string(rows) + " rows, expected " +
         std::to_string(expected);
}

std::string CheckServed(const lqolab::serve::ServedQuery& served,
                        int64_t expected_rows) {
  if (!served.status.ok()) {
    return served.query_id + ": served status " + served.status.ToString();
  }
  if (served.timed_out) return served.query_id + ": served query timed out";
  return CheckRows(served.query_id + " served", served.result_rows,
                   expected_rows);
}

}  // namespace lqobench
