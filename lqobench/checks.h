#ifndef LQOBENCH_CHECKS_H_
#define LQOBENCH_CHECKS_H_

// Output checks of the benchmark workloads. Each returns "" when the output
// is right and a one-line description of the fault otherwise; none aborts,
// so a run can count every fault it finds. checks_test.cc shows that each
// check fails on a broken input.

#include <cstdint>
#include <string>

#include "optimizer/physical_plan.h"
#include "query/query.h"
#include "serve/query_server.h"

namespace lqobench {

/// The plan scans every alias of `q` exactly once, every join joins two
/// disjoint sides connected by at least one edge of `q`, and the root
/// covers the whole query.
std::string CheckPlanShape(const lqolab::query::Query& q,
                           const lqolab::optimizer::PhysicalPlan& plan);

/// Two costs of the same plan (or a lower bound and a cost) agree:
/// `cost` is at most `bound` up to a relative tolerance of 1e-9.
std::string CheckCostAtMost(const std::string& what, double cost,
                            double bound);

/// A row count equals an independently computed one.
std::string CheckRows(const std::string& what, int64_t rows,
                      int64_t expected);

/// A served query completed with an OK status, without timing out, and
/// returned `expected_rows`.
std::string CheckServed(const lqolab::serve::ServedQuery& served,
                        int64_t expected_rows);

}  // namespace lqobench

#endif  // LQOBENCH_CHECKS_H_
