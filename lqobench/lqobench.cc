// lqobench: the repository's wall-clock benchmark. One process runs one
// workload for a given seed and prints its metrics as the last line of
// standard output:
//
//   lqobench --workload plan|execute|serve|train --seed N --seconds S
//            --trace 0|1
//
// --trace 0 times the workload end to end; --trace 1 replays it with
// timers around the calls into each layer and the obs:: counters on, and
// prints the per-layer metrics instead. README.md maps every layer metric
// to the end-to-end metric it should move.

#include <pthread.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <numeric>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "benchkit/splits.h"
#include "catalog/imdb_schema.h"
#include "checks.h"
#include "datagen/imdb_generator.h"
#include "engine/database.h"
#include "exec/oracle.h"
#include "fuzz/differential.h"
#include "lqo/neo.h"
#include "obs/metrics.h"
#include "optimizer/planner.h"
#include "query/job_workload.h"
#include "query/predicate_binding.h"
#include "query/sql_workload.h"
#include "serve/plan_cache.h"
#include "serve/query_server.h"
#include "util/rng.h"
#include "util/statistics.h"

#ifndef LQOBENCH_WORKLOADS_DIR
#define LQOBENCH_WORKLOADS_DIR "workloads"
#endif
#ifndef LQOBENCH_BUILD_TYPE
#define LQOBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace lqolab;
using namespace lqobench;
using Clock = std::chrono::steady_clock;
using engine::Database;

// Taken during static initialization, i.e. at process start: setup_s
// counts everything the process does before its timed phase.
const Clock::time_point g_process_start = Clock::now();

// The database is the repository's standard IMDB-lite (seed 42, medium
// scale) in every run; --seed varies only the workload's inputs, so runs
// with different seeds measure the same data.
constexpr uint64_t kDataSeed = 42;
// Replay seed of every measured execution (Database::BeginQueryReplay).
constexpr uint64_t kReplaySeed = 7;
// Every query of a run is timed at least this often (see Timed).
constexpr int64_t kMinPasses = 6;
// Seed of train's JOB-lite split (benchkit::SampleSplit).
constexpr uint64_t kSplitSeed = 1;
// Work cap of fuzz::ReferenceCount (row pairs). At 25M it finishes on 7
// JOB-lite queries in about 30 CPU seconds; 40M covers 11 in 60.
constexpr int64_t kReferenceWorkCap = 25'000'000;

double Since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double Ms(Clock::time_point t) { return Since(t) * 1e3; }

double Median(std::vector<double> v) {
  return v.empty() ? 0.0 : util::Percentile(std::move(v), 50.0);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// --- Host speed -----------------------------------------------------------

// The host's speed relative to a reference host, measured while the
// workload runs. For minutes at a time the host runs 10 to 35% slower,
// every workload alike, so a run inside such a stretch is slow in all its
// samples and no statistic of its own samples can see past it. A probe
// thread spins a fixed integer loop on another core; its loops per second
// of its own CPU time, over the same stretch as a measurement, divided by
// kReferenceLoopsPerSecond, is the host's speed then. Every reported time
// is wall time multiplied by that speed: time on the reference host. A
// program change that slows a query raises it; the host slowing everything
// alike does not. The loop stays in registers, so the probe takes nothing
// from the workload but a core, and counting its CPU time rather than wall
// time keeps the speed right when the probe's core is taken from it.
class HostSpeed {
 public:
  // The probe's rate on the host the reference figures of README.md were
  // taken on: a 4-vCPU KVM guest on an Intel Xeon (family 6, model 143),
  // GCC 12.2, Release build, in its faster stretches.
  static constexpr double kReferenceLoopsPerSecond = 1.2e5;

  struct Mark {
    uint64_t loops = 0;
    double cpu_s = 0.0;
  };

  HostSpeed() : thread_([this] { Spin(); }) {
    if (pthread_getcpuclockid(thread_.native_handle(), &cpu_clock_) != 0) {
      std::fprintf(stderr, "lqobench: no CPU clock for the probe thread\n");
      std::exit(1);
    }
  }
  ~HostSpeed() { Stop(); }
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  Mark Now() const {
    timespec ts{};
    clock_gettime(cpu_clock_, &ts);
    return {loops_.load(std::memory_order_relaxed),
            static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9};
  }

  // The host's speed between two marks, 1 on the reference host.
  static double Speed(const Mark& from, const Mark& to) {
    const double cpu_s = to.cpu_s - from.cpu_s;
    if (cpu_s <= 0.0) return 1.0;  // the probe did not run: no evidence
    return static_cast<double>(to.loops - from.loops) / cpu_s /
           kReferenceLoopsPerSecond;
  }

  // Ends the probe before the untimed, multi-threaded output checks. No
  // mark may be taken after it.
  void Stop() {
    if (!thread_.joinable()) return;
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }

 private:
  // One loop is 4096 dependent multiply-xorshift steps, a few
  // microseconds.
  void Spin() {
    uint64_t h = 1;
    uint64_t loops = 0;
    while (!stop_.load(std::memory_order_relaxed)) {
      for (uint64_t i = 0; i < 4096; ++i) {
        h ^= h >> 13;
        h *= 0x9E3779B97F4A7C15ULL;
        h += i;
      }
      loops_.store(++loops, std::memory_order_relaxed);
    }
    sink_ = h;
  }

  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> loops_{0};
  uint64_t sink_ = 0;  // keeps the loop's result live
  std::thread thread_;
  clockid_t cpu_clock_{};
};

// Time since process start in reference-host time. The probe starts at the
// top of main(), microseconds after the process.
double SetupSeconds(const HostSpeed& host) {
  return Since(g_process_start) * HostSpeed::Speed({}, host.Now());
}

// --- Command line ---------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int32_t seconds = 0;
  bool trace = false;
};

constexpr const char* kUsage =
    "usage: lqobench --workload plan|execute|serve|train --seed N "
    "--seconds S --trace 0|1\n";

[[noreturn]] void UsageError(const std::string& message) {
  std::fprintf(stderr, "lqobench: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

bool ParseUnsigned(const std::string& text, uint64_t* out) {
  if (text.empty() || text.size() > 19) return false;
  uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

// Every flag is required, given once, as "--flag value".
Args ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace") {
      UsageError("unknown argument '" + flag + "'");
    }
    if (i + 1 >= argc) UsageError("flag " + flag + " is missing its value");
    if (!values.emplace(flag, argv[++i]).second) {
      UsageError("flag " + flag + " given twice");
    }
  }
  for (const char* flag : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (values.count(flag) == 0) UsageError(std::string("missing ") + flag);
  }
  Args args;
  args.workload = values["--workload"];
  if (args.workload != "plan" && args.workload != "execute" &&
      args.workload != "serve" && args.workload != "train") {
    UsageError("unknown workload '" + args.workload + "'");
  }
  if (!ParseUnsigned(values["--seed"], &args.seed)) {
    UsageError("--seed needs a non-negative integer");
  }
  uint64_t seconds = 0;
  if (!ParseUnsigned(values["--seconds"], &seconds) || seconds < 1 ||
      seconds > 600) {
    UsageError("--seconds needs an integer from 1 to 600");
  }
  args.seconds = static_cast<int32_t>(seconds);
  const std::string& trace = values["--trace"];
  if (trace != "0" && trace != "1") UsageError("--trace needs 0 or 1");
  args.trace = trace == "1";
  return args;
}

// --- Result ---------------------------------------------------------------

// The run's outcome: operation counts, output-check faults and metrics, in
// the order they were set.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_.emplace_back(name, std::make_pair(value, unit));
  }
  // Records a failed output check; "" means the check passed.
  void Check(const std::string& fault) {
    if (fault.empty()) return;
    if (faults_ < 20) std::fprintf(stderr, "check failed: %s\n", fault.c_str());
    ++faults_;
  }
  int64_t attempted = 0;
  int64_t failed = 0;

  void Print() const {
    if (faults_ > 0) std::fprintf(stderr, "%lld checks failed\n",
                                  static_cast<long long>(faults_));
    std::string out = "{\"correct\": ";
    out += faults_ == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      const double v = metrics_[i].second.first;
      std::snprintf(value, sizeof(value), "%.17g", std::isfinite(v) ? v : 0.0);
      if (i > 0) out += ", ";
      out += "\"" + metrics_[i].first + "\": {\"value\": " + value +
             ", \"unit\": \"" + metrics_[i].second.second + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  int64_t faults_ = 0;
};

// One line naming the machine and build the numbers came from.
void PrintStamp() {
  const char* describe = std::getenv("LQOBENCH_GIT_DESCRIBE");
  std::printf("stamp: nproc=%u compiler=\"%s\" build_type=%s git=%s\n",
              std::thread::hardware_concurrency(), __VERSION__,
              LQOBENCH_BUILD_TYPE,
              describe != nullptr && *describe != '\0' ? describe
                                                       : "unknown");
}

// --- Shared set-up --------------------------------------------------------

struct Engine {
  std::unique_ptr<Database> db;
  double generate_s = 0.0;  // datagen::GenerateImdb
  double build_s = 0.0;     // Database::FromTables: indexes + ANALYZE
};

Engine BuildEngine() {
  Engine e;
  const Clock::time_point t0 = Clock::now();
  catalog::Schema schema = catalog::BuildImdbSchema();
  std::vector<std::unique_ptr<storage::Table>> generated =
      datagen::GenerateImdb(schema, datagen::ScaleProfile::Medium(),
                            kDataSeed);
  e.generate_s = Since(t0);
  const Clock::time_point t1 = Clock::now();
  std::vector<std::shared_ptr<storage::Table>> tables;
  for (auto& table : generated) tables.push_back(std::move(table));
  Database::Options options;
  options.seed = kDataSeed;
  e.db = Database::FromTables(options, std::move(schema), std::move(tables));
  e.build_s = Since(t1);
  return e;
}

std::vector<query::Query> LoadJobComplex(const catalog::Schema& schema) {
  std::vector<query::Query> queries;
  const std::string path =
      std::string(LQOBENCH_WORKLOADS_DIR) + "/job_complex_lite.sql";
  const util::Status status =
      query::LoadSqlWorkloadFile(path, schema, &queries);
  if (!status.ok()) {
    std::fprintf(stderr, "lqobench: cannot load %s: %s\n", path.c_str(),
                 status.ToString().c_str());
    std::exit(1);
  }
  return queries;
}

// The order in which a pass visits the queries; a function of the seed.
std::vector<size_t> SeededOrder(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  util::Rng rng(util::MixSeed(seed, 0x6f72646572ULL));
  rng.Shuffle(&order);
  return order;
}

// Runs fn(replica, i) for i in [0, n) on up to nproc threads, each with
// its own worker replica of `db`. Used for output checks only, never for
// timed work.
void ParallelChecks(const Database& db, size_t n,
                    const std::function<void(Database*, size_t)>& fn) {
  const Clock::time_point start = Clock::now();
  const size_t threads = std::clamp<size_t>(
      std::thread::hardware_concurrency(), 1, std::max<size_t>(n, 1));
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      const std::unique_ptr<Database> replica = db.CloneContextForWorker();
      for (size_t i = next++; i < n; i = next++) fn(replica.get(), i);
    });
  }
  for (std::thread& thread : pool) thread.join();
  std::fprintf(stderr, "output checks: %zu items on %zu threads in %.3f s\n",
               n, threads, Since(start));
}

// Per-layer probe timing: median over `reps` repetitions of the mean
// microseconds per call of `body`, which returns its call count.
double ProbeUsPerCall(int reps, const std::function<int64_t()>& body) {
  std::vector<double> us;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t = Clock::now();
    const int64_t calls = body();
    us.push_back(Since(t) * 1e6 / static_cast<double>(std::max<int64_t>(calls, 1)));
  }
  return Median(us);
}

// --- Per-layer metrics ----------------------------------------------------

// Every per-layer metric, in BENCHMARK.json order. A workload sets the
// layers it reaches; the rest print as 0 (the layer did no work).
const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const auto* metrics =
      new std::vector<std::pair<std::string, std::string>>{
          {"optimizer.plan_ms_dp_p50", "ms"},
          {"optimizer.plan_ms_geqo_p50", "ms"},
          {"optimizer.plan_s", "s"},
          {"optimizer.wall_over_model_dp", "ratio"},
          {"optimizer.wall_over_model_geqo", "ratio"},
          {"optimizer.dp_subproblems", "count"},
          {"optimizer.geqo_plans_costed", "count"},
          {"optimizer.planner_calls", "count"},
          {"stats.estimate_join_us", "us"},
          {"query.bind_predicate_us", "us"},
          {"sql.prepare_us_p50", "us"},
          {"serve.admit_us_p50", "us"},
          {"serve.plan_cache_lookup_us", "us"},
          {"serve.plan_cache_hits", "count"},
          {"serve.plan_cache_misses", "count"},
          {"serve.plan_cache_lookups", "count"},
          {"serve.plan_cache_hit_ratio", "ratio"},
          {"serve.dispatch_ms_per_query", "ms"},
          {"exec.execute_ms_p50", "ms"},
          {"exec.execute_s", "s"},
          {"exec.oracle_s", "s"},
          {"exec.charge_s", "s"},
          {"exec.oracle_calls", "count"},
          {"exec.pages_accessed", "count"},
          {"exec.plans_executed", "count"},
          {"exec.materialized_mb", "MB"},
          {"storage.drop_caches_ms", "ms"},
          {"storage.buffer_shared_hits", "count"},
          {"storage.buffer_os_hits", "count"},
          {"storage.buffer_disk_reads", "count"},
          {"storage.buffer_evictions", "count"},
          {"storage.buffer_hit_ratio", "ratio"},
          {"lqo.infer_ms_p50", "ms"},
          {"lqo.plans_executed", "count"},
          {"lqo.nn_updates", "count"},
          {"lqo.nn_evals", "count"},
          {"datagen.generate_s", "s"},
          {"engine.build_s", "s"},
      };
  return *metrics;
}

class Layers {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  void Print(Report* report) const {
    for (const auto& [name, unit] : LayerMetrics()) {
      const auto it = values_.find(name);
      report->Set(name, it == values_.end() ? 0.0 : it->second, unit);
    }
  }
  // Exact per-pass counters of the executor and buffer pool.
  void SetExecCounters(const obs::MetricsRegistry& m, double passes) {
    using obs::Counter;
    Set("exec.oracle_calls", m.Get(Counter::kOracleCardinalityCalls) / passes);
    Set("exec.pages_accessed", m.Get(Counter::kExecPagesAccessed) / passes);
    Set("exec.plans_executed", m.Get(Counter::kExecPlansExecuted) / passes);
    const double shared = m.Get(Counter::kBufferSharedHits) / passes;
    const double os = m.Get(Counter::kBufferOsHits) / passes;
    const double disk = m.Get(Counter::kBufferDiskReads) / passes;
    Set("storage.buffer_shared_hits", shared);
    Set("storage.buffer_os_hits", os);
    Set("storage.buffer_disk_reads", disk);
    Set("storage.buffer_evictions",
        m.Get(Counter::kBufferEvictions) / passes);
    if (shared + os + disk > 0) {
      Set("storage.buffer_hit_ratio", shared / (shared + os + disk));
    }
  }
  void SetPlannerCounters(const obs::MetricsRegistry& m, double passes) {
    using obs::Counter;
    Set("optimizer.planner_calls",
        m.Get(Counter::kPlannerInvocations) / passes);
    Set("optimizer.dp_subproblems",
        m.Get(Counter::kPlannerDpSubproblems) / passes);
    Set("optimizer.geqo_plans_costed",
        m.Get(Counter::kPlannerGeqoPlansCosted) / passes);
  }

 private:
  std::map<std::string, double> values_;
};

// Planning wall time split by planner kind (DP vs GEQO), with the modeled
// planning time beside it.
struct PlanTimer {
  std::vector<double> dp_ms, geqo_ms;
  double dp_wall_ns = 0, dp_model_ns = 0, geqo_wall_ns = 0, geqo_model_ns = 0;

  Database::Planned Plan(Database* db, const query::Query& q) {
    const Clock::time_point t = Clock::now();
    Database::Planned planned = db->PlanQuery(q);
    const double ms = Ms(t);
    if (planned.used_geqo) {
      geqo_ms.push_back(ms);
      geqo_wall_ns += ms * 1e6;
      geqo_model_ns += static_cast<double>(planned.planning_ns);
    } else {
      dp_ms.push_back(ms);
      dp_wall_ns += ms * 1e6;
      dp_model_ns += static_cast<double>(planned.planning_ns);
    }
    return planned;
  }

  void Report(Layers* layers, double passes) const {
    layers->Set("optimizer.plan_ms_dp_p50", Median(dp_ms));
    layers->Set("optimizer.plan_ms_geqo_p50", Median(geqo_ms));
    layers->Set("optimizer.plan_s", (dp_wall_ns + geqo_wall_ns) / 1e9 / passes);
    if (dp_model_ns > 0) {
      layers->Set("optimizer.wall_over_model_dp", dp_wall_ns / dp_model_ns);
    }
    if (geqo_model_ns > 0) {
      layers->Set("optimizer.wall_over_model_geqo",
                  geqo_wall_ns / geqo_model_ns);
    }
  }
};

// Probes of the estimator, the predicate binder and the SQL frontend over
// a fixed set of inputs drawn from `queries`.
void ProbeFrontLayers(Database* db, const std::vector<query::Query>& queries,
                      Layers* layers) {
  const stats::CardinalityEstimator& estimator = db->planner().estimator();
  // Up to 64 connected subsets of two or more relations per query, in
  // increasing mask order.
  std::vector<std::vector<query::AliasMask>> subsets(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const query::Query& q = queries[i];
    for (query::AliasMask m = 3; m <= q.FullMask() && subsets[i].size() < 64;
         ++m) {
      if (std::popcount(m) >= 2 && q.IsConnected(m)) subsets[i].push_back(m);
    }
  }
  double sink = 0.0;
  layers->Set("stats.estimate_join_us", ProbeUsPerCall(5, [&] {
                int64_t calls = 0;
                for (size_t i = 0; i < queries.size(); ++i) {
                  for (const query::AliasMask m : subsets[i]) {
                    sink += estimator.EstimateJoinRows(queries[i], m);
                    ++calls;
                  }
                }
                return calls;
              }));
  layers->Set("query.bind_predicate_us", ProbeUsPerCall(5, [&] {
                int64_t calls = 0;
                for (const query::Query& q : queries) {
                  for (const query::Predicate& p : q.predicates) {
                    const storage::Table& table = db->context().table(
                        q.relations[static_cast<size_t>(p.alias)].table);
                    sink += static_cast<double>(
                        query::BindPredicate(p, table).values.size());
                    ++calls;
                  }
                }
                return calls;
              }));
  std::vector<double> prepare_us;
  for (const query::Query& q : queries) {
    const std::string sql = q.ToSql(db->schema());
    Database::PreparedSql prepared;
    const Clock::time_point t = Clock::now();
    const util::Status status = db->PrepareSql(sql, &prepared, q.id);
    prepare_us.push_back(Since(t) * 1e6);
    if (!status.ok()) sink += 1;
  }
  layers->Set("sql.prepare_us_p50", Median(prepare_us));
  if (sink < 0) std::fprintf(stderr, "%g\n", sink);  // keeps the probes live
}

// End-to-end metrics shared by every workload. The host's speed drifts in
// two ways. Bursts of a few seconds slow one workload's passes by up to
// 50%: the best of samples taken at different moments repeats far better
// than their median or tail, so every time metric is made of bests, each
// query's best sample over the run's passes and the best pass. Stretches
// of minutes slow everything alike by 10 to 35%, and a run inside one is
// slow throughout: HostSpeed scales each pass to the reference host's
// speed (README.md, "Reference figures and spread").
struct Timed {
  explicit Timed(size_t queries) : query_ms(queries) {}

  std::vector<std::vector<double>> query_ms;  // per query, one per pass
  std::vector<double> pass_s;                 // one sample per pass
  std::vector<double> speeds;                 // HostSpeed of each pass
  double wall_s = 0.0;                        // the timed phase
  double virtual_s = 0.0;                     // modeled seconds of one pass
  double peak_rss_mb = 0.0;                   // at the end of the timed phase

  // A wall-clock sample of the current pass.
  void Add(size_t query, double ms) { pass_.emplace_back(query, ms); }

  // Ends a pass that took `wall_s` while the host ran at `speed`: its
  // samples count in reference-host time.
  void EndPass(double wall_s, double speed) {
    pass_s.push_back(wall_s * speed);
    EndSamples(speed);
  }
  // The same without a pass_s sample (train's evaluation passes).
  void EndSamples(double speed) {
    for (const auto& [query, ms] : pass_) {
      query_ms[query].push_back(ms * speed);
    }
    pass_.clear();
    speeds.push_back(speed);
  }

  // Each query's best sample, in milliseconds.
  std::vector<double> BestMs() const {
    std::vector<double> best;
    for (const std::vector<double>& samples : query_ms) {
      if (!samples.empty()) {
        best.push_back(*std::min_element(samples.begin(), samples.end()));
      }
    }
    return best;
  }

  // One line on standard error in traced and untraced runs alike; the
  // difference between the two is the tracing overhead.
  void Log() const {
    size_t samples = 0;
    for (const std::vector<double>& q : query_ms) samples += q.size();
    const std::vector<double> best = BestMs();
    std::fprintf(stderr,
                 "timed phase: %zu samples of %zu queries in %.3f s, best "
                 "pass %.3f s, sum of bests %.3f s, host speed %.3f to "
                 "%.3f, modeled %.6f s\n",
                 samples, best.size(), wall_s,
                 *std::min_element(pass_s.begin(), pass_s.end()),
                 std::accumulate(best.begin(), best.end(), 0.0) / 1e3,
                 *std::min_element(speeds.begin(), speeds.end()),
                 *std::max_element(speeds.begin(), speeds.end()), virtual_s);
  }

  // `setup_s` is already in reference-host time. The modeled time
  // (virtual_s) is checked, not reported: it is the same in every run.
  void Print(Report* report, double setup_s) const {
    const std::vector<double> best = BestMs();
    const double best_s = std::accumulate(best.begin(), best.end(), 0.0) / 1e3;
    report->Set("setup_s", setup_s, "s");
    report->Set("queries_per_s", static_cast<double>(best.size()) / best_s,
                "1/s");
    report->Set("query_ms_p50", Median(best), "ms");
    report->Set("query_ms_p90", util::Percentile(best, 90.0), "ms");
    report->Set("pass_s", *std::min_element(pass_s.begin(), pass_s.end()),
                "s");
    report->Set("peak_rss_mb", peak_rss_mb, "MB");
  }

 private:
  std::vector<std::pair<size_t, double>> pass_;  // samples of the open pass
};

// True while the timed phase must run another whole pass.
bool MorePasses(const Args& args, Clock::time_point start, int64_t passes) {
  return Since(start) < args.seconds || passes < kMinPasses;
}

// --- plan -----------------------------------------------------------------
// Plans every JOB-lite and JOB-Complex-lite query with Database::PlanQuery
// (DP below geqo_threshold relations, GEQO above). Nothing executes.

void RunPlan(const Args& args, HostSpeed* host, Report* report) {
  Engine engine = BuildEngine();
  Database* db = engine.db.get();
  std::vector<query::Query> queries = query::BuildJobLiteWorkload(db->schema());
  for (query::Query& q : LoadJobComplex(db->schema())) {
    queries.push_back(std::move(q));
  }
  const std::vector<size_t> order = SeededOrder(queries.size(), args.seed);
  const double setup_s = SetupSeconds(*host);

  obs::MetricsRegistry metrics;
  std::optional<obs::MetricsScope> scope;
  if (args.trace) scope.emplace(&metrics);
  PlanTimer timer;
  std::vector<Database::Planned> first(queries.size());
  Timed timed(queries.size());
  int64_t passes = 0;
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point pass_start = Clock::now();
    const HostSpeed::Mark pass_mark = host->Now();
    double model_ns = 0.0;
    for (const size_t i : order) {
      const query::Query& q = queries[i];
      const Clock::time_point t = Clock::now();
      Database::Planned planned = timer.Plan(db, q);
      timed.Add(i, Ms(t));
      ++report->attempted;
      model_ns += static_cast<double>(planned.planning_ns);
      if (passes == 0) {
        first[i] = std::move(planned);
      } else if (!(planned.plan == first[i].plan) ||
                 planned.estimated_cost != first[i].estimated_cost) {
        report->Check(q.id + ": pass " + std::to_string(passes) +
                      " returned another plan than pass 0");
      }
    }
    timed.EndPass(Since(pass_start), HostSpeed::Speed(pass_mark, host->Now()));
    timed.virtual_s = model_ns / 1e9;
    ++passes;
  } while (MorePasses(args, start, passes));
  timed.wall_s = Since(start);
  host->Stop();
  timed.peak_rss_mb = PeakRssMb();
  timed.Log();
  scope.reset();

  // Output checks, off the clock.
  const engine::DbConfig& cfg = db->config();
  std::vector<std::string> faults(queries.size());
  ParallelChecks(*db, queries.size(), [&](Database* replica, size_t i) {
    const query::Query& q = queries[i];
    const Database::Planned& planned = first[i];
    std::string fault = CheckPlanShape(q, planned.plan);
    const double recomputed =
        replica->planner().EstimatePlanCost(q, planned.plan);
    if (fault.empty()) {
      fault = CheckCostAtMost(q.id + " recomputed cost",
                                        recomputed, planned.estimated_cost);
    }
    if (fault.empty()) {
      fault = CheckCostAtMost(q.id + " reported cost",
                                        planned.estimated_cost, recomputed);
    }
    if (fault.empty() && !planned.used_geqo && q.relation_count() >= 2) {
      optimizer::GeqoParams params;
      params.seed = cfg.geqo_seed;
      const double geqo = replica->planner().PlanGenetic(q, params)
                              .estimated_cost;
      fault = CheckCostAtMost(q.id + " DP vs GEQO",
                                        planned.estimated_cost, geqo);
    }
    faults[i] = std::move(fault);
  });
  for (const std::string& fault : faults) report->Check(fault);

  if (!args.trace) {
    timed.Print(report, setup_s);
    return;
  }
  Layers layers;
  timer.Report(&layers, static_cast<double>(passes));
  layers.SetPlannerCounters(metrics, static_cast<double>(passes));
  ProbeFrontLayers(db, queries, &layers);
  layers.Set("datagen.generate_s", engine.generate_s);
  layers.Set("engine.build_s", engine.build_s);
  layers.Print(report);
}


// A left-deep plan over a connected join order drawn from the query's
// fingerprint, with operators picked by the planner.
optimizer::PhysicalPlan HintedAlternative(const optimizer::Planner& planner,
                                          const query::Query& q) {
  util::Rng rng(exec::QueryFingerprint(q));
  const int32_t n = q.relation_count();
  std::vector<query::AliasId> order = {
      static_cast<query::AliasId>(rng.UniformInt(0, n - 1))};
  query::AliasMask mask = query::MaskOf(order[0]);
  while (static_cast<int32_t>(order.size()) < n) {
    std::vector<query::AliasId> candidates;
    for (query::AliasId a = 0; a < n; ++a) {
      if ((mask & query::MaskOf(a)) == 0 && (q.AdjacencyMask(a) & mask) != 0) {
        candidates.push_back(a);
      }
    }
    const query::AliasId pick = candidates[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(candidates.size()) - 1))];
    order.push_back(pick);
    mask |= query::MaskOf(pick);
  }
  optimizer::PhysicalPlan plan;
  planner.CostJoinOrder(q, order, &plan, nullptr);
  return plan;
}

// --- execute --------------------------------------------------------------
// Plans JOB-lite during set-up; each pass runs every native plan on a fresh
// worker replica after BeginQueryReplay (cold caches). The planner does no
// timed work.

void RunExecute(const Args& args, HostSpeed* host, Report* report) {
  Engine engine = BuildEngine();
  Database* db = engine.db.get();
  const std::vector<query::Query> queries =
      query::BuildJobLiteWorkload(db->schema());
  const std::vector<size_t> order = SeededOrder(queries.size(), args.seed);
  obs::MetricsRegistry metrics;
  std::optional<obs::MetricsScope> scope;
  if (args.trace) scope.emplace(&metrics);
  PlanTimer timer;
  std::vector<Database::Planned> plans;
  for (const query::Query& q : queries) plans.push_back(timer.Plan(db, q));
  const double setup_s = SetupSeconds(*host);
  Layers layers;
  layers.SetPlannerCounters(metrics, 1.0);
  metrics.Reset();  // the timed phase's counters start from zero

  Timed timed(queries.size());
  std::vector<int64_t> rows(queries.size(), -1);
  std::vector<double> execute_ms, drop_ms, oracle_s, charge_s;
  double materialized_mb = 0.0;
  int64_t passes = 0;
  double first_virtual_ns = 0.0;
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point pass_start = Clock::now();
    const HostSpeed::Mark pass_mark = host->Now();
    double virtual_ns = 0.0;
    for (const size_t i : order) {
      const query::Query& q = queries[i];
      const Clock::time_point t = Clock::now();
      const std::unique_ptr<Database> replica = db->CloneContextForWorker();
      const Clock::time_point t_drop = Clock::now();
      replica->BeginQueryReplay(kReplaySeed, q);
      const Clock::time_point t_exec = Clock::now();
      const engine::QueryRun run = replica->ExecutePlan(q, plans[i].plan);
      timed.Add(i, Ms(t));
      if (args.trace) {
        drop_ms.push_back(std::chrono::duration<double, std::milli>(
                              t_exec - t_drop).count());
        execute_ms.push_back(Ms(t_exec));
        materialized_mb = std::max(
            materialized_mb,
            static_cast<double>(replica->oracle().materialization_bytes()) /
                1048576.0);
      }
      ++report->attempted;
      if (!run.status.ok() || run.timed_out) {
        ++report->failed;
        continue;
      }
      virtual_ns += static_cast<double>(run.execution_ns);
      if (passes == 0) {
        rows[i] = run.result_rows;
      } else {
        report->Check(CheckRows(
            q.id + " pass " + std::to_string(passes), run.result_rows,
            rows[i]));
      }
    }
    timed.EndPass(Since(pass_start), HostSpeed::Speed(pass_mark, host->Now()));
    if (passes == 0) {
      first_virtual_ns = virtual_ns;
    } else if (virtual_ns != first_virtual_ns) {
      report->Check("execute pass " + std::to_string(passes) +
                    ": virtual time differs from pass 0");
    }
    timed.virtual_s = virtual_ns / 1e9;
    ++passes;
    if (args.trace) {
      // Splits one pass's engine time into the true-cardinality oracle on a
      // fresh replica and the charging re-run with that replica's oracle
      // memo warm. Kept out of the counters and the pass times.
      obs::MetricsScope off(nullptr);
      double oracle = 0.0, charge = 0.0;
      for (const size_t i : order) {
        const query::Query& q = queries[i];
        const std::unique_ptr<Database> replica = db->CloneContextForWorker();
        Clock::time_point t = Clock::now();
        for (const optimizer::PlanNode& node : plans[i].plan.nodes) {
          if (node.type == optimizer::PlanNode::Type::kJoin) {
            replica->oracle().TrueJoinRows(q, node.mask);
          }
        }
        oracle += Since(t);
        replica->BeginQueryReplay(kReplaySeed, q);
        t = Clock::now();
        replica->ExecutePlan(q, plans[i].plan);
        charge += Since(t);
      }
      oracle_s.push_back(oracle);
      charge_s.push_back(charge);
    }
  } while (MorePasses(args, start, passes));
  timed.wall_s = Since(start);
  host->Stop();
  timed.peak_rss_mb = PeakRssMb();
  timed.Log();
  scope.reset();

  // Output checks, off the clock: the same rows under a differently shaped
  // plan (GEQO for DP-planned queries, GEQO under another seed for
  // GEQO-planned ones) on another fresh replica, and the backtracking
  // reference count wherever it finishes under its work cap.
  const engine::DbConfig& cfg = db->config();
  std::vector<std::string> faults(queries.size());
  std::atomic<int32_t> hinted{0}, referenced{0};
  ParallelChecks(*db, queries.size(), [&](Database* replica, size_t i) {
    const query::Query& q = queries[i];
    if (rows[i] < 0) return;  // failed in the timed phase, counted there
    optimizer::GeqoParams params;
    params.seed = plans[i].used_geqo ? cfg.geqo_seed + 1 : cfg.geqo_seed;
    optimizer::PhysicalPlan alt =
        replica->planner().PlanGenetic(q, params).plan;
    if (alt == plans[i].plan) {
      // GEQO found the native plan: force a seeded connected join order
      // instead, the way a plan hint would.
      ++hinted;
      alt = HintedAlternative(replica->planner(), q);
    }
    const std::unique_ptr<Database> fresh = replica->CloneContextForWorker();
    fresh->BeginQueryReplay(kReplaySeed, q);
    const engine::QueryRun run = fresh->ExecutePlan(q, alt);
    std::string fault =
        run.status.ok() && !run.timed_out
            ? CheckRows(q.id + " alternative plan", run.result_rows,
                                  rows[i])
            : q.id + ": alternative plan failed: " + run.status.ToString();
    int64_t reference = 0;
    if (fault.empty() && fuzz::ReferenceCount(replica->context(), q,
                                              kReferenceWorkCap, &reference)) {
      ++referenced;
      fault = CheckRows(q.id + " reference count", rows[i],
                                  reference);
    }
    faults[i] = std::move(fault);
  });
  for (const std::string& fault : faults) report->Check(fault);
  std::fprintf(stderr,
               "execute checks: %zu queries, %d hinted alternatives, %d "
               "reference counts finished\n",
               queries.size(), hinted.load(), referenced.load());

  if (!args.trace) {
    timed.Print(report, setup_s);
    return;
  }
  timer.Report(&layers, 1.0);
  layers.SetExecCounters(metrics, static_cast<double>(passes));
  layers.Set("exec.execute_ms_p50", Median(execute_ms));
  layers.Set("exec.execute_s",
             std::accumulate(execute_ms.begin(), execute_ms.end(), 0.0) /
                 1e3 / static_cast<double>(passes));
  layers.Set("exec.oracle_s", Median(oracle_s));
  layers.Set("exec.charge_s", Median(charge_s));
  layers.Set("exec.materialized_mb", materialized_mb);
  layers.Set("storage.drop_caches_ms",
             std::accumulate(drop_ms.begin(), drop_ms.end(), 0.0) /
                 static_cast<double>(drop_ms.size()));
  ProbeFrontLayers(db, queries, &layers);
  layers.Set("datagen.generate_s", engine.generate_s);
  layers.Set("engine.build_s", engine.build_s);
  layers.Print(report);
}

// --- serve ----------------------------------------------------------------
// A closed loop of kServeInFlight requests through QueryServer::SubmitSql
// on the pglite route with one worker (more workers make the plan cache's
// contents depend on thread timing). Epoch 0 submits JOB-lite as written
// and fills the template-keyed plan cache (set-up); every later epoch
// widens each closed range literal, so the cache hits while every arrival
// is a new query for the oracle.

struct Statement {
  std::string sql;
  std::string id;
  size_t query = 0;  // index of its JOB-lite template
};

std::vector<Statement> EpochStatements(const Database& db,
                                       const std::vector<query::Query>& job,
                                       uint64_t seed, int32_t epoch) {
  // Epoch 0 keeps the literals and the workload order, so the generic plan
  // cached per template does not depend on the seed.
  const int64_t widen = epoch == 0 ? 0 : epoch + seed % 4;
  std::vector<size_t> order(job.size());
  std::iota(order.begin(), order.end(), size_t{0});
  if (epoch > 0) order = SeededOrder(job.size(), util::MixSeed(seed, epoch));
  std::vector<Statement> out;
  constexpr int64_t kOpen = 1'900'000'000;  // open-range sentinels
  for (const size_t i : order) {
    query::Query q = job[i];
    for (query::Predicate& p : q.predicates) {
      if (p.kind != query::Predicate::Kind::kRange ||
          p.int_values.size() != 2 || widen == 0) {
        continue;
      }
      if (p.int_values[1] < kOpen) {
        p.int_values[1] += widen;
      } else if (p.int_values[0] > -kOpen) {
        p.int_values[0] -= widen;
      }
    }
    out.push_back({q.ToSql(db.schema()), q.id, i});
  }
  return out;
}

struct ServedEpoch {
  std::vector<serve::ServedQuery> served;  // in statement order
  std::vector<double> latency_ms;          // submit to result
  std::vector<double> admit_us;            // the SubmitSql call
  double wall_s = 0.0;
};

// Requests the serve client keeps in flight: the worker finds the next
// statement queued whenever it finishes one, so it never waits for the
// client.
constexpr size_t kServeInFlight = 2;

ServedEpoch ServeEpoch(serve::QueryServer* server,
                       const std::vector<Statement>& statements) {
  ServedEpoch epoch;
  epoch.served.reserve(statements.size());
  struct Pending {
    std::future<serve::ServedQuery> result;
    Clock::time_point submitted;
  };
  std::deque<Pending> in_flight;
  size_t next = 0;
  const Clock::time_point start = Clock::now();
  Clock::time_point last_done = start;
  while (next < statements.size() || !in_flight.empty()) {
    while (next < statements.size() && in_flight.size() < kServeInFlight) {
      const Clock::time_point t = Clock::now();
      in_flight.push_back(
          {server->SubmitSql(statements[next].sql, statements[next].id), t});
      epoch.admit_us.push_back(Since(t) * 1e6);
      ++next;
    }
    // One worker serves in admission order, so the oldest finishes first.
    // The client polls instead of sleeping, so a completion is timed when
    // the worker sets it, not when a sleeping thread wakes up.
    Pending& oldest = in_flight.front();
    while (oldest.result.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
    }
    const Clock::time_point done = Clock::now();
    epoch.served.push_back(oldest.result.get());
    // The worker's time on the statement: from when it could take it up
    // (its submission or the previous completion) to its result.
    epoch.latency_ms.push_back(std::chrono::duration<double, std::milli>(
                                   done - std::max(oldest.submitted, last_done))
                                   .count());
    last_done = done;
    in_flight.pop_front();
  }
  epoch.wall_s = Since(start);
  return epoch;
}

void RunServe(const Args& args, HostSpeed* host, Report* report) {
  Engine engine = BuildEngine();
  Database* db = engine.db.get();
  const std::vector<query::Query> job =
      query::BuildJobLiteWorkload(db->schema());
  serve::ServerOptions options;
  options.workers = 1;
  options.route = serve::RouteMode::kPglite;
  serve::QueryServer server(db, options);
  const std::vector<Statement> warmup = EpochStatements(*db, job, args.seed, 0);
  const ServedEpoch warm = ServeEpoch(&server, warmup);
  for (const serve::ServedQuery& served : warm.served) {
    if (!served.status.ok()) {
      report->Check(served.query_id + ": warm-up status " +
                    served.status.ToString());
    }
  }
  const double setup_s = SetupSeconds(*host);

  const obs::MetricsRegistry before = server.SnapshotMetrics();
  Timed timed(job.size());
  std::vector<std::vector<Statement>> statements;
  std::vector<ServedEpoch> epochs;
  int64_t virtual_ns = 0;
  // A fixed number of epochs, one per requested second (an epoch takes
  // 0.8 to 1.2 s on a 4-core x86 host), not a time limit: the server's
  // memory grows with every new query it serves, so a time-limited run
  // would make peak_rss_mb a function of host speed.
  const int32_t epoch_count =
      std::max<int32_t>(args.seconds, static_cast<int32_t>(kMinPasses));
  for (int32_t e = 1; e <= epoch_count; ++e) {
    // Rendering the next epoch's SQL is the client's work, not the
    // server's: it stays off the clock.
    statements.push_back(EpochStatements(*db, job, args.seed, e));
    const HostSpeed::Mark epoch_mark = host->Now();
    epochs.push_back(ServeEpoch(&server, statements.back()));
    const double speed = HostSpeed::Speed(epoch_mark, host->Now());
    const ServedEpoch& epoch = epochs.back();
    timed.wall_s += epoch.wall_s;
    for (size_t i = 0; i < epoch.served.size(); ++i) {
      const serve::ServedQuery& served = epoch.served[i];
      ++report->attempted;
      if (!served.status.ok() || served.timed_out) ++report->failed;
      virtual_ns += served.latency_ns();
      timed.Add(statements.back()[i].query, epoch.latency_ms[i]);
    }
    timed.EndPass(epoch.wall_s, speed);
  }
  host->Stop();
  timed.virtual_s = static_cast<double>(virtual_ns) / 1e9;
  timed.peak_rss_mb = PeakRssMb();
  timed.Log();
  const obs::MetricsRegistry after = server.SnapshotMetrics();
  server.Shutdown();

  // Output checks, off the clock: every served row count equals
  // Database::Run of the same statement on a separate fresh replica, and
  // the plan cache saw one lookup per admitted query.
  const int64_t hits = after.Get(obs::Counter::kPlanCacheHits) -
                       before.Get(obs::Counter::kPlanCacheHits);
  const int64_t misses = after.Get(obs::Counter::kPlanCacheMisses) -
                         before.Get(obs::Counter::kPlanCacheMisses);
  report->Check(CheckRows("plan-cache hits + misses", hits + misses,
                                    report->attempted));
  std::vector<std::pair<size_t, size_t>> items;
  for (size_t e = 0; e < epochs.size(); ++e) {
    for (size_t i = 0; i < epochs[e].served.size(); ++i) items.push_back({e, i});
  }
  std::vector<std::string> faults(items.size());
  ParallelChecks(*db, items.size(), [&](Database* replica, size_t k) {
    const auto [e, i] = items[k];
    const Statement& statement = statements[e][i];
    Database::PreparedSql prepared;
    const util::Status status =
        replica->PrepareSql(statement.sql, &prepared, statement.id);
    if (!status.ok()) {
      faults[k] = statement.id + ": reference prepare " + status.ToString();
      return;
    }
    const std::unique_ptr<Database> fresh = replica->CloneContextForWorker();
    const engine::QueryRun run = fresh->Run(prepared.query);
    faults[k] = run.status.ok() && !run.timed_out
                    ? CheckServed(epochs[e].served[i], run.result_rows)
                    : statement.id + ": reference run failed: " +
                          run.status.ToString();
  });
  for (const std::string& fault : faults) report->Check(fault);

  if (!args.trace) {
    timed.Print(report, setup_s);
    return;
  }
  // Decomposed replay of the same statements on a separate replica with its
  // own plan cache: prepare -> lookup -> plan (misses) -> execute, each
  // timed. Epoch 0 holds the misses.
  Layers layers;
  obs::MetricsRegistry planner_metrics;
  PlanTimer timer;
  serve::PlanCache cache{serve::PlanCacheOptions{}};
  const std::unique_ptr<Database> replica = db->CloneContextForWorker();
  std::vector<double> prepare_us, lookup_us, execute_ms, drop_ms;
  double decomposed_s = 0.0;
  for (size_t e = 0; e <= statements.size(); ++e) {
    const std::vector<Statement>& batch =
        e == 0 ? warmup : statements[e - 1];
    const Clock::time_point epoch_start = Clock::now();
    for (const Statement& statement : batch) {
      Clock::time_point t = Clock::now();
      Database::PreparedSql prepared;
      replica->PrepareSql(statement.sql, &prepared, statement.id);
      prepare_us.push_back(Since(t) * 1e6);
      const uint64_t key = serve::PlanCacheKeyForTemplate(
          prepared.template_fingerprint, replica->config());
      t = Clock::now();
      std::shared_ptr<const serve::CachedPlan> plan = cache.Lookup(key);
      lookup_us.push_back(Since(t) * 1e6);
      if (plan == nullptr) {
        obs::MetricsScope scope(&planner_metrics);
        const Database::Planned planned = timer.Plan(replica.get(),
                                                     prepared.query);
        serve::CachedPlan cached;
        cached.plan = planned.plan;
        plan = std::make_shared<const serve::CachedPlan>(std::move(cached));
        cache.Insert(key, plan);
      }
      t = Clock::now();
      replica->BeginQueryReplay(kReplaySeed, prepared.query);
      drop_ms.push_back(Ms(t));
      t = Clock::now();
      replica->ExecutePlan(prepared.query, plan->plan);
      if (e > 0) execute_ms.push_back(Ms(t));
    }
    if (e > 0) decomposed_s += Since(epoch_start);
  }
  const double served_queries = static_cast<double>(report->attempted);
  timer.Report(&layers, 1.0);
  layers.SetPlannerCounters(planner_metrics, 1.0);
  obs::MetricsRegistry timed_metrics;
  for (int32_t c = 0; c < static_cast<int32_t>(obs::Counter::kCounterCount);
       ++c) {
    const auto counter = static_cast<obs::Counter>(c);
    timed_metrics.Add(counter, after.Get(counter) - before.Get(counter));
  }
  layers.SetExecCounters(timed_metrics, static_cast<double>(epochs.size()));
  std::vector<double> admit_us;
  for (const ServedEpoch& epoch : epochs) {
    admit_us.insert(admit_us.end(), epoch.admit_us.begin(),
                    epoch.admit_us.end());
  }
  layers.Set("serve.admit_us_p50", Median(admit_us));
  layers.Set("serve.plan_cache_lookup_us", Median(lookup_us));
  layers.Set("serve.plan_cache_hits", static_cast<double>(hits));
  layers.Set("serve.plan_cache_misses", static_cast<double>(misses));
  layers.Set("serve.plan_cache_lookups", static_cast<double>(hits + misses));
  if (hits + misses > 0) {
    layers.Set("serve.plan_cache_hit_ratio",
               static_cast<double>(hits) / static_cast<double>(hits + misses));
  }
  layers.Set("serve.dispatch_ms_per_query",
             (timed.wall_s - decomposed_s) * 1e3 / served_queries);
  layers.Set("exec.execute_ms_p50", Median(execute_ms));
  layers.Set("exec.execute_s",
             std::accumulate(execute_ms.begin(), execute_ms.end(), 0.0) /
                 1e3 / static_cast<double>(epochs.size()));
  layers.Set("storage.drop_caches_ms",
             std::accumulate(drop_ms.begin(), drop_ms.end(), 0.0) /
                 static_cast<double>(drop_ms.size()));
  ProbeFrontLayers(db, job, &layers);
  layers.Set("sql.prepare_us_p50", Median(prepare_us));
  layers.Set("datagen.generate_s", engine.generate_s);
  layers.Set("engine.build_s", engine.build_s);
  layers.Print(report);
}

// --- train ----------------------------------------------------------------
// Trains Neo (fig5's options, one training worker) on a fixed 80/20
// random JOB-lite split, then plans and executes the test split with the
// trained model, pass after pass, each query on a fresh replica.

void RunTrain(const Args& args, HostSpeed* host, Report* report) {
  Engine engine = BuildEngine();
  Database* db = engine.db.get();
  const std::vector<query::Query> job =
      query::BuildJobLiteWorkload(db->schema());
  // The split and Neo's own seed stay fixed: training time and plan
  // quality change several-fold from one split to another, so a seeded
  // split would measure a different workload on every seed. The seed
  // orders the test queries.
  const benchkit::Split split = benchkit::SampleSplit(
      job, benchkit::SplitKind::kRandom, 0.2, kSplitSeed);
  const std::vector<query::Query> train_set =
      benchkit::SelectQueries(job, split.train_indices);
  const std::vector<query::Query> test_set =
      benchkit::SelectQueries(job, split.test_indices);
  lqo::NeoOptimizer::Options options;
  options.iterations = 2;
  options.train_epochs = 12;
  options.parallelism = 1;
  lqo::NeoOptimizer neo(options);
  const std::vector<size_t> order = SeededOrder(test_set.size(), args.seed);
  const double setup_s = SetupSeconds(*host);

  obs::MetricsRegistry metrics;
  std::optional<obs::MetricsScope> scope;
  if (args.trace) scope.emplace(&metrics);
  Timed timed(test_set.size());
  const Clock::time_point train_start = Clock::now();
  const HostSpeed::Mark train_mark = host->Now();
  const lqo::TrainReport trained = neo.Train(train_set, db);
  // Training is the run's one pass_s sample; the evaluation passes below
  // add query samples only.
  timed.EndPass(Since(train_start), HostSpeed::Speed(train_mark, host->Now()));
  scope.reset();

  std::vector<int64_t> rows(test_set.size(), -1);
  std::vector<double> infer_ms;
  int64_t passes = 0;
  double first_virtual_ns = 0.0;
  const Clock::time_point start = Clock::now();
  do {
    const HostSpeed::Mark pass_mark = host->Now();
    double virtual_ns = 0.0;
    for (const size_t i : order) {
      const query::Query& q = test_set[i];
      const Clock::time_point t = Clock::now();
      const lqo::Prediction prediction = neo.Plan(q, db);
      infer_ms.push_back(Ms(t));
      const std::unique_ptr<Database> replica = db->CloneContextForWorker();
      replica->BeginQueryReplay(kReplaySeed, q);
      const engine::QueryRun run = replica->ExecutePlan(q, prediction.plan);
      timed.Add(i, Ms(t));
      ++report->attempted;
      if (!run.status.ok() || run.timed_out) {
        ++report->failed;
        continue;
      }
      virtual_ns += static_cast<double>(prediction.inference_ns) +
                    static_cast<double>(run.execution_ns);
      if (passes == 0) {
        rows[i] = run.result_rows;
      } else {
        report->Check(CheckRows(
            q.id + " pass " + std::to_string(passes), run.result_rows,
            rows[i]));
      }
    }
    timed.EndSamples(HostSpeed::Speed(pass_mark, host->Now()));
    if (passes == 0) {
      first_virtual_ns = virtual_ns;
    } else if (virtual_ns != first_virtual_ns) {
      report->Check("train pass " + std::to_string(passes) +
                    ": virtual time differs from pass 0");
    }
    timed.virtual_s = virtual_ns / 1e9;
    ++passes;
  } while (MorePasses(args, train_start, passes));
  timed.wall_s = Since(start);
  host->Stop();
  timed.peak_rss_mb = PeakRssMb();
  timed.Log();

  // Output check, off the clock: Neo's row counts equal pglite's.
  std::vector<std::string> faults(test_set.size());
  PlanTimer timer;
  ParallelChecks(*db, test_set.size(), [&](Database* replica, size_t i) {
    if (rows[i] < 0) return;
    const std::unique_ptr<Database> fresh = replica->CloneContextForWorker();
    const engine::QueryRun run = fresh->Run(test_set[i]);
    faults[i] = CheckRows(test_set[i].id + " Neo vs pglite",
                                    rows[i], run.result_rows);
  });
  for (const std::string& fault : faults) report->Check(fault);

  if (!args.trace) {
    timed.Print(report, setup_s);
    return;
  }
  Layers layers;
  for (const query::Query& q : test_set) timer.Plan(db, q);  // pglite baseline
  timer.Report(&layers, 1.0);
  layers.SetPlannerCounters(metrics, 1.0);
  layers.SetExecCounters(metrics, 1.0);
  layers.Set("lqo.infer_ms_p50", Median(infer_ms));
  layers.Set("lqo.plans_executed", static_cast<double>(trained.plans_executed));
  layers.Set("lqo.nn_updates", static_cast<double>(trained.nn_updates));
  layers.Set("lqo.nn_evals", static_cast<double>(trained.nn_evals));
  ProbeFrontLayers(db, job, &layers);
  layers.Set("datagen.generate_s", engine.generate_s);
  layers.Set("engine.build_s", engine.build_s);
  layers.Print(report);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  HostSpeed host;
  PrintStamp();
  Report report;
  if (args.workload == "plan") {
    RunPlan(args, &host, &report);
  } else if (args.workload == "execute") {
    RunExecute(args, &host, &report);
  } else if (args.workload == "serve") {
    RunServe(args, &host, &report);
  } else {
    RunTrain(args, &host, &report);
  }
  report.Print();
  return 0;
}
