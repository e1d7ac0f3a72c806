#ifndef HRDM_BENCH_BENCH_H_
#define HRDM_BENCH_BENCH_H_

// Shared state of one benchmark run: the workload's configuration, the
// correctness tally, and the query path every workload times.

#include <cstdint>
#include <string>
#include <vector>

#include "core/relation.h"
#include "data.h"
#include "query/plan.h"
#include "stats.h"
#include "storage/database_version.h"
#include "storage/storage_engine.h"

namespace hrdm_bench {

/// Every workload commits through this policy: kBatched at its default
/// batch_bytes, with a fixed auto-checkpoint interval.
inline constexpr uint64_t kCheckpointEvery = 2048;
hrdm::storage::StorageEngine::Options EngineOptions();

struct WorkloadSpec {
  const char* name = "";
  DbSpec db;
  int setups = 5;            // set-up repetitions; setup_s is their median
  int rounds = 10;           // analytic: measured rounds, each ending in
                             // crash → ready
  size_t pool_size = 0;      // distinct queries
  size_t ops_per_round = 0;  // writes per round
  size_t read_batch = 0;     // ingest_recover: reads after each reopen
};

class Run {
 public:
  WorkloadSpec spec;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string workdir;

  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// Counts a failed operation or check; prints the first few.
  void Fail(const std::string& what);
  /// Counts one operation whose outcome was checked.
  void Attempt() { ++attempted; }
  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
};

/// One query along the shell's path — ParseExpr → Optimize →
/// Plan::Lower(VersionPlanOptions) → Drain — with a span per layer call.
/// `optimized` and `stats`, when given, receive the lowered tree and the
/// plan counters.
hrdm::Result<hrdm::Relation> RunQuery(
    const std::string& text, const hrdm::storage::DatabaseVersion& version,
    uint64_t op, hrdm::query::ExprPtr* optimized = nullptr,
    hrdm::query::PlanStats* stats = nullptr);

// --- traced-run passes (passes.cc) ------------------------------------------------

/// Per-layer metrics from the spans and from passes over the recovered
/// engine's data and files.
struct LayerInputs {
  const hrdm::storage::StorageEngine* engine = nullptr;
  std::vector<Query> plan_queries;  // the workload's own distinct queries
  Samples checkpoint_ms;
  uint64_t checkpoints = 0;
  double overhead_frac = 0;
  std::string trace_path;  // where the spans are written; empty: not
};
void AddLayerMetrics(Run* run, const LayerInputs& in, Report* report);

}  // namespace hrdm_bench

#endif  // HRDM_BENCH_BENCH_H_
