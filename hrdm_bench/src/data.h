#ifndef HRDM_BENCH_DATA_H_
#define HRDM_BENCH_DATA_H_

// Seeded inputs of the benchmark: the personnel + stocks database, the DML
// stream writers commit, and the HRQL query pools. The library sees only
// what these functions generate.

#include <cstdint>
#include <string>
#include <vector>

#include "core/relation.h"
#include "storage/database.h"
#include "storage/storage_engine.h"
#include "util/random.h"
#include "util/status.h"

namespace hrdm_bench {

using hrdm::TimePoint;

/// Shape of the generated database:
///   emp(Name*: string, Salary: int stepwise, Dept: string stepwise)
///   dept(DName*: string, Floor: int stepwise, Budget: int stepwise)
///   stocks(Ticker*: string, Price: double linear, DailyVolume: int stepwise)
/// with a value index on emp.Name and emp.Dept and a lifespan index on emp.
struct DbSpec {
  size_t employees = 0;
  size_t departments = 0;
  size_t tickers = 0;
  TimePoint horizon = 1000;
  double rehire = 0.3;
  TimePoint salary_period = 40;  // mean chronons between stored changes;
                                 // Dept changes at three times the period
  TimePoint price_period = 5;
  /// Width of an employment interval the DML stream inserts or
  /// reincarnates.
  TimePoint life_min = 100;
  TimePoint life_max = 400;
  /// Writes touch only chronons >= write_from (0: anywhere). The analytic
  /// workload sets it and keeps its query windows below it, so its writes
  /// record recent history without changing any query's answer.
  TimePoint write_from = 0;
};

/// The relations of a generated database, in creation order.
hrdm::Result<std::vector<hrdm::Relation>> GenerateRelations(
    uint64_t seed, const DbSpec& spec);

/// Creates the relations in `engine`, commits one Insert per tuple and
/// creates the indexes.
hrdm::Status LoadDatabase(hrdm::storage::StorageEngine* engine,
                          const std::vector<hrdm::Relation>& relations);

// --- DML stream ----------------------------------------------------------------

enum class DmlKind { kInsert, kAssign, kEnd, kReincarnate };
inline constexpr int kDmlKinds = 4;
const char* DmlKindName(DmlKind kind);

/// One write against `emp`. Fields unused by a kind stay default.
struct DmlOp {
  DmlKind kind = DmlKind::kAssign;
  std::string name;              // key value
  std::string attr;              // kAssign: Salary or Dept
  hrdm::Lifespan span;           // kAssign, kReincarnate, kInsert (lifespan)
  hrdm::Value value;             // kAssign
  TimePoint at = 0;              // kEnd
  int64_t salary = 0;            // kInsert
  std::string dept;              // kInsert
};

/// A seeded stream of writes that cannot fail: it tracks every employee's
/// lifespan, so Assign spans stay inside it, EndLifespan leaves it
/// non-empty and Insert names (`prefix` + counter) are fresh. Mix: 70%
/// Assign, 10% each of EndLifespan, Reincarnate and Insert (with
/// `write_from` set, writes that would find nothing to touch become
/// Reincarnates).
class DmlStream {
 public:
  DmlStream(uint64_t seed, const DbSpec& spec, const hrdm::Relation& emp,
            std::string prefix);
  DmlOp Next();

 private:
  hrdm::Interval PickWithin(const hrdm::Lifespan& life, TimePoint max_width);

  hrdm::Rng rng_;
  DbSpec spec_;
  std::vector<std::string> names_;
  std::vector<hrdm::Lifespan> lives_;
  std::string prefix_;
  size_t next_new_ = 0;
};

/// The tuple a kInsert op inserts.
hrdm::Tuple InsertTuple(const DmlOp& op, const hrdm::SchemePtr& emp);

/// Commits `op` through the engine (`tuple` is the prebuilt kInsert tuple).
hrdm::Status Commit(hrdm::storage::StorageEngine* engine, const DmlOp& op,
                    const hrdm::Tuple* tuple);

/// Applies `op` to a bare database.
hrdm::Status Apply(hrdm::storage::Database* db, const DmlOp& op,
                   const hrdm::Tuple* tuple);

/// The change-log record the engine appends for `op`.
std::string EncodeRecord(const DmlOp& op, const hrdm::Tuple* tuple);

// --- queries ---------------------------------------------------------------------

enum class QueryClass { kPipeline, kJoin, kAggregate, kStocks, kPoint, kSlice, kFull };
inline constexpr int kQueryClasses = 7;
const char* QueryClassName(QueryClass c);

struct Query {
  QueryClass cls;
  std::string text;
};

/// Large-output queries: timeslice → select_when → project pipelines, an
/// emp ⋈ dept equi-join, grouped aggregates and stocks pipelines.
std::vector<Query> AnalyticPool(uint64_t seed, const DbSpec& spec, size_t n);

/// Short queries: indexed point lookups by Name, windowed lookups and
/// narrow timeslices of dept.
std::vector<Query> ServingPool(uint64_t seed, const DbSpec& spec, size_t n);

/// The full-relation query run first on a just-recovered database.
Query FullQuery();

}  // namespace hrdm_bench

#endif  // HRDM_BENCH_DATA_H_
