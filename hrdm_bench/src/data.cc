#include "data.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <utility>

#include "storage/changelog.h"
#include "workload/generators.h"

namespace hrdm_bench {

using hrdm::DomainType;
using hrdm::InterpolationKind;
using hrdm::Interval;
using hrdm::Lifespan;
using hrdm::Relation;
using hrdm::Result;
using hrdm::Rng;
using hrdm::SchemePtr;
using hrdm::Status;
using hrdm::Tuple;
using hrdm::Value;

namespace {

// The names workload::MakePersonnel gives departments and employees.
std::string DeptName(int64_t i) { return "dept" + std::to_string(i); }
std::string EmpName(size_t i) { return "emp" + std::to_string(i); }

int64_t Between(Rng* rng, int64_t lo, int64_t hi) {
  return rng->Uniform(lo, std::max(lo, hi));
}

/// Stores a new value at the start of every interval of `life` and then
/// about every `period` chronons (stepwise interpolation fills the rest).
template <typename NextValue>
void SetSteps(Rng* rng, Tuple::Builder* b, const char* attr,
              const Lifespan& life, TimePoint period, NextValue next) {
  for (const Interval& iv : life.intervals()) {
    for (TimePoint t = iv.begin; t <= iv.end;
         t += Between(rng, period / 2, period * 3 / 2)) {
      b->SetAt(attr, t, next());
    }
  }
}

Result<Relation> MakeDept(Rng* rng, const DbSpec& s) {
  const Lifespan full = hrdm::Span(0, s.horizon - 1);
  HRDM_ASSIGN_OR_RETURN(
      SchemePtr scheme,
      hrdm::RelationScheme::Make(
          "dept",
          {{"DName", DomainType::kString, full, InterpolationKind::kDiscrete},
           {"Floor", DomainType::kInt, full, InterpolationKind::kStepwise},
           {"Budget", DomainType::kInt, full, InterpolationKind::kStepwise}},
          {"DName"}));
  Relation rel(scheme);
  for (size_t d = 0; d < s.departments; ++d) {
    Tuple::Builder tb(scheme, full);
    tb.SetConstant("DName", Value::String(DeptName(int64_t(d))));
    SetSteps(rng, &tb, "Floor", full, s.horizon / 3,
             [&] { return Value::Int(rng->Uniform(1, 30)); });
    SetSteps(rng, &tb, "Budget", full, s.horizon / 8,
             [&] { return Value::Int(rng->Uniform(10, 500) * 1000); });
    HRDM_ASSIGN_OR_RETURN(Tuple t, std::move(tb).Build());
    HRDM_RETURN_IF_ERROR(rel.Insert(std::move(t)));
  }
  return rel;
}

}  // namespace

Result<std::vector<Relation>> GenerateRelations(uint64_t seed,
                                                const DbSpec& spec) {
  Rng rng(seed);
  std::vector<Relation> out;
  hrdm::workload::PersonnelConfig personnel;
  personnel.num_employees = spec.employees;
  personnel.horizon = spec.horizon;
  personnel.rehire_probability = spec.rehire;
  personnel.salary_change_period = spec.salary_period;
  personnel.num_departments = spec.departments;
  HRDM_ASSIGN_OR_RETURN(Relation emp,
                        hrdm::workload::MakePersonnel(&rng, personnel));
  out.push_back(std::move(emp));
  HRDM_ASSIGN_OR_RETURN(Relation dept, MakeDept(&rng, spec));
  out.push_back(std::move(dept));
  hrdm::workload::StockMarketConfig stocks;
  stocks.num_tickers = spec.tickers;
  stocks.horizon = spec.horizon;
  stocks.volume_drop_at = spec.horizon * 2 / 5;
  stocks.volume_resume_at = spec.horizon * 7 / 10;
  stocks.price_sample_period = spec.price_period;
  HRDM_ASSIGN_OR_RETURN(Relation st, hrdm::workload::MakeStockMarket(&rng, stocks));
  out.push_back(std::move(st));
  return out;
}

Status LoadDatabase(hrdm::storage::StorageEngine* engine,
                    const std::vector<Relation>& relations) {
  for (const Relation& rel : relations) {
    const SchemePtr& s = rel.scheme();
    HRDM_RETURN_IF_ERROR(
        engine->CreateRelation(s->name(), s->attributes(), s->key()));
    for (const Tuple& t : rel) {
      HRDM_RETURN_IF_ERROR(engine->Insert(s->name(), t));
    }
  }
  HRDM_RETURN_IF_ERROR(engine->CreateValueIndex("emp", "Name"));
  HRDM_RETURN_IF_ERROR(engine->CreateValueIndex("emp", "Dept"));
  return engine->CreateLifespanIndex("emp");
}

// --- DML stream ----------------------------------------------------------------

const char* DmlKindName(DmlKind kind) {
  switch (kind) {
    case DmlKind::kInsert:
      return "insert";
    case DmlKind::kAssign:
      return "assign";
    case DmlKind::kEnd:
      return "end";
    case DmlKind::kReincarnate:
      return "reincarnate";
  }
  return "?";
}

DmlStream::DmlStream(uint64_t seed, const DbSpec& spec, const Relation& emp,
                     std::string prefix)
    : rng_(seed), spec_(spec), prefix_(std::move(prefix)) {
  for (const Tuple& t : emp) {
    names_.push_back(t.KeyValues()[0].AsString());
    lives_.push_back(t.lifespan());
  }
}

Interval DmlStream::PickWithin(const Lifespan& life, TimePoint max_width) {
  const Interval& iv = life.intervals()[rng_.Index(life.IntervalCount())];
  const TimePoint a = rng_.Uniform(iv.begin, iv.end);
  return Interval(a, std::min(iv.end, a + rng_.Uniform(0, max_width - 1)));
}

DmlOp DmlStream::Next() {
  DmlOp op;
  const int64_t roll = rng_.Uniform(0, 99);
  const TimePoint h = spec_.horizon;
  const TimePoint z = spec_.write_from;
  if (roll < 10) {
    op.kind = DmlKind::kInsert;
    op.name = prefix_ + std::to_string(next_new_++);
    const TimePoint b = rng_.Uniform(z, h - spec_.life_min - 1);
    op.span = hrdm::Span(
        b, std::min(h - 1, b + rng_.Uniform(spec_.life_min, spec_.life_max)));
    op.salary = rng_.Uniform(30, 200) * 1000;
    op.dept = DeptName(rng_.Uniform(0, int64_t(spec_.departments) - 1));
    names_.push_back(op.name);
    lives_.push_back(op.span);
    return op;
  }
  const size_t idx = rng_.Index(names_.size());
  Lifespan& life = lives_[idx];
  op.name = names_[idx];
  // The part of the lifespan writes may touch; an employee with none left
  // is reincarnated into the writable zone instead.
  const Lifespan open = life.Intersect(hrdm::Span(z, h - 1));
  if (roll >= 80 && roll < 90 && !open.empty() && life.Max() > life.Min()) {
    op.kind = DmlKind::kEnd;
    op.at = Between(&rng_, std::max({life.Min() + 1, life.Max() - 30, z}),
                    life.Max());
    life = life.Intersect(hrdm::Span(life.Min(), op.at - 1));
  } else if (roll >= 80 || open.empty()) {
    op.kind = DmlKind::kReincarnate;
    const TimePoint w = std::min<TimePoint>(
        h - 1 - z, rng_.Uniform(spec_.life_min / 2, spec_.life_max / 2));
    const TimePoint b = rng_.Uniform(z, h - 1 - w);
    op.span = hrdm::Span(b, b + w);
    life = life.Union(op.span);
  } else {
    op.kind = DmlKind::kAssign;
    op.span = Lifespan(PickWithin(open, 30));
    if (roll < 55) {
      op.attr = "Salary";
      op.value = Value::Int(rng_.Uniform(30, 250) * 1000);
    } else {
      op.attr = "Dept";
      op.value = Value::String(
          DeptName(rng_.Uniform(0, int64_t(spec_.departments) - 1)));
    }
  }
  return op;
}

Tuple InsertTuple(const DmlOp& op, const SchemePtr& emp) {
  Tuple::Builder tb(emp, op.span);
  tb.SetConstant("Name", Value::String(op.name));
  tb.SetAt("Salary", op.span.Min(), Value::Int(op.salary));
  tb.SetAt("Dept", op.span.Min(), Value::String(op.dept));
  return *std::move(tb).Build();
}

Status Commit(hrdm::storage::StorageEngine* engine, const DmlOp& op,
              const Tuple* tuple) {
  const std::vector<Value> key = {Value::String(op.name)};
  switch (op.kind) {
    case DmlKind::kInsert:
      return engine->Insert("emp", *tuple);
    case DmlKind::kAssign:
      return engine->Assign("emp", key, op.attr, op.span, op.value);
    case DmlKind::kEnd:
      return engine->EndLifespan("emp", key, op.at);
    case DmlKind::kReincarnate:
      return engine->Reincarnate("emp", key, op.span);
  }
  return Status::InvalidArgument("unknown op kind");
}

Status Apply(hrdm::storage::Database* db, const DmlOp& op,
             const Tuple* tuple) {
  const std::vector<Value> key = {Value::String(op.name)};
  switch (op.kind) {
    case DmlKind::kInsert:
      return db->Insert("emp", *tuple);
    case DmlKind::kAssign:
      return db->Assign("emp", key, op.attr, op.span, op.value);
    case DmlKind::kEnd:
      return db->EndLifespan("emp", key, op.at);
    case DmlKind::kReincarnate:
      return db->Reincarnate("emp", key, op.span);
  }
  return Status::InvalidArgument("unknown op kind");
}

std::string EncodeRecord(const DmlOp& op, const Tuple* tuple) {
  const std::vector<Value> key = {Value::String(op.name)};
  switch (op.kind) {
    case DmlKind::kInsert:
      return hrdm::storage::EncodeInsertRecord("emp", *tuple);
    case DmlKind::kAssign:
      return hrdm::storage::EncodeAssignRecord("emp", key, op.attr, op.span,
                                               op.value);
    case DmlKind::kEnd:
      return hrdm::storage::EncodeEndLifespanRecord("emp", key, op.at);
    case DmlKind::kReincarnate:
      return hrdm::storage::EncodeReincarnateRecord("emp", key, op.span);
  }
  return "";
}

// --- queries ---------------------------------------------------------------------

const char* QueryClassName(QueryClass c) {
  switch (c) {
    case QueryClass::kPipeline:
      return "pipeline";
    case QueryClass::kJoin:
      return "join";
    case QueryClass::kAggregate:
      return "aggregate";
    case QueryClass::kStocks:
      return "stocks";
    case QueryClass::kPoint:
      return "point";
    case QueryClass::kSlice:
      return "slice";
    case QueryClass::kFull:
      return "full";
  }
  return "?";
}

namespace {

std::string Window(TimePoint a, TimePoint b) {
  return "{[" + std::to_string(a) + ", " + std::to_string(b) + "]}";
}

}  // namespace

std::vector<Query> AnalyticPool(uint64_t seed, const DbSpec& spec, size_t n) {
  Rng rng(seed);
  const TimePoint h = spec.horizon;
  static const char* const kAggs[] = {"count", "sum Salary", "avg Salary",
                                      "max Salary"};
  // Windows stay below the chronons writes may touch.
  const TimePoint top = spec.write_from > 0 ? spec.write_from : h;
  // Slot i % 20 picks the class. Weights stocks 30%, pipeline 40%,
  // aggregate and join 15% each order the classes by latency so that the
  // median falls in the middle of the pipeline class, not on a boundary
  // between two classes.
  using QC = QueryClass;
  static const QueryClass kSlots[20] = {
      QC::kPipeline, QC::kStocks,    QC::kJoin,     QC::kPipeline,
      QC::kStocks,   QC::kAggregate, QC::kPipeline, QC::kStocks,
      QC::kPipeline, QC::kJoin,      QC::kStocks,   QC::kPipeline,
      QC::kAggregate, QC::kPipeline, QC::kStocks,   QC::kJoin,
      QC::kPipeline, QC::kAggregate, QC::kStocks,   QC::kPipeline};
  std::array<size_t, kQueryClasses> per_class{};
  for (size_t i = 0; i < n; ++i) ++per_class[size_t(kSlots[i % 20])];
  // Parameters are drawn by stratified sampling: the k-th of the m queries
  // of a class takes each parameter from its own 1/m-wide stratum (strata
  // permuted per parameter), so pools of different seeds cost about the
  // same; a seed changes the queries, not the workload's weight.
  std::array<size_t, kQueryClasses> seen{};
  std::vector<Query> pool;
  for (size_t i = 0; i < n; ++i) {
    const QueryClass cls = kSlots[i % 20];
    const size_t m = per_class[size_t(cls)];
    const size_t k = seen[size_t(cls)]++;
    // k -> (k * mult + mult / 2) % m permutes the strata when mult and m
    // are coprime.
    auto stratum = [&](size_t mult) {
      if (std::gcd(mult, m) != 1) mult = 1;
      return (double((k * mult + mult / 2) % m) + rng.NextDouble()) /
             double(m);
    };
    const auto w = TimePoint(double(h) * (0.15 + 0.1 * stratum(1)));
    const auto a = TimePoint(double(top - 1 - w) * stratum(3));
    const double f = stratum(7);
    const std::string win = Window(a, a + w);
    switch (cls) {
      case QueryClass::kPipeline:
        pool.push_back({cls, "project(select_when(timeslice(emp, " + win +
                                 "), Salary >= " +
                                 std::to_string(int64_t(60 + 100 * f) * 1000) +
                                 "), Name, Salary)"});
        break;
      case QueryClass::kJoin:
        pool.push_back({cls, "project(join(timeslice(emp, " + win +
                                 "), dept, Dept = DName), Name, Floor)"});
        break;
      case QueryClass::kAggregate:
        pool.push_back({cls, "aggregate(timeslice(emp, " + win + "), " +
                                 kAggs[k % 4] + " by Dept)"});
        break;
      default:
        pool.push_back({cls, "project(select_when(timeslice(stocks, " + win +
                                 "), Price >= " +
                                 std::to_string(int64_t(20 + 100 * f)) +
                                 ".5), Ticker, Price)"});
        break;
    }
  }
  return pool;
}

std::vector<Query> ServingPool(uint64_t seed, const DbSpec& spec, size_t n) {
  Rng rng(seed);
  const TimePoint h = spec.horizon;
  std::vector<Query> pool;
  for (size_t i = 0; i < n; ++i) {
    // Built by appends: GCC 12 warns falsely (-Wrestrict) on the equivalent
    // chain of operator+.
    std::string name = "\"";
    name += EmpName(size_t(rng.Uniform(0, int64_t(spec.employees) - 1)));
    name += "\"";
    const TimePoint w = rng.Uniform(2, 10);
    const TimePoint a = rng.Uniform(0, h - 1 - w);
    // Every read stays small (below the morsel-parallel threshold): half
    // point lookups, a quarter windowed lookups, a quarter narrow slices of
    // the 100-row dept relation.
    switch (i % 4) {
      case 0:
      case 1:
        pool.push_back({QueryClass::kPoint,
                        "select_if(emp, Name = " + name + ", exists)"});
        break;
      case 2:
        pool.push_back({QueryClass::kSlice, "select_if(emp, Name = " + name +
                                                ", exists, " +
                                                Window(a, a + w) + ")"});
        break;
      default:
        pool.push_back(
            {QueryClass::kSlice, "timeslice(dept, " + Window(a, a + w) + ")"});
        break;
    }
  }
  return pool;
}

Query FullQuery() {
  return {QueryClass::kFull, "select_when(emp, Salary >= 0)"};
}

}  // namespace hrdm_bench
