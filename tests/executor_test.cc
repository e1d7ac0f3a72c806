// End-to-end executor tests: HRQL queries against the domain workloads.

#include "query/executor.h"

#include <gtest/gtest.h>

#include "algebra/when.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "query/plan.h"
#include "util/random.h"
#include "workload/generators.h"

namespace hrdm::query {
namespace {

storage::Database PersonnelDb(uint64_t seed = 42) {
  Rng rng(seed);
  workload::PersonnelConfig config;
  config.num_employees = 40;
  auto emp = workload::MakePersonnel(&rng, config);
  EXPECT_TRUE(emp.ok());
  storage::Database db;
  EXPECT_TRUE(db.CreateRelation(emp->scheme()).ok());
  for (const Tuple& t : *emp) {
    EXPECT_TRUE(db.Insert("emp", t).ok());
  }
  return db;
}

TEST(ExecutorTest, BaseRelationLookup) {
  auto db = PersonnelDb();
  auto r = hrdm::query::Run("emp", db);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), (*db.Get("emp"))->size());
  EXPECT_FALSE(hrdm::query::Run("ghosts", db).ok());
}

TEST(ExecutorTest, SelectProjectPipeline) {
  auto db = PersonnelDb();
  auto r = hrdm::query::Run("project(select_if(emp, Salary >= 100000, exists), Name)", db);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->scheme()->arity(), 1u);
  // Every returned employee indeed earned >= 100000 at some chronon.
  auto check = hrdm::query::Run("select_if(emp, Salary >= 100000, exists)", db);
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(r->size(), check->size());
}

TEST(ExecutorTest, MultiSortedWhenParameter) {
  auto db = PersonnelDb();
  // "restrict the database to the times when anyone was in dept0" — a
  // WHEN result feeding TIME-SLICE (Section 4.5).
  auto r = hrdm::query::Run(
      R"(timeslice(emp, when(select_when(emp, Dept = "dept0"))))", db);
  ASSERT_TRUE(r.ok());
  auto dept0_times = EvalLifespan(
      *ParseLsExpr(R"(when(select_when(emp, Dept = "dept0")))"),
      db);
  ASSERT_TRUE(dept0_times.ok());
  EXPECT_TRUE(dept0_times->ContainsAll(When(*r)));
}

TEST(ExecutorTest, SnapshotReduction) {
  auto db = PersonnelDb();
  // A single-chronon slice behaves like a classical table.
  auto r = hrdm::query::Run("timeslice(emp, {[50]})", db);
  ASSERT_TRUE(r.ok());
  for (const Tuple& t : *r) {
    EXPECT_EQ(t.lifespan(), Lifespan::Point(50));
  }
}

TEST(ExecutorTest, ErrorsPropagate) {
  auto db = PersonnelDb();
  EXPECT_FALSE(hrdm::query::Run("select_if(emp, Bonus = 1, exists)", db).ok());
  EXPECT_FALSE(hrdm::query::Run("dynslice(emp, Salary)", db).ok());
  EXPECT_FALSE(hrdm::query::Run("union(emp, project(emp, Name))", db).ok());
}

TEST(ExecutorTest, EnrollmentJoinScenario) {
  Rng rng(7);
  auto db = workload::MakeEnrollment(&rng, workload::EnrollmentConfig{});
  ASSERT_TRUE(db.ok());
  // Students and their enrollments, joined on SId equality over time.
  auto r = hrdm::query::Run("join(project(enroll, EId, CId), student, EId != SId)", *db);
  ASSERT_TRUE(r.ok());
  // Weak sanity: the join scheme concatenates both sides.
  EXPECT_EQ(r->scheme()->arity(), 4u);

  // Natural join via the shared SId attribute.
  auto nj = hrdm::query::Run("natjoin(enroll, student)", *db);
  ASSERT_TRUE(nj.ok());
  for (const Tuple& t : *nj) {
    // Every joined tuple's lifespan is inside both parents' lifespans.
    auto sid = (*t.value("SId")).ConstantValue();
    auto enroll_rel = *db->Get("student");
    auto idx = enroll_rel->FindByKey({sid});
    ASSERT_TRUE(idx.has_value());
    EXPECT_TRUE(
        enroll_rel->tuple(*idx).lifespan().ContainsAll(t.lifespan()));
  }
}

TEST(ExecutorTest, ObjectUnionAcrossTimeslices) {
  auto db = PersonnelDb();
  // Splitting a relation by time and object-unioning the parts restores
  // the original (at the model level): r = T_[0,49](r) ∪o T_[50,99](r).
  auto split = hrdm::query::Run(
      "ounion(timeslice(emp, {[0,49]}), timeslice(emp, {[50,99]}))", db);
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  auto whole = hrdm::query::Run("timeslice(emp, {[0,99]})", db);
  ASSERT_TRUE(whole.ok());
  EXPECT_TRUE(split->EqualsAsSet(*whole));
}

TEST(ExecutorTest, StockMarketFigure6Queries) {
  Rng rng(9);
  auto stocks = workload::MakeStockMarket(&rng, workload::StockMarketConfig{});
  ASSERT_TRUE(stocks.ok());
  storage::Database db;
  ASSERT_TRUE(db.CreateRelation(stocks->scheme()).ok());
  for (const Tuple& t : *stocks) {
    ASSERT_TRUE(db.Insert("stocks", t).ok());
  }
  // DailyVolume is undefined during the Figure 6 gap [80,139]: selecting on
  // it there yields nothing.
  auto gap = hrdm::query::Run("timeslice(select_when(stocks, DailyVolume >= 0), {[100,120]})",
                 db);
  ASSERT_TRUE(gap.ok());
  EXPECT_TRUE(gap->empty());
  // But Price (linear interpolation) is defined throughout.
  auto price = hrdm::query::Run("timeslice(select_when(stocks, Price > 0.0), {[100,120]})",
                   db);
  ASSERT_TRUE(price.ok());
  EXPECT_EQ(price->size(), 50u);
}

std::string Repeat(const std::string& s, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

// Queries nested exactly as deep as the parser accepts must run through
// every stage that recurses over the tree — optimize, lower, drain, the
// materializing oracle, printing and destruction — without exhausting the
// stack (the sanitizer builds have the largest frames).
TEST(ExecutorTest, NestingLimitSurvivesTheWholeChain) {
  auto db = PersonnelDb();
  const int d = kMaxNestingDepth;
  const std::string shapes[] = {
      Repeat("timeslice(", d - 1) + "emp" + Repeat(", {[1, 50]})", d - 1),
      Repeat("select_if(", d - 1) + "emp" +
          Repeat(", Salary >= 0, exists, {[1, 60]})", d - 1),
      Repeat("project(", d - 1) + "emp" + Repeat(", Name, Salary)", d - 1),
      Repeat("union(emp, ", d - 1) + "emp" + Repeat(")", d - 1),
      Repeat("aggregate(", d - 1) + "emp" + Repeat(", count)", d - 1),
      Repeat("timeslice(emp, when(", (d - 1) / 2) + "emp" +
          Repeat("))", (d - 1) / 2),
      "timeslice(emp, " + Repeat("lunion({[1, 2]}, ", d - 2) + "{[3, 4]}" +
          Repeat(")", d - 2) + ")",
  };
  for (const std::string& text : shapes) {
    SCOPED_TRACE(text.substr(0, 40));
    auto expr = ParseExpr(text);
    ASSERT_TRUE(expr.ok()) << expr.status().ToString();
    auto plan = Plan::Lower(Optimize(*expr), DatabaseResolver(db),
                            DatabasePlanOptions(db));
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto got = plan->Drain();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto want = EvalMaterializing(*expr, DatabaseResolver(db));
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_TRUE(got->EqualsAsSet(*want));
    EXPECT_TRUE(ParseExpr((*expr)->ToString()).ok());
  }
  EXPECT_FALSE(ParseExpr(Repeat("timeslice(", d) + "emp" +
                         Repeat(", {[1, 50]})", d))
                   .ok());
}

}  // namespace
}  // namespace hrdm::query
