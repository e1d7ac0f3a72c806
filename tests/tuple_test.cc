// Tests for Tuple = <v, l> (Section 3): builder validation, vls (Figures
// 7–8), restriction, merge (Section 4.1) and materialization (Figure 9).

#include "core/tuple.h"

#include <gtest/gtest.h>

#include "storage/database.h"
#include "util/random.h"

namespace hrdm {
namespace {

const Lifespan kFull = Span(0, 99);

SchemePtr EmpScheme() {
  static SchemePtr scheme = *RelationScheme::Make(
      "emp",
      {{"Name", DomainType::kString, kFull, InterpolationKind::kDiscrete},
       {"Salary", DomainType::kInt, kFull, InterpolationKind::kStepwise},
       {"Dept", DomainType::kString, kFull, InterpolationKind::kStepwise}},
      {"Name"});
  return scheme;
}

/// Scheme whose Dept attribute is only defined over [0,49] — the Figure 7
/// attribute-lifespan interaction.
SchemePtr GappedScheme() {
  static SchemePtr scheme = *RelationScheme::Make(
      "emp2",
      {{"Name", DomainType::kString, kFull, InterpolationKind::kDiscrete},
       {"Dept", DomainType::kString, Span(0, 49),
        InterpolationKind::kStepwise}},
      {"Name"});
  return scheme;
}

TEST(TupleBuilderTest, BuildsValidTuple) {
  Tuple::Builder b(EmpScheme(), Span(10, 30));
  b.SetConstant("Name", Value::String("john"));
  b.SetConstant("Salary", Value::Int(30000));
  b.SetAt("Dept", 10, Value::String("tools"));
  auto t = std::move(b).Build();
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->lifespan().ToString(), "{[10,30]}");
  EXPECT_EQ(t->ValueAt(0, 15), Value::String("john"));
  EXPECT_EQ(t->ValueAt(1, 30), Value::Int(30000));
}

TEST(TupleBuilderTest, RejectsEmptyLifespan) {
  Tuple::Builder b(EmpScheme(), Lifespan::Empty());
  b.SetConstant("Name", Value::String("x"));
  EXPECT_FALSE(std::move(b).Build().ok());
}

TEST(TupleBuilderTest, RejectsUnknownAttribute) {
  Tuple::Builder b(EmpScheme(), Span(0, 5));
  b.SetConstant("Name", Value::String("x"));
  b.SetConstant("Bonus", Value::Int(1));
  auto t = std::move(b).Build();
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kNotFound);
}

TEST(TupleBuilderTest, RejectsMissingKey) {
  Tuple::Builder b(EmpScheme(), Span(0, 5));
  b.SetConstant("Salary", Value::Int(1));
  auto t = std::move(b).Build();
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kConstraintViolation);
}

TEST(TupleBuilderTest, RejectsNonConstantKey) {
  // DOM(K) ⊆ CD: key attributes must be constant-valued.
  Tuple::Builder b(EmpScheme(), Span(0, 5));
  auto name = TemporalValue::FromSegments(
      {{Interval(0, 2), Value::String("a")},
       {Interval(3, 5), Value::String("b")}});
  b.Set("Name", *name);
  auto t = std::move(b).Build();
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kConstraintViolation);
}

TEST(TupleBuilderTest, RejectsPartialKey) {
  Tuple::Builder b(EmpScheme(), Span(0, 5));
  b.Set("Name", *TemporalValue::Constant(Span(0, 3), Value::String("a")));
  auto t = std::move(b).Build();
  EXPECT_FALSE(t.ok());
}

TEST(TupleBuilderTest, RejectsTypeMismatch) {
  Tuple::Builder b(EmpScheme(), Span(0, 5));
  b.SetConstant("Name", Value::String("x"));
  b.SetConstant("Salary", Value::String("lots"));
  auto t = std::move(b).Build();
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kTypeError);
}

TEST(TupleBuilderTest, RejectsValueEscapingVls) {
  Tuple::Builder b(EmpScheme(), Span(10, 20));
  b.SetConstant("Name", Value::String("x"));
  b.SetAt("Salary", 5, Value::Int(1));  // outside tuple lifespan
  auto t = std::move(b).Build();
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kConstraintViolation);
}

TEST(TupleBuilderTest, NonKeyValuesMayBePartial) {
  Tuple::Builder b(EmpScheme(), Span(0, 20));
  b.SetConstant("Name", Value::String("x"));
  b.SetAt("Salary", 3, Value::Int(10));
  auto t = std::move(b).Build();
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->value(2).empty());  // Dept never set — fine
}

TEST(TupleVlsTest, VlsIsTupleLifespanIntersectALS) {
  // Figure 7: the value lifespan is X ∩ Y.
  Tuple::Builder b(GappedScheme(), Span(30, 80));
  b.SetConstant("Name", Value::String("x"));
  b.SetConstant("Dept", Value::String("tools"));
  auto t = std::move(b).Build();
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->Vls(0).ToString(), "{[30,80]}");   // Name: ALS full
  EXPECT_EQ(t->Vls(1).ToString(), "{[30,49]}");   // Dept: clipped by ALS
  // SetConstant wrote over the whole vls only.
  EXPECT_EQ(t->value(1).domain().ToString(), "{[30,49]}");
  EXPECT_TRUE(t->ValueAt(1, 60).absent());
}

TEST(TupleVlsTest, VlsOfAttributeSetIntersects) {
  Tuple::Builder b(GappedScheme(), Span(30, 80));
  b.SetConstant("Name", Value::String("x"));
  auto t = *std::move(b).Build();
  EXPECT_EQ(t.VlsOf({0, 1}).ToString(), "{[30,49]}");
  EXPECT_EQ(t.VlsOf({}).ToString(), "{[30,80]}");
}

TEST(TupleTest, ModelValueInterpolatesStepwise) {
  Tuple::Builder b(EmpScheme(), Span(0, 20));
  b.SetConstant("Name", Value::String("x"));
  b.SetAt("Salary", 0, Value::Int(10));
  b.SetAt("Salary", 10, Value::Int(20));
  auto t = *std::move(b).Build();
  // Stored value is two points; the model level fills the gaps stepwise.
  EXPECT_TRUE(t.ValueAt(1, 5).absent());
  EXPECT_EQ(*t.ModelValueAt(1, 5), Value::Int(10));
  EXPECT_EQ(*t.ModelValueAt(1, 15), Value::Int(20));
  EXPECT_EQ(*t.ModelValueAt(1, 20), Value::Int(20));
}

TEST(TupleTest, MaterializedIsIdempotent) {
  Tuple::Builder b(EmpScheme(), Span(0, 20));
  b.SetConstant("Name", Value::String("x"));
  b.SetAt("Salary", 0, Value::Int(10));
  auto t = *std::move(b).Build();
  auto m1 = *t.Materialized();
  auto m2 = *m1.Materialized();
  EXPECT_EQ(m1, m2);
  EXPECT_EQ(m1.value(1).domain(), m1.Vls(1));
}

TEST(TupleTest, RestrictClipsLifespanAndValues) {
  Tuple::Builder b(EmpScheme(), Span(0, 30));
  b.SetConstant("Name", Value::String("x"));
  b.SetConstant("Salary", Value::Int(10));
  auto t = *std::move(b).Build();
  Tuple r = t.Restrict(Span(10, 15), EmpScheme());
  EXPECT_EQ(r.lifespan().ToString(), "{[10,15]}");
  EXPECT_EQ(r.value(0).domain().ToString(), "{[10,15]}");
  EXPECT_EQ(r.value(1).domain().ToString(), "{[10,15]}");
  // Restriction to a disjoint window produces an empty tuple (dropped by
  // the algebra).
  EXPECT_TRUE(t.Restrict(Span(50, 60), EmpScheme()).lifespan().empty());
}

TEST(TupleMergeTest, MergeablePerSection41) {
  // Same key, non-contradicting values on the overlap.
  Tuple::Builder b1(EmpScheme(), Span(0, 10));
  b1.SetConstant("Name", Value::String("john"));
  b1.SetConstant("Salary", Value::Int(10));
  auto t1 = *std::move(b1).Build();

  Tuple::Builder b2(EmpScheme(), Span(5, 20));
  b2.SetConstant("Name", Value::String("john"));
  b2.Set("Salary", *TemporalValue::Constant(Span(5, 20), Value::Int(10)));
  auto t2 = *std::move(b2).Build();

  EXPECT_TRUE(t1.MergeableWith(t2));
  auto merged = t1.Merge(t2, EmpScheme());
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->lifespan().ToString(), "{[0,20]}");
  EXPECT_EQ(merged->ValueAt(1, 18), Value::Int(10));
}

TEST(TupleMergeTest, DifferentKeysNotMergeable) {
  Tuple::Builder b1(EmpScheme(), Span(0, 10));
  b1.SetConstant("Name", Value::String("john"));
  auto t1 = *std::move(b1).Build();
  Tuple::Builder b2(EmpScheme(), Span(0, 10));
  b2.SetConstant("Name", Value::String("mary"));
  auto t2 = *std::move(b2).Build();
  EXPECT_FALSE(t1.MergeableWith(t2));
  EXPECT_FALSE(t1.Merge(t2, EmpScheme()).ok());
}

TEST(TupleMergeTest, ContradictionNotMergeable) {
  Tuple::Builder b1(EmpScheme(), Span(0, 10));
  b1.SetConstant("Name", Value::String("john"));
  b1.SetConstant("Salary", Value::Int(10));
  auto t1 = *std::move(b1).Build();
  Tuple::Builder b2(EmpScheme(), Span(5, 20));
  b2.SetConstant("Name", Value::String("john"));
  b2.Set("Salary", *TemporalValue::Constant(Span(5, 20), Value::Int(99)));
  auto t2 = *std::move(b2).Build();
  EXPECT_FALSE(t1.MergeableWith(t2));  // contradict on [5,10]
}

TEST(TupleTest, KeyValuesAndHash) {
  Tuple::Builder b(EmpScheme(), Span(0, 10));
  b.SetConstant("Name", Value::String("john"));
  auto t = *std::move(b).Build();
  EXPECT_EQ(t.KeyValues(), std::vector<Value>{Value::String("john")});
  Tuple::Builder b2(EmpScheme(), Span(20, 30));
  b2.SetConstant("Name", Value::String("john"));
  auto t2 = *std::move(b2).Build();
  EXPECT_EQ(t.KeyHash(), t2.KeyHash());
  EXPECT_TRUE(t.SameKeyAs(t2));
}

TEST(TupleTest, ReincarnationLifespans) {
  // Section 1: hire, fire, re-hire — a non-contiguous lifespan.
  const Lifespan life =
      Lifespan::FromIntervals({Interval(0, 9), Interval(30, 49)});
  Tuple::Builder b(EmpScheme(), life);
  b.SetConstant("Name", Value::String("john"));
  b.SetConstant("Salary", Value::Int(10));
  auto t = *std::move(b).Build();
  EXPECT_EQ(t.lifespan().IntervalCount(), 2u);
  EXPECT_TRUE(t.lifespan().Contains(5));
  EXPECT_FALSE(t.lifespan().Contains(20));  // the "dead" period
  EXPECT_TRUE(t.lifespan().Contains(40));
  EXPECT_TRUE(t.ValueAt(1, 20).absent());
}

// --- IsModelLevel: the representation already is the model -----------------

/// `[0, horizon)` cut into 1–3 random fragments.
Lifespan RandomLifespan(Rng& rng, TimePoint horizon) {
  std::vector<Interval> ivs;
  for (int64_t n = rng.Uniform(1, 3); n > 0; --n) {
    const TimePoint b = rng.Uniform(0, horizon - 1);
    ivs.push_back(Interval(b, std::min<TimePoint>(horizon - 1,
                                                  b + rng.Uniform(0, 20))));
  }
  return Lifespan::FromIntervals(std::move(ivs));
}

/// A value from a small int or double range (few distinct values, so
/// adjacent runs often share one and canonical merging is exercised).
Value RandomValueOf(Rng& rng, DomainType type) {
  const int64_t v = rng.Uniform(0, 3);
  return type == DomainType::kDouble ? Value::Double(static_cast<double>(v))
                                     : Value::Int(v);
}

/// A random stored function inside `vls`: empty, total on `vls` (one value
/// or random runs), sparse chronons, or a random part of `vls`.
TemporalValue RandomStoredValue(Rng& rng, const Lifespan& vls,
                                DomainType type) {
  if (vls.empty()) return TemporalValue();
  std::vector<Segment> segs;
  switch (rng.Uniform(0, 4)) {
    case 0:
      return TemporalValue();
    case 1:
      return *TemporalValue::Constant(vls, RandomValueOf(rng, type));
    case 2:  // total on vls, a fresh value per chronon run
      for (const Interval& iv : vls.intervals()) {
        for (TimePoint t = iv.begin; t <= iv.end;) {
          const TimePoint e = std::min(iv.end, t + rng.Uniform(0, 4));
          segs.push_back({Interval(t, e), RandomValueOf(rng, type)});
          t = e + 1;
        }
      }
      break;
    case 3:  // sparse chronons
      for (TimePoint t : vls) {
        if (rng.Chance(0.2)) {
          segs.push_back({Interval::At(t), RandomValueOf(rng, type)});
        }
      }
      break;
    default: {  // a random part of vls
      const Lifespan part = vls.Intersect(RandomLifespan(rng, 60));
      for (const Interval& iv : part.intervals()) {
        segs.push_back({iv, RandomValueOf(rng, type)});
      }
      break;
    }
  }
  return *TemporalValue::FromSegments(std::move(segs));
}

/// Whenever IsModelLevel() holds, interpolation is the identity on every
/// attribute and Materialized() is the tuple itself — checked against the
/// unshortcut Interpolate/Materialized, over random lifespans, attribute
/// lifespans narrower than the tuple's, and empty values, for each kind.
TEST(TupleModelLevelTest, ImpliesInterpolationIsIdentity) {
  const InterpolationKind kinds[] = {InterpolationKind::kDiscrete,
                                     InterpolationKind::kStepwise,
                                     InterpolationKind::kLinear};
  for (InterpolationKind kind : kinds) {
    SCOPED_TRACE(std::string(InterpolationKindName(kind)));
    const DomainType type = kind == InterpolationKind::kLinear
                                ? DomainType::kDouble
                                : DomainType::kInt;
    Rng rng(1000 + static_cast<uint64_t>(kind));
    size_t model = 0, not_model = 0;
    for (int iter = 0; iter < 400; ++iter) {
      // A: always defined; B: an attribute lifespan that may be narrower
      // than (or disjoint from) the tuple's lifespan.
      const Lifespan als_b =
          rng.Chance(0.3) ? Span(0, 59) : RandomLifespan(rng, 60);
      SchemePtr scheme = *RelationScheme::Make(
          "r",
          {{"K", DomainType::kString, Span(0, 59),
            InterpolationKind::kDiscrete},
           {"A", type, Span(0, 59), kind},
           {"B", type, als_b, kind}},
          {"K"});
      const Lifespan life = RandomLifespan(rng, 60);
      Tuple::Builder b(scheme, life);
      b.SetConstant("K", Value::String("k"));
      b.Set("A", RandomStoredValue(rng, life, type));
      b.Set("B", RandomStoredValue(rng, life.Intersect(als_b), type));
      auto built = std::move(b).Build();
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      const Tuple& t = *built;
      if (!t.IsModelLevel()) {
        ++not_model;
        continue;
      }
      ++model;
      for (size_t i = 0; i < t.arity(); ++i) {
        auto interpolated = Interpolate(t.value(i), t.Vls(i),
                                        scheme->attribute(i).interpolation);
        ASSERT_TRUE(interpolated.ok());
        EXPECT_EQ(*interpolated, t.value(i)) << t.ToString();
      }
      auto m = t.Materialized();
      ASSERT_TRUE(m.ok());
      EXPECT_EQ(*m, t);
      EXPECT_EQ(m->Hash(), t.Hash());
      EXPECT_EQ(m->ToString(), t.ToString());
    }
    EXPECT_GT(model, 0u);
    // Every stored discrete value lies inside its vls, so only the
    // interpolating kinds have tuples on the other side.
    if (kind != InterpolationKind::kDiscrete) {
      EXPECT_GT(not_model, 0u);
    }
  }
}

TEST(TupleModelLevelTest, TotalAndEmptyValuesAreModelLevel) {
  Tuple::Builder b(EmpScheme(), Span(0, 20));
  b.SetConstant("Name", Value::String("x"));
  b.SetConstant("Salary", Value::Int(10));
  auto t = *std::move(b).Build();  // Dept stays empty
  EXPECT_TRUE(t.IsModelLevel());
  EXPECT_EQ(*t.Materialized(), t);
  // A discrete value may be partial: nothing is interpolated into it.
  SchemePtr events = *RelationScheme::Make(
      "log",
      {{"Id", DomainType::kString, kFull, InterpolationKind::kDiscrete},
       {"Event", DomainType::kString, kFull, InterpolationKind::kDiscrete}},
      {"Id"});
  Tuple::Builder d(events, Span(0, 20));
  d.SetConstant("Id", Value::String("y"));
  d.SetAt("Event", 3, Value::String("login"));
  auto sparse_discrete = *std::move(d).Build();
  EXPECT_TRUE(sparse_discrete.IsModelLevel());
  EXPECT_EQ(*sparse_discrete.Materialized(), sparse_discrete);
}

TEST(TupleModelLevelTest, SparseStepwiseStoreIsNot) {
  Tuple::Builder b(EmpScheme(), Span(0, 20));
  b.SetConstant("Name", Value::String("x"));
  b.SetAt("Salary", 0, Value::Int(10));
  b.SetAt("Salary", 10, Value::Int(20));
  auto t = *std::move(b).Build();
  EXPECT_FALSE(t.IsModelLevel());
  EXPECT_NE(*t.Materialized(), t);
}

TEST(TupleModelLevelTest, ReincarnatedTupleIsNot) {
  storage::Database db;
  ASSERT_TRUE(db.CreateRelation(EmpScheme()).ok());
  Tuple::Builder b(EmpScheme(), Span(0, 9));
  b.SetConstant("Name", Value::String("john"));
  b.SetConstant("Salary", Value::Int(10));
  auto hired = *std::move(b).Build();
  EXPECT_TRUE(hired.IsModelLevel());
  ASSERT_TRUE(db.Insert("emp", hired).ok());
  ASSERT_TRUE(
      db.Reincarnate("emp", {Value::String("john")}, Span(30, 49)).ok());
  const Relation* emp = *db.Get("emp");
  ASSERT_EQ(emp->size(), 1u);
  const Tuple& rehired = emp->tuple(0);
  // The key is re-extended; Salary still ends at 9, so the stepwise
  // interpolation carries it into the new incarnation.
  EXPECT_FALSE(rehired.IsModelLevel());
  EXPECT_NE(*rehired.Materialized(), rehired);
}

TEST(TupleModelLevelTest, LinearValueWithGapsIsNot) {
  SchemePtr scheme = *RelationScheme::Make(
      "price",
      {{"Ticker", DomainType::kString, kFull, InterpolationKind::kDiscrete},
       {"Price", DomainType::kDouble, kFull, InterpolationKind::kLinear}},
      {"Ticker"});
  Tuple::Builder b(scheme, Span(0, 10));
  b.SetConstant("Ticker", Value::String("ibm"));
  b.SetAt("Price", 0, Value::Double(1.0));
  b.SetAt("Price", 10, Value::Double(2.0));
  auto t = *std::move(b).Build();
  EXPECT_FALSE(t.IsModelLevel());
  auto m = *t.Materialized();
  EXPECT_NE(m, t);
  EXPECT_TRUE(m.IsModelLevel());  // the interpolation filled every gap
}

TEST(TupleModelLevelTest, CopyAndAssignmentResetTheMemo) {
  Tuple::Builder b1(EmpScheme(), Span(0, 20));
  b1.SetConstant("Name", Value::String("x"));
  b1.SetConstant("Salary", Value::Int(10));
  const Tuple model = *std::move(b1).Build();
  Tuple::Builder b2(EmpScheme(), Span(0, 20));
  b2.SetConstant("Name", Value::String("y"));
  b2.SetAt("Salary", 5, Value::Int(10));
  const Tuple sparse = *std::move(b2).Build();
  ASSERT_TRUE(model.IsModelLevel());  // both memos now hold an answer
  ASSERT_FALSE(sparse.IsModelLevel());

  Tuple copy(model);
  EXPECT_TRUE(copy.IsModelLevel());
  copy = sparse;  // copy assignment must drop the memoized "yes"
  EXPECT_FALSE(copy.IsModelLevel());
  copy = model;  // ... and the memoized "no"
  EXPECT_TRUE(copy.IsModelLevel());
  Tuple moved(sparse);
  ASSERT_FALSE(moved.IsModelLevel());
  moved = Tuple(model);  // move assignment
  EXPECT_TRUE(moved.IsModelLevel());
  Tuple moved_into(std::move(moved));
  EXPECT_TRUE(moved_into.IsModelLevel());
}

}  // namespace
}  // namespace hrdm
