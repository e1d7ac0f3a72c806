// Tests for Relation: temporal key uniqueness (Section 3), indexes,
// LS(r), and the storage-engine update paths.

#include "core/relation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "util/random.h"

namespace hrdm {
namespace {

const Lifespan kFull = Span(0, 99);

SchemePtr Scheme() {
  static SchemePtr s = *RelationScheme::Make(
      "r",
      {{"Id", DomainType::kString, kFull, InterpolationKind::kDiscrete},
       {"X", DomainType::kInt, kFull, InterpolationKind::kStepwise}},
      {"Id"});
  return s;
}

Tuple MakeTuple(const std::string& id, TimePoint b, TimePoint e, int64_t x) {
  Tuple::Builder builder(Scheme(), Span(b, e));
  builder.SetConstant("Id", Value::String(id));
  builder.SetConstant("X", Value::Int(x));
  return *std::move(builder).Build();
}

TEST(RelationTest, InsertAndLookup) {
  Relation r(Scheme());
  ASSERT_TRUE(r.Insert(MakeTuple("a", 0, 10, 1)).ok());
  ASSERT_TRUE(r.Insert(MakeTuple("b", 5, 20, 2)).ok());
  EXPECT_EQ(r.size(), 2u);
  auto idx = r.FindByKey({Value::String("b")});
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(r.tuple(*idx).ValueAt(1, 10), Value::Int(2));
  EXPECT_FALSE(r.FindByKey({Value::String("zzz")}).has_value());
}

TEST(RelationTest, TemporalKeyUniqueness) {
  // Section 3: even with disjoint lifespans, two tuples may not share a
  // key — the same object must be one tuple (with a fragmented lifespan).
  Relation r(Scheme());
  ASSERT_TRUE(r.Insert(MakeTuple("a", 0, 10, 1)).ok());
  auto dup = r.Insert(MakeTuple("a", 50, 60, 2));
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.code(), StatusCode::kConstraintViolation);
}

TEST(RelationTest, RejectsEmptyLifespan) {
  Relation r(Scheme());
  Tuple t = MakeTuple("a", 0, 10, 1).Restrict(Span(50, 60), Scheme());
  EXPECT_FALSE(r.Insert(t).ok());
  EXPECT_TRUE(r.InsertOrDrop(t).ok());  // silently dropped
  EXPECT_TRUE(r.empty());
}

TEST(RelationTest, InsertDedupSkipsStructuralDuplicates) {
  Relation r(Scheme());
  Tuple t = MakeTuple("a", 0, 10, 1);
  ASSERT_TRUE(r.InsertDedup(t).ok());
  ASSERT_TRUE(r.InsertDedup(t).ok());
  EXPECT_EQ(r.size(), 1u);
  // And allows key collisions (set semantics for derived relations).
  ASSERT_TRUE(r.InsertDedup(MakeTuple("a", 50, 60, 2)).ok());
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.FindAllByKey({Value::String("a")}).size(), 2u);
}

TEST(RelationTest, LSIsUnionOfTupleLifespans) {
  Relation r(Scheme());
  ASSERT_TRUE(r.Insert(MakeTuple("a", 0, 10, 1)).ok());
  ASSERT_TRUE(r.Insert(MakeTuple("b", 30, 40, 2)).ok());
  EXPECT_EQ(r.LS().ToString(), "{[0,10],[30,40]}");
  EXPECT_TRUE(Relation(Scheme()).LS().empty());
}

TEST(RelationTest, EqualsAsSetIgnoresOrder) {
  Relation r1(Scheme()), r2(Scheme());
  ASSERT_TRUE(r1.Insert(MakeTuple("a", 0, 10, 1)).ok());
  ASSERT_TRUE(r1.Insert(MakeTuple("b", 5, 20, 2)).ok());
  ASSERT_TRUE(r2.Insert(MakeTuple("b", 5, 20, 2)).ok());
  ASSERT_TRUE(r2.Insert(MakeTuple("a", 0, 10, 1)).ok());
  EXPECT_TRUE(r1.EqualsAsSet(r2));
  Relation r3(Scheme());
  ASSERT_TRUE(r3.Insert(MakeTuple("a", 0, 10, 1)).ok());
  EXPECT_FALSE(r1.EqualsAsSet(r3));
}

TEST(RelationTest, ReplaceAtUpdatesIndexes) {
  Relation r(Scheme());
  ASSERT_TRUE(r.Insert(MakeTuple("a", 0, 10, 1)).ok());
  ASSERT_TRUE(r.Insert(MakeTuple("b", 0, 10, 2)).ok());
  // Replace b's tuple wholesale.
  ASSERT_TRUE(r.ReplaceAt(1, MakeTuple("b", 0, 30, 5)).ok());
  auto idx = r.FindByKey({Value::String("b")});
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(r.tuple(*idx).lifespan().ToString(), "{[0,30]}");
  // Key change is allowed as long as it stays unique.
  ASSERT_TRUE(r.ReplaceAt(1, MakeTuple("c", 0, 5, 9)).ok());
  EXPECT_FALSE(r.FindByKey({Value::String("b")}).has_value());
  EXPECT_TRUE(r.FindByKey({Value::String("c")}).has_value());
  // ...but may not steal another tuple's key.
  auto bad = r.ReplaceAt(1, MakeTuple("a", 0, 5, 9));
  EXPECT_FALSE(bad.ok());
}

TEST(RelationTest, EraseAtReindexes) {
  Relation r(Scheme());
  ASSERT_TRUE(r.Insert(MakeTuple("a", 0, 10, 1)).ok());
  ASSERT_TRUE(r.Insert(MakeTuple("b", 0, 10, 2)).ok());
  ASSERT_TRUE(r.Insert(MakeTuple("c", 0, 10, 3)).ok());
  ASSERT_TRUE(r.EraseAt(0).ok());
  EXPECT_EQ(r.size(), 2u);
  EXPECT_FALSE(r.FindByKey({Value::String("a")}).has_value());
  auto idx = r.FindByKey({Value::String("c")});
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(r.tuple(*idx).ValueAt(1, 5), Value::Int(3));
  EXPECT_FALSE(r.EraseAt(5).ok());
}

TEST(RelationTest, SchemeMismatchRejected) {
  auto other = *RelationScheme::Make(
      "other",
      {{"Id", DomainType::kString, kFull, InterpolationKind::kDiscrete},
       {"Y", DomainType::kInt, kFull, InterpolationKind::kStepwise}},
      {"Id"});
  Relation r(other);
  auto s = r.Insert(MakeTuple("a", 0, 10, 1));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIncompatibleSchemes);
}

// In a keyed relation the one hash index is by key, so set-semantics
// inserts of distinct tuples that share a key land in one chain.
TEST(RelationTest, KeyedDedupKeepsDistinctTuplesSharingAKey) {
  Relation r(Scheme());
  const Tuple t1 = MakeTuple("a", 0, 10, 1);
  const Tuple t2 = MakeTuple("a", 0, 10, 2);  // same key and lifespan
  ASSERT_TRUE(r.InsertDedup(t1).ok());
  ASSERT_TRUE(r.InsertDedup(t2).ok());
  EXPECT_EQ(r.size(), 2u);
  ASSERT_TRUE(r.InsertDedup(t1).ok());
  ASSERT_TRUE(r.InsertDedup(t2).ok());
  EXPECT_EQ(r.size(), 2u) << "re-inserting either tuple is dropped";
  EXPECT_EQ(r.FindStructural(t1), std::optional<size_t>(0));
  EXPECT_EQ(r.FindStructural(t2), std::optional<size_t>(1));
  EXPECT_FALSE(r.FindStructural(MakeTuple("a", 0, 10, 3)).has_value());
  EXPECT_FALSE(r.FindStructural(MakeTuple("b", 0, 10, 1)).has_value());
  EXPECT_EQ(r.FindAllByKey({Value::String("a")}),
            (std::vector<size_t>{0, 1}));
  EXPECT_EQ(r.FindByKey({Value::String("a")}), std::optional<size_t>(0));
}

TEST(RelationTest, ReplaceAndEraseKeepEveryLookupRight) {
  Relation r(Scheme());
  ASSERT_TRUE(r.InsertDedup(MakeTuple("a", 0, 10, 1)).ok());
  ASSERT_TRUE(r.InsertDedup(MakeTuple("a", 0, 10, 2)).ok());
  ASSERT_TRUE(r.InsertDedup(MakeTuple("b", 0, 10, 3)).ok());
  // Re-key tuple 1 from a to c: both chains change.
  ASSERT_TRUE(r.ReplaceAt(1, MakeTuple("c", 5, 10, 4)).ok());
  EXPECT_EQ(r.FindAllByKey({Value::String("a")}), (std::vector<size_t>{0}));
  EXPECT_EQ(r.FindByKey({Value::String("c")}), std::optional<size_t>(1));
  EXPECT_FALSE(r.FindStructural(MakeTuple("a", 0, 10, 2)).has_value());
  EXPECT_EQ(r.FindStructural(MakeTuple("c", 5, 10, 4)),
            std::optional<size_t>(1));
  // Same key, new value: the tuple stays findable under its key only in
  // its new form.
  ASSERT_TRUE(r.ReplaceAt(0, MakeTuple("a", 0, 20, 1)).ok());
  EXPECT_FALSE(r.FindStructural(MakeTuple("a", 0, 10, 1)).has_value());
  EXPECT_EQ(r.FindStructural(MakeTuple("a", 0, 20, 1)),
            std::optional<size_t>(0));
  EXPECT_EQ(r.FindByKey({Value::String("a")}), std::optional<size_t>(0));
  // Erasing shifts later indices down.
  ASSERT_TRUE(r.EraseAt(0).ok());
  EXPECT_FALSE(r.FindByKey({Value::String("a")}).has_value());
  EXPECT_TRUE(r.FindAllByKey({Value::String("a")}).empty());
  EXPECT_EQ(r.FindByKey({Value::String("c")}), std::optional<size_t>(0));
  EXPECT_EQ(r.FindByKey({Value::String("b")}), std::optional<size_t>(1));
  EXPECT_EQ(r.FindStructural(MakeTuple("b", 0, 10, 3)),
            std::optional<size_t>(1));
  // A replacement rejected for its key leaves the index untouched.
  EXPECT_FALSE(r.ReplaceAt(0, MakeTuple("b", 0, 5, 9)).ok());
  EXPECT_EQ(r.FindStructural(MakeTuple("c", 5, 10, 4)),
            std::optional<size_t>(0));
  EXPECT_EQ(r.FindByKey({Value::String("b")}), std::optional<size_t>(1));
}

SchemePtr KeylessScheme() {
  static SchemePtr s = *RelationScheme::Make(
      "k",
      {{"Id", DomainType::kString, kFull, InterpolationKind::kDiscrete},
       {"X", DomainType::kInt, kFull, InterpolationKind::kStepwise}},
      {});
  return s;
}

Tuple MakeKeyless(const std::string& id, TimePoint b, TimePoint e, int64_t x) {
  return MakeTuple(id, b, e, x).Rebind(KeylessScheme());
}

TEST(RelationTest, KeylessRelationIndexesByStructure) {
  Relation r(KeylessScheme());
  ASSERT_TRUE(r.Insert(MakeKeyless("a", 0, 10, 1)).ok());
  ASSERT_TRUE(r.Insert(MakeKeyless("a", 0, 10, 2)).ok());
  const Status dup = r.Insert(MakeKeyless("a", 0, 10, 1));
  EXPECT_EQ(dup.code(), StatusCode::kConstraintViolation);
  ASSERT_TRUE(r.InsertDedup(MakeKeyless("a", 0, 10, 2)).ok());
  EXPECT_EQ(r.size(), 2u);
  // No key, so key lookups find nothing.
  EXPECT_FALSE(r.FindByKey({}).has_value());
  EXPECT_FALSE(r.FindByKey({Value::String("a")}).has_value());
  EXPECT_TRUE(r.FindAllByKey({}).empty());
  EXPECT_TRUE(r.FindAllByKey({Value::String("a")}).empty());
  EXPECT_EQ(r.FindStructural(MakeKeyless("a", 0, 10, 2)),
            std::optional<size_t>(1));
  ASSERT_TRUE(r.ReplaceAt(0, MakeKeyless("b", 0, 10, 1)).ok());
  EXPECT_FALSE(r.FindStructural(MakeKeyless("a", 0, 10, 1)).has_value());
  EXPECT_EQ(r.FindStructural(MakeKeyless("b", 0, 10, 1)),
            std::optional<size_t>(0));
  ASSERT_TRUE(r.EraseAt(0).ok());
  EXPECT_EQ(r.FindStructural(MakeKeyless("a", 0, 10, 2)),
            std::optional<size_t>(0));
}

// Random Insert / InsertDedup / ReplaceAt / EraseAt against a brute-force
// model (a plain tuple vector searched linearly), keyed and keyless.
TEST(RelationTest, LookupsMatchALinearScanModel) {
  Rng rng(14);
  for (const SchemePtr& scheme : {Scheme(), KeylessScheme()}) {
    const bool keyed = !scheme->key().empty();
    Relation r(scheme);
    std::vector<Tuple> model;
    auto random_tuple = [&] {
      const TimePoint b = rng.Uniform(0, 3);
      return MakeTuple(std::string(1, static_cast<char>('a' + rng.Uniform(0, 3))),
                       b, b + rng.Uniform(0, 2), rng.Uniform(0, 2))
          .Rebind(scheme);
    };
    auto linear_find = [&](const Tuple& t) -> std::optional<size_t> {
      for (size_t i = 0; i < model.size(); ++i) {
        if (model[i] == t) return i;
      }
      return std::nullopt;
    };
    for (int op = 0; op < 600; ++op) {
      const Tuple t = random_tuple();
      switch (rng.Uniform(0, 3)) {
        case 0: {  // Insert: key-unique (keyed) or duplicate-free (keyless)
          bool clash = false;
          for (const Tuple& m : model) {
            clash = clash || (keyed ? m.KeyValues() == t.KeyValues() : m == t);
          }
          EXPECT_EQ(r.Insert(t).ok(), !clash);
          if (!clash) model.push_back(t);
          break;
        }
        case 1:
          ASSERT_TRUE(r.InsertDedup(t).ok());
          if (!linear_find(t).has_value()) model.push_back(t);
          break;
        case 2:
          if (!model.empty()) {
            const size_t idx = rng.Index(model.size());
            bool clash = false;
            for (size_t i = 0; i < model.size(); ++i) {
              clash = clash || (keyed && i != idx &&
                                model[i].KeyValues() == t.KeyValues());
            }
            EXPECT_EQ(r.ReplaceAt(idx, t).ok(), !clash);
            if (!clash) model[idx] = t;
          }
          break;
        default:
          if (!model.empty()) {
            const size_t idx = rng.Index(model.size());
            ASSERT_TRUE(r.EraseAt(idx).ok());
            model.erase(model.begin() + static_cast<ptrdiff_t>(idx));
          }
          break;
      }
      ASSERT_EQ(r.size(), model.size());
      for (size_t i = 0; i < model.size(); ++i) {
        ASSERT_TRUE(r.tuple(i) == model[i]) << "op " << op;
      }
      // Every probe, present or not, answers as the linear scan does.
      const Tuple probe = random_tuple();
      for (const Tuple* q : {&probe, model.empty() ? &probe : &model[0]}) {
        const auto found = r.FindStructural(*q);
        if (found.has_value()) {
          EXPECT_TRUE(r.tuple(*found) == *q) << "op " << op;
        }
        EXPECT_EQ(found.has_value(), linear_find(*q).has_value())
            << "op " << op;
        std::vector<size_t> want;
        for (size_t i = 0; keyed && i < model.size(); ++i) {
          if (model[i].KeyValues() == q->KeyValues()) want.push_back(i);
        }
        std::vector<size_t> got = r.FindAllByKey(q->KeyValues());
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want) << "op " << op;
        EXPECT_EQ(r.FindByKey(q->KeyValues()).has_value(), !want.empty());
      }
    }
  }
}

// Intersect and Difference probe one relation with the other's tuples;
// union-compatible schemes may key different attributes, or none.
TEST(RelationTest, FindStructuralAcceptsUnionCompatibleSchemes) {
  SchemePtr by_x = *RelationScheme::Make(
      "x",
      {{"Id", DomainType::kString, kFull, InterpolationKind::kDiscrete},
       {"X", DomainType::kInt, kFull, InterpolationKind::kStepwise}},
      {"X"});
  Relation keyed(Scheme());
  ASSERT_TRUE(keyed.Insert(MakeTuple("a", 0, 10, 1)).ok());
  Relation keyless(KeylessScheme());
  ASSERT_TRUE(keyless.Insert(MakeKeyless("a", 0, 10, 1)).ok());
  for (const Tuple& probe :
       {MakeTuple("a", 0, 10, 1), MakeKeyless("a", 0, 10, 1),
        MakeTuple("a", 0, 10, 1).Rebind(by_x)}) {
    EXPECT_EQ(keyed.FindStructural(probe), std::optional<size_t>(0));
    EXPECT_EQ(keyless.FindStructural(probe), std::optional<size_t>(0));
  }
  EXPECT_TRUE(keyed.EqualsAsSet(keyed));
}

}  // namespace
}  // namespace hrdm
