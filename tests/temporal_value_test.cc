// Tests for TemporalValue — the partial functions T -> D of Section 3.

#include "core/temporal_value.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "util/random.h"

namespace hrdm {
namespace {

Result<TemporalValue> TV(std::vector<Segment> segs) {
  return TemporalValue::FromSegments(std::move(segs));
}

TEST(TemporalValueTest, EmptyFunction) {
  TemporalValue f;
  EXPECT_TRUE(f.empty());
  EXPECT_TRUE(f.domain().empty());
  EXPECT_TRUE(f.ValueAt(0).absent());
  EXPECT_TRUE(f.IsConstant());
  EXPECT_FALSE(f.type().has_value());
}

TEST(TemporalValueTest, ConstantIsCD) {
  auto f = TemporalValue::Constant(
      Lifespan::FromIntervals({Interval(0, 4), Interval(8, 9)}),
      Value::String("Codd"));
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(f->IsConstant());
  EXPECT_EQ(f->ConstantValue(), Value::String("Codd"));
  EXPECT_EQ(f->ValueAt(2), Value::String("Codd"));
  EXPECT_EQ(f->ValueAt(8), Value::String("Codd"));
  EXPECT_TRUE(f->ValueAt(6).absent());
}

TEST(TemporalValueTest, ConstantRejectsAbsent) {
  EXPECT_FALSE(TemporalValue::Constant(Span(0, 3), Value()).ok());
}

TEST(TemporalValueTest, FromSegmentsSortsAndMerges) {
  auto f = TV({{Interval(5, 9), Value::Int(2)},
               {Interval(0, 4), Value::Int(2)}});
  ASSERT_TRUE(f.ok());
  // Adjacent equal-valued segments merge into one.
  EXPECT_EQ(f->segments().size(), 1u);
  EXPECT_EQ(f->segments()[0].interval, Interval(0, 9));
}

TEST(TemporalValueTest, FromSegmentsKeepsDistinctAdjacents) {
  auto f = TV({{Interval(0, 4), Value::Int(1)},
               {Interval(5, 9), Value::Int(2)}});
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->segments().size(), 2u);
}

TEST(TemporalValueTest, FromSegmentsRejectsOverlap) {
  auto f = TV({{Interval(0, 5), Value::Int(1)},
               {Interval(5, 9), Value::Int(2)}});
  EXPECT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kInvalidArgument);
}

TEST(TemporalValueTest, FromSegmentsRejectsMixedTypes) {
  auto f = TV({{Interval(0, 4), Value::Int(1)},
               {Interval(6, 9), Value::String("x")}});
  EXPECT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kTypeError);
}

// FromSegments as it was before canonical input got its early pass: drop
// invalid intervals, reject absent values, sort by begin, then check types
// and overlap while merging equal adjacent segments. Kept as the oracle the
// early pass must agree with on every input, errors included.
Result<std::vector<Segment>> ReferenceFromSegments(std::vector<Segment> in) {
  std::vector<Segment> segs;
  for (Segment& s : in) {
    if (!s.interval.valid()) continue;
    if (s.value.absent()) {
      return Status::InvalidArgument(
          "temporal value segment holds an absent value");
    }
    segs.push_back(std::move(s));
  }
  std::sort(segs.begin(), segs.end(), [](const Segment& a, const Segment& b) {
    return a.interval.begin < b.interval.begin;
  });
  std::vector<Segment> out;
  for (Segment& s : segs) {
    if (!out.empty()) {
      Segment& last = out.back();
      if (s.value.type() != last.value.type()) {
        return Status::TypeError(
            "temporal value segments mix domain types: " +
            std::string(DomainTypeName(last.value.type())) + " vs " +
            std::string(DomainTypeName(s.value.type())));
      }
      if (s.interval.begin <= last.interval.end) {
        return Status::InvalidArgument(
            "temporal value segments overlap at " + s.interval.ToString());
      }
      if (last.interval.adjacent(s.interval) && last.value == s.value) {
        last.interval.end = s.interval.end;
        continue;
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

void ExpectSameAsReference(const std::vector<Segment>& in) {
  const auto got = TV(in);
  const auto want = ReferenceFromSegments(in);
  ASSERT_EQ(got.ok(), want.ok())
      << (got.ok() ? want.status() : got.status()).ToString();
  if (!want.ok()) {
    EXPECT_EQ(got.status().ToString(), want.status().ToString());
    return;
  }
  EXPECT_EQ(got->segments(), *want);
  std::vector<Interval> ivs;
  for (const Segment& s : *want) ivs.push_back(s.interval);
  EXPECT_EQ(got->domain(), Lifespan::FromIntervals(std::move(ivs)));
}

TEST(TemporalValueTest, FromSegmentsMatchesReferenceOnDirectedInput) {
  const Value a = Value::Int(1);
  const Value b = Value::Int(2);
  const std::vector<std::vector<Segment>> cases = {
      {},                                                       // empty
      {{Interval(0, 4), a}, {Interval(6, 9), a}},               // canonical
      {{Interval(0, 4), a}, {Interval(5, 9), b}},               // canonical
      {{Interval(5, 9), b}, {Interval(0, 4), a}},               // unsorted
      {{Interval(0, 4), a}, {Interval(5, 9), a}},               // equal adj.
      {{Interval(0, 5), a}, {Interval(5, 9), b}},               // overlap
      {{Interval(0, 9), a}, {Interval(3, 4), b}},               // nested
      {{Interval(0, 4), a}, {Interval(6, 9), Value::String("x")}},  // types
      {{Interval(0, 4), a}, {Interval(6, 9), Value()}},         // absent
      {{Interval(4, 0), Value()}, {Interval(6, 9), a}},         // invalid iv
      {{Interval(0, 4), a}, {Interval(9, 6), a}, {Interval(5, 5), a}},
      {{Interval(kTimeMax - 1, kTimeMax), a}},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    ExpectSameAsReference(cases[i]);
  }
}

TEST(TemporalValueTest, FromSegmentsMatchesReferenceOnRandomInput) {
  Rng rng(20261019);
  for (int iter = 0; iter < 4000; ++iter) {
    std::vector<Segment> in;
    const bool sorted = rng.Chance(0.5);  // mostly canonical-shaped input
    TimePoint t = rng.Uniform(-3, 3);
    const int n = static_cast<int>(rng.Uniform(0, 6));
    for (int k = 0; k < n; ++k) {
      const TimePoint b = sorted ? t : rng.Uniform(-3, 30);
      const TimePoint e = b + rng.Uniform(-1, 5);  // sometimes invalid
      Value v = Value::Int(rng.Uniform(0, 2));     // equal neighbours likely
      if (rng.Chance(0.04)) v = Value::String("s");
      if (rng.Chance(0.03)) v = Value();
      in.push_back(Segment{Interval(b, e), std::move(v)});
      t = std::max(b, e) + rng.Uniform(sorted ? 1 : 0, 3);  // gap or touch
    }
    SCOPED_TRACE("iteration " + std::to_string(iter));
    ExpectSameAsReference(in);
    if (HasFailure()) return;
  }
}

TEST(TemporalValueTest, ValueAtBoundaries) {
  auto f = *TV({{Interval(2, 5), Value::Int(10)},
                {Interval(8, 8), Value::Int(20)}});
  EXPECT_TRUE(f.ValueAt(1).absent());
  EXPECT_EQ(f.ValueAt(2), Value::Int(10));
  EXPECT_EQ(f.ValueAt(5), Value::Int(10));
  EXPECT_TRUE(f.ValueAt(6).absent());
  EXPECT_EQ(f.ValueAt(8), Value::Int(20));
  EXPECT_TRUE(f.ValueAt(9).absent());
}

TEST(TemporalValueTest, RestrictClipsSegments) {
  auto f = *TV({{Interval(0, 9), Value::Int(1)}});
  TemporalValue g = f.Restrict(
      Lifespan::FromIntervals({Interval(2, 3), Interval(7, 12)}));
  EXPECT_EQ(g.domain().ToString(), "{[2,3],[7,9]}");
  EXPECT_EQ(g.ValueAt(7), Value::Int(1));
  EXPECT_TRUE(g.ValueAt(5).absent());
}

TEST(TemporalValueTest, RestrictToEmptyYieldsEmpty) {
  auto f = *TV({{Interval(0, 9), Value::Int(1)}});
  EXPECT_TRUE(f.Restrict(Lifespan::Empty()).empty());
}

TEST(TemporalValueTest, ConsistencyAndUnion) {
  auto f = *TV({{Interval(0, 5), Value::Int(1)}});
  auto g = *TV({{Interval(3, 9), Value::Int(1)}});
  auto h = *TV({{Interval(3, 9), Value::Int(2)}});
  EXPECT_TRUE(f.ConsistentWith(g));
  EXPECT_FALSE(f.ConsistentWith(h));  // contradiction on [3,5]

  auto u = f.UnionWith(g);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->domain().ToString(), "{[0,9]}");
  EXPECT_EQ(u->segments().size(), 1u);  // same value merges

  EXPECT_FALSE(f.UnionWith(h).ok());
}

TEST(TemporalValueTest, UnionWithDisjointKeepsBoth) {
  auto f = *TV({{Interval(0, 2), Value::Int(1)}});
  auto g = *TV({{Interval(5, 7), Value::Int(9)}});
  auto u = f.UnionWith(g);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->ValueAt(1), Value::Int(1));
  EXPECT_EQ(u->ValueAt(6), Value::Int(9));
  EXPECT_TRUE(u->ValueAt(3).absent());
}

TEST(TemporalValueTest, AgreementWith) {
  auto f = *TV({{Interval(0, 5), Value::Int(1)},
                {Interval(6, 9), Value::Int(2)}});
  auto g = *TV({{Interval(3, 7), Value::Int(1)}});
  // Both defined on [3,7]; equal (value 1) only on [3,5].
  EXPECT_EQ(f.AgreementWith(g).ToString(), "{[3,5]}");
  EXPECT_EQ(g.AgreementWith(f).ToString(), "{[3,5]}");
}

TEST(TemporalValueTest, Image) {
  auto f = *TV({{Interval(0, 2), Value::Int(5)},
                {Interval(4, 6), Value::Int(3)},
                {Interval(8, 9), Value::Int(5)}});
  auto img = f.Image();
  ASSERT_EQ(img.size(), 2u);
  EXPECT_EQ(img[0], Value::Int(3));
  EXPECT_EQ(img[1], Value::Int(5));
}

TEST(TemporalValueTest, TimeImageForTTAttributes) {
  auto f = *TV({{Interval(0, 2), Value::Time(10)},
                {Interval(3, 5), Value::Time(11)},
                {Interval(7, 9), Value::Time(30)}});
  auto img = f.TimeImage();
  ASSERT_TRUE(img.ok());
  EXPECT_EQ(img->ToString(), "{[10,11],[30]}");
}

TEST(TemporalValueTest, TimeImageRejectsNonTime) {
  auto f = *TV({{Interval(0, 2), Value::Int(10)}});
  auto img = f.TimeImage();
  EXPECT_FALSE(img.ok());
  EXPECT_EQ(img.status().code(), StatusCode::kTypeError);
}

TEST(TemporalValueTest, TimesWhere) {
  auto f = *TV({{Interval(0, 3), Value::Int(10)},
                {Interval(4, 7), Value::Int(30)},
                {Interval(8, 9), Value::Int(10)}});
  auto where = f.TimesWhere(CompareOp::kEq, Value::Int(10));
  ASSERT_TRUE(where.ok());
  EXPECT_EQ(where->ToString(), "{[0,3],[8,9]}");
  auto ge = f.TimesWhere(CompareOp::kGe, Value::Int(20));
  ASSERT_TRUE(ge.ok());
  EXPECT_EQ(ge->ToString(), "{[4,7]}");
}

TEST(TemporalValueTest, TimesWhereMatches) {
  auto f = *TV({{Interval(0, 5), Value::Int(1)},
                {Interval(6, 9), Value::Int(5)}});
  auto g = *TV({{Interval(2, 8), Value::Int(3)}});
  auto lt = f.TimesWhereMatches(CompareOp::kLt, g);
  ASSERT_TRUE(lt.ok());
  EXPECT_EQ(lt->ToString(), "{[2,5]}");  // 1 < 3 on the overlap
  auto gt = f.TimesWhereMatches(CompareOp::kGt, g);
  ASSERT_TRUE(gt.ok());
  EXPECT_EQ(gt->ToString(), "{[6,8]}");  // 5 > 3
}

// ---------------------------------------------------------------------------
// Property tests against a reference std::map<TimePoint, Value>.
// ---------------------------------------------------------------------------

class TemporalValuePropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TemporalValue RandomTV(Rng* rng, TimePoint hi = 40) {
  std::vector<Segment> segs;
  TimePoint t = rng->Uniform(0, 5);
  while (t < hi && rng->Chance(0.8)) {
    TimePoint e = t + rng->Uniform(0, 6);
    segs.push_back(Segment{Interval(t, e), Value::Int(rng->Uniform(0, 4))});
    t = e + 1 + rng->Uniform(0, 4);
  }
  return *TemporalValue::FromSegments(std::move(segs));
}

std::map<TimePoint, Value> AsMap(const TemporalValue& f) {
  std::map<TimePoint, Value> m;
  for (const Segment& s : f.segments()) {
    for (TimePoint t = s.interval.begin; t <= s.interval.end; ++t) {
      m[t] = s.value;
    }
  }
  return m;
}

TEST_P(TemporalValuePropertyTest, RestrictMatchesReference) {
  Rng rng(GetParam());
  for (int i = 0; i < 40; ++i) {
    TemporalValue f = RandomTV(&rng);
    Lifespan l = Lifespan::FromIntervals(
        {Interval(rng.Uniform(0, 20), rng.Uniform(20, 45)),
         Interval(rng.Uniform(0, 10), rng.Uniform(10, 15))});
    auto ref = AsMap(f);
    TemporalValue g = f.Restrict(l);
    for (TimePoint t = -2; t < 50; ++t) {
      Value expected =
          l.Contains(t) && ref.count(t) ? ref[t] : Value();
      EXPECT_EQ(g.ValueAt(t), expected) << "t=" << t;
    }
  }
}

TEST_P(TemporalValuePropertyTest, UnionMatchesReferenceWhenConsistent) {
  Rng rng(GetParam() * 13 + 1);
  for (int i = 0; i < 40; ++i) {
    TemporalValue f = RandomTV(&rng);
    TemporalValue g = RandomTV(&rng);
    auto mf = AsMap(f), mg = AsMap(g);
    bool consistent = true;
    for (const auto& [t, v] : mf) {
      if (mg.count(t) && !(mg[t] == v)) {
        consistent = false;
        break;
      }
    }
    EXPECT_EQ(f.ConsistentWith(g), consistent);
    auto u = f.UnionWith(g);
    EXPECT_EQ(u.ok(), consistent);
    if (consistent) {
      for (TimePoint t = 0; t < 50; ++t) {
        Value expected = mf.count(t) ? mf[t] : (mg.count(t) ? mg[t] : Value());
        EXPECT_EQ(u->ValueAt(t), expected);
      }
    }
  }
}

TEST_P(TemporalValuePropertyTest, CanonicalFormInvariant) {
  Rng rng(GetParam() * 29 + 5);
  for (int i = 0; i < 40; ++i) {
    TemporalValue f = RandomTV(&rng);
    const auto& segs = f.segments();
    for (size_t k = 0; k < segs.size(); ++k) {
      EXPECT_TRUE(segs[k].interval.valid());
      if (k > 0) {
        EXPECT_GT(segs[k].interval.begin, segs[k - 1].interval.end);
        if (segs[k - 1].interval.adjacent(segs[k].interval)) {
          EXPECT_NE(segs[k - 1].value, segs[k].value);
        }
      }
    }
    // domain() is consistent with the segments.
    uint64_t n = 0;
    for (const Segment& s : segs) n += s.interval.length();
    EXPECT_EQ(f.domain().Cardinality(), n);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TemporalValuePropertyTest,
                         ::testing::Values(1u, 7u, 23u, 77u, 424242u));

}  // namespace
}  // namespace hrdm
