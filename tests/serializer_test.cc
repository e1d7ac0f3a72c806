// Tests for the binary serializer (the physical level of Figure 9):
// round-trips for every model object and robustness against corruption.

#include "storage/serializer.h"

#include <gtest/gtest.h>

#include "util/random.h"
#include "workload/generators.h"

namespace hrdm::storage {
namespace {

TEST(VarintTest, RoundTripsEdgeValues) {
  const uint64_t cases[] = {0,   1,          127,       128,
                            300, 1ull << 32, UINT64_MAX};
  for (uint64_t v : cases) {
    std::string buf;
    PutVarint(&buf, v);
    Reader r(buf);
    auto back = r.GetVarint();
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(VarintTest, SignedZigzag) {
  const int64_t signed_cases[] = {0, -1, 1, -64, 64, INT64_MIN, INT64_MAX};
  for (int64_t v : signed_cases) {
    std::string buf;
    PutSignedVarint(&buf, v);
    Reader r(buf);
    auto back = r.GetSignedVarint();
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
  }
}

TEST(VarintTest, TruncatedIsCorruption) {
  std::string buf;
  PutVarint(&buf, 1ull << 40);
  buf.resize(buf.size() - 1);
  Reader r(buf);
  auto back = r.GetVarint();
  EXPECT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kCorruption);
}

TEST(VarintTest, EmptyBufferIsCorruption) {
  Reader r("");
  auto back = r.GetVarint();
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kCorruption);
  EXPECT_NE(back.status().message().find("truncated varint"),
            std::string::npos);
  Reader s("");
  EXPECT_FALSE(s.GetSignedVarint().ok());
}

TEST(VarintTest, TenthByteOverflowIsCorruption) {
  // Nine continuation bytes carry 63 bits; the tenth may only add bit 63.
  std::string max(9, '\xff');
  max.push_back('\x01');
  Reader ok(max);
  auto back = ok.GetVarint();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, UINT64_MAX);

  std::string over(9, '\xff');
  over.push_back('\x02');
  Reader r(over);
  auto bad = r.GetVarint();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
  EXPECT_NE(bad.status().message().find("varint overflow"),
            std::string::npos);
}

TEST(VarintTest, OverlongEncodingIsAccepted) {
  // LEB128 allows padding with zero continuation groups; the reader takes
  // `0x80 0x00` as 0 and consumes both bytes.
  Reader r(std::string_view("\x80\x00\x05", 3));
  auto zero = r.GetVarint();
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(*zero, 0u);
  EXPECT_EQ(r.remaining(), 1u);
  auto five = r.GetVarint();
  ASSERT_TRUE(five.ok());
  EXPECT_EQ(*five, 5u);
  EXPECT_TRUE(r.AtEnd());
}

/// A bytewise LEB128 reader kept independent of Reader: the reference the
/// differential test below holds GetVarint to. Returns the decoded value,
/// or an error message, and advances `*pos` past the bytes consumed.
Result<uint64_t> ReferenceVarint(std::string_view data, size_t* pos) {
  uint64_t v = 0;
  for (int shift = 0;; shift += 7) {
    if (*pos >= data.size()) return Status::Corruption("truncated varint");
    const uint8_t byte = static_cast<uint8_t>(data[(*pos)++]);
    if (shift >= 63 && byte > 1) return Status::Corruption("varint overflow");
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
  }
}

TEST(VarintTest, MatchesBytewiseReferenceOnRandomBytes) {
  Rng rng(20261020);
  for (int iter = 0; iter < 20000; ++iter) {
    // Short strings, mostly continuation bytes, so truncation, overflow,
    // overlong and one-byte encodings all occur often.
    std::string bytes(static_cast<size_t>(rng.Uniform(0, 14)), '\0');
    for (char& c : bytes) {
      const int64_t low = rng.Uniform(0, 0x7f);
      c = static_cast<char>(rng.Chance(0.7) ? (low | 0x80) : low);
    }
    Reader r(bytes);
    size_t ref_pos = 0;
    // Read varints until the first error, comparing every step.
    while (true) {
      SCOPED_TRACE("iteration " + std::to_string(iter) + ", offset " +
                   std::to_string(ref_pos));
      auto want = ReferenceVarint(bytes, &ref_pos);
      auto got = r.GetVarint();
      ASSERT_EQ(got.ok(), want.ok());
      if (!want.ok()) {
        EXPECT_EQ(got.status().ToString(), want.status().ToString());
        break;
      }
      EXPECT_EQ(*got, *want);
      ASSERT_EQ(r.remaining(), bytes.size() - ref_pos);
      if (r.AtEnd()) break;
    }
  }
}

TEST(StringTest, RoundTripAndTruncation) {
  std::string buf;
  PutString(&buf, "hello \0 world");
  Reader r(buf);
  auto back = r.GetString();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, std::string("hello \0 world"));

  buf.resize(buf.size() - 2);
  Reader r2(buf);
  EXPECT_FALSE(r2.GetString().ok());
}

TEST(LifespanCodecTest, RoundTrip) {
  for (const Lifespan& l :
       {Lifespan::Empty(), Span(0, 10), Lifespan::Point(-5),
        Lifespan::FromIntervals({Interval(-10, -2), Interval(5, 9),
                                 Interval(100, 200)})}) {
    std::string buf;
    EncodeLifespan(&buf, l);
    Reader r(buf);
    auto back = DecodeLifespan(&r);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, l);
  }
}

TEST(ValueCodecTest, RoundTripAllTypes) {
  for (const Value& v :
       {Value(), Value::Bool(true), Value::Bool(false), Value::Int(-123456),
        Value::Double(3.14159), Value::String(""), Value::String("codd"),
        Value::Time(-7)}) {
    std::string buf;
    EncodeValue(&buf, v);
    Reader r(buf);
    auto back = DecodeValue(&r);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
  }
}

TEST(TemporalValueCodecTest, RoundTrip) {
  auto tv = *TemporalValue::FromSegments(
      {{Interval(0, 4), Value::String("a")},
       {Interval(8, 8), Value::String("b")},
       {Interval(20, 30), Value::String("a")}});
  std::string buf;
  EncodeTemporalValue(&buf, tv);
  Reader r(buf);
  auto back = DecodeTemporalValue(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, tv);
}

TEST(SchemeCodecTest, RoundTrip) {
  auto scheme = *RelationScheme::Make(
      "stocks",
      {{"Ticker", DomainType::kString, Span(0, 99),
        InterpolationKind::kDiscrete},
       {"Price", DomainType::kDouble, Span(0, 99),
        InterpolationKind::kLinear},
       {"Volume", DomainType::kInt,
        Lifespan::FromIntervals({Interval(0, 49), Interval(70, 99)}),
        InterpolationKind::kStepwise}},
      {"Ticker"});
  std::string buf;
  EncodeScheme(&buf, *scheme);
  Reader r(buf);
  auto back = DecodeScheme(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE((*back)->SameStructure(*scheme));
  EXPECT_EQ((*back)->name(), "stocks");
}

TEST(RelationCodecTest, RoundTripWorkloads) {
  Rng rng(5);
  auto emp = *workload::MakePersonnel(&rng, workload::PersonnelConfig{
                                                .num_employees = 30});
  std::string buf;
  EncodeRelation(&buf, emp);
  Reader r(buf);
  auto back = DecodeRelation(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->EqualsAsSet(emp));
  EXPECT_TRUE(r.AtEnd());
}

TEST(RelationCodecTest, TruncationNeverCrashes) {
  // Fuzz-lite: decoding any prefix of a valid encoding must return an
  // error (or a shorter valid object), never crash or hang.
  Rng rng(6);
  auto emp = *workload::MakePersonnel(
      &rng, workload::PersonnelConfig{.num_employees = 8});
  std::string buf;
  EncodeRelation(&buf, emp);
  for (size_t cut = 0; cut < buf.size(); cut += 7) {
    Reader r(std::string_view(buf).substr(0, cut));
    auto result = DecodeRelation(&r);
    // Either an explicit error, or (rarely) a structurally valid shorter
    // object. Both are acceptable; crashing is not.
    (void)result;
  }
}

TEST(RelationCodecTest, BitFlipsNeverCrash) {
  Rng rng(8);
  auto emp = *workload::MakePersonnel(
      &rng, workload::PersonnelConfig{.num_employees = 5});
  std::string buf;
  EncodeRelation(&buf, emp);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = buf;
    const size_t pos = rng.Index(mutated.size());
    mutated[pos] = static_cast<char>(rng.Uniform(0, 255));
    Reader r(mutated);
    auto result = DecodeRelation(&r);
    (void)result;  // must not crash; error is fine
  }
}

TEST(FileIoTest, WriteAndReadBack) {
  const std::string path = "/tmp/hrdm_serializer_test.bin";
  const std::string payload = "binary\0data\xff";
  ASSERT_TRUE(WriteFile(path, payload).ok());
  auto back = ReadFileToString(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, payload);
  std::remove(path.c_str());
  EXPECT_FALSE(ReadFileToString(path).ok());
}

}  // namespace
}  // namespace hrdm::storage
