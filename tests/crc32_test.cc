// CRC-32C (util/crc32.h): published known answers, and a differential
// check of the slice-by-8 implementation against the plain bytewise
// algorithm kept here as the reference, so checksums written by either
// form verify under the other.

#include "util/crc32.h"

#include <gtest/gtest.h>

#include <array>
#include <string>

namespace hrdm::util {
namespace {

// The textbook reflected CRC-32C, one byte (eight bit steps) at a time.
uint32_t BytewiseCrc32c(std::string_view data, uint32_t seed = 0) {
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (const char c : data) {
    crc ^= static_cast<uint8_t>(c);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32cTest, KnownAnswers) {
  EXPECT_EQ(Crc32c(""), 0u);
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  // RFC 3720 (iSCSI), appendix B.4.
  EXPECT_EQ(Crc32c(std::string(32, '\x00')), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(std::string(32, '\xFF')), 0x62A8AB43u);
  std::string ascending;
  for (int i = 0; i < 32; ++i) ascending.push_back(static_cast<char>(i));
  EXPECT_EQ(Crc32c(ascending), 0x46DD794Eu);
  EXPECT_EQ(BytewiseCrc32c(ascending), 0x46DD794Eu);
}

TEST(Crc32cTest, MatchesBytewiseAtEveryLengthAndAlignment) {
  // Pseudo-random bytes with every value represented.
  std::array<char, 100 + 8> buf{};
  uint32_t x = 0x12345678u;
  for (char& c : buf) {
    x = x * 1664525u + 1013904223u;
    c = static_cast<char>(x >> 24);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 100; ++len) {
      const std::string_view data(buf.data() + offset, len);
      EXPECT_EQ(Crc32c(data), BytewiseCrc32c(data))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32cTest, ChainedSeedsMatchOneShot) {
  std::string data;
  for (int i = 0; i < 97; ++i) data.push_back(static_cast<char>(i * 37 + 11));
  const uint32_t whole = BytewiseCrc32c(data);
  ASSERT_EQ(Crc32c(data), whole);
  for (size_t cut = 0; cut <= data.size(); ++cut) {
    const std::string_view head(data.data(), cut);
    const std::string_view tail(data.data() + cut, data.size() - cut);
    EXPECT_EQ(Crc32c(tail, Crc32c(head)), whole) << "cut " << cut;
    // Chains mixing the two forms agree too: a seed from one continues in
    // the other.
    EXPECT_EQ(Crc32c(tail, BytewiseCrc32c(head)), whole) << "cut " << cut;
    EXPECT_EQ(BytewiseCrc32c(tail, Crc32c(head)), whole) << "cut " << cut;
  }
}

}  // namespace
}  // namespace hrdm::util
