#include "util/crc32.h"

#include <array>

namespace hrdm::util {

namespace {

// Reflected CRC-32C (Castagnoli), polynomial 0x1EDC6F41 (reflected form
// 0x82F63B78), slice-by-8: tables[0] is the bytewise table; tables[k][i] is
// the CRC of byte i followed by k zero bytes, so eight table lookups fold
// eight input bytes at once. Built once at first use.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

Tables BuildTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
    t[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

}  // namespace

uint32_t Crc32c(std::string_view data, uint32_t seed) {
  static const Tables kT = BuildTables();
  const auto* p = reinterpret_cast<const uint8_t*>(data.data());
  size_t n = data.size();
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  // Bytes are assembled explicitly (not loaded as words), so the result
  // does not depend on host endianness or pointer alignment.
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = crc ^ (static_cast<uint32_t>(p[0]) |
                               static_cast<uint32_t>(p[1]) << 8 |
                               static_cast<uint32_t>(p[2]) << 16 |
                               static_cast<uint32_t>(p[3]) << 24);
    crc = kT[7][lo & 0xFFu] ^ kT[6][(lo >> 8) & 0xFFu] ^
          kT[5][(lo >> 16) & 0xFFu] ^ kT[4][lo >> 24] ^ kT[3][p[4]] ^
          kT[2][p[5]] ^ kT[1][p[6]] ^ kT[0][p[7]];
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ kT[0][(crc ^ *p) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace hrdm::util
