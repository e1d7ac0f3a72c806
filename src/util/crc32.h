#ifndef HRDM_UTIL_CRC32_H_
#define HRDM_UTIL_CRC32_H_

/// \file crc32.h
/// \brief CRC-32C (Castagnoli) checksums for on-disk frame integrity.
///
/// The WAL (storage/wal.h) and the durable snapshot envelope
/// (storage/snapshot.h) frame every payload with a CRC so that torn writes
/// and bit rot are *detected* — recovery then keeps the longest valid
/// prefix instead of replaying garbage. CRC-32C is the polynomial used by
/// most storage engines (RocksDB, LevelDB, Kafka, iSCSI); this is the
/// portable table-driven slice-by-8 software implementation (eight bytes
/// per step), no hardware intrinsics.

#include <cstdint>
#include <string_view>

namespace hrdm::util {

/// \brief CRC-32C of `data` continued from `seed` (pass the previous
/// return value to checksum a logical payload in chunks). The default seed
/// starts a fresh checksum.
uint32_t Crc32c(std::string_view data, uint32_t seed = 0);

}  // namespace hrdm::util

#endif  // HRDM_UTIL_CRC32_H_
