#include "storage/snapshot.h"

#include <cstdio>
#include <cstring>

#include "storage/serializer.h"
#include "util/crc32.h"
#include "util/file.h"

namespace hrdm::storage {

namespace {

void PutFixed32(std::string* out, uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xFF);
  buf[1] = static_cast<char>((v >> 8) & 0xFF);
  buf[2] = static_cast<char>((v >> 16) & 0xFF);
  buf[3] = static_cast<char>((v >> 24) & 0xFF);
  out->append(buf, 4);
}

uint32_t GetFixed32(const char* p) {
  return static_cast<uint32_t>(static_cast<uint8_t>(p[0])) |
         static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[3])) << 24;
}

}  // namespace

std::string SnapshotFileName(uint64_t generation) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "snapshot-%010llu.hrdm",
                static_cast<unsigned long long>(generation));
  return buf;
}

std::string WalFileName(uint64_t generation) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "wal-%010llu.log",
                static_cast<unsigned long long>(generation));
  return buf;
}

Result<uint64_t> ParseGeneration(std::string_view file_name,
                                 std::string_view prefix,
                                 std::string_view suffix) {
  if (file_name.size() <= prefix.size() + suffix.size() ||
      file_name.substr(0, prefix.size()) != prefix ||
      file_name.substr(file_name.size() - suffix.size()) != suffix) {
    return Status::Corruption("not a generation file name: " +
                              std::string(file_name));
  }
  const std::string_view digits = file_name.substr(
      prefix.size(), file_name.size() - prefix.size() - suffix.size());
  uint64_t gen = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') {
      return Status::Corruption("bad generation digits in " +
                                std::string(file_name));
    }
    gen = gen * 10 + static_cast<uint64_t>(c - '0');
  }
  return gen;
}

std::string EncodeSnapshotFile(const Database& db) {
  // Envelope payload: framed db image + index registrations.
  std::string payload;
  {
    const std::string image = db.EncodeSnapshot();
    PutVarint(&payload, image.size());
    payload += image;
  }
  const Catalog& catalog = db.catalog();
  const std::vector<std::string> names = catalog.Names();
  // Count relations that actually carry registrations.
  std::string index_section;
  uint64_t indexed = 0;
  for (const std::string& name : names) {
    const std::optional<IndexSpec> spec = catalog.Indexes(name);
    if (!spec.has_value()) continue;
    ++indexed;
    PutString(&index_section, name);
    PutVarint(&index_section, spec->lifespan ? 1 : 0);
    PutVarint(&index_section, spec->value_attrs.size());
    for (const std::string& attr : spec->value_attrs) {
      PutString(&index_section, attr);
    }
  }
  PutVarint(&payload, indexed);
  payload += index_section;

  std::string out(kSnapshotFileHeader, kSnapshotFileHeaderSize);
  PutFixed32(&out, static_cast<uint32_t>(payload.size()));
  PutFixed32(&out, util::Crc32c(payload));
  out += payload;
  return out;
}

Result<Database> DecodeSnapshotFile(std::string_view data) {
  if (data.size() < kSnapshotFileHeaderSize + 8) {
    return Status::Corruption("snapshot file too short");
  }
  if (std::memcmp(data.data(), kSnapshotFileHeader,
                  kSnapshotFileHeaderSize) != 0) {
    return Status::Corruption("not an HRDM snapshot file (bad magic)");
  }
  const uint32_t len = GetFixed32(data.data() + kSnapshotFileHeaderSize);
  const uint32_t crc = GetFixed32(data.data() + kSnapshotFileHeaderSize + 4);
  const std::string_view payload =
      data.substr(kSnapshotFileHeaderSize + 8);
  if (payload.size() != len) {
    return Status::Corruption("snapshot envelope length mismatch");
  }
  if (util::Crc32c(payload) != crc) {
    return Status::Corruption("snapshot envelope CRC mismatch");
  }
  Reader r(payload);
  HRDM_ASSIGN_OR_RETURN(uint64_t image_len, r.GetVarint());
  // The image is decoded in place: a view into `payload`, not a copy.
  HRDM_ASSIGN_OR_RETURN(std::string_view image, r.GetBytes(image_len));
  HRDM_ASSIGN_OR_RETURN(Database db, Database::DecodeSnapshot(image));
  // Re-issue the index DDL: rebuilds each index from the decoded relations
  // via the same path schema evolution uses.
  HRDM_ASSIGN_OR_RETURN(uint64_t indexed, r.GetVarint());
  if (indexed > r.remaining()) {
    return Status::Corruption("snapshot index count exceeds envelope");
  }
  for (uint64_t i = 0; i < indexed; ++i) {
    HRDM_ASSIGN_OR_RETURN(std::string relation, r.GetString());
    HRDM_ASSIGN_OR_RETURN(uint64_t lifespan, r.GetVarint());
    if (lifespan > 1) return Status::Corruption("bad lifespan index flag");
    if (lifespan == 1) {
      HRDM_RETURN_IF_ERROR(db.CreateLifespanIndex(relation));
    }
    HRDM_ASSIGN_OR_RETURN(uint64_t attrs, r.GetVarint());
    if (attrs > r.remaining()) {
      return Status::Corruption("snapshot index attrs exceed envelope");
    }
    for (uint64_t a = 0; a < attrs; ++a) {
      HRDM_ASSIGN_OR_RETURN(std::string attr, r.GetString());
      HRDM_RETURN_IF_ERROR(db.CreateValueIndex(relation, attr));
    }
  }
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes in snapshot envelope");
  }
  return db;
}

Status WriteSnapshotFile(const std::string& path, const Database& db,
                         bool durable) {
  return util::AtomicWriteFile(path, EncodeSnapshotFile(db), durable);
}

Result<Database> ReadSnapshotFile(const std::string& path) {
  HRDM_ASSIGN_OR_RETURN(std::string data, util::ReadFileToString(path));
  return DecodeSnapshotFile(data);
}

}  // namespace hrdm::storage
