#include "storage/index.h"

#include <algorithm>
#include <span>
#include <unordered_set>

#include "algebra/join.h"

namespace hrdm::storage {

// --- LifespanIndex -----------------------------------------------------------

namespace {

constexpr size_t kMinBlockSize = LifespanIndex::kBlockSize / 4;

}  // namespace

TimePoint LifespanIndex::MaxEnd(const std::vector<Entry>& entries) {
  TimePoint m = kTimeMin;
  for (const Entry& e : entries) m = std::max(m, e.end);
  return m;
}

LifespanIndex::Block LifespanIndex::NewBlock(std::span<Entry> entries) {
  // Reserving the full size up front means a write allocates only when it
  // splits a block: growing a block's vector would be a large allocation,
  // which makes glibc consolidate its fast bins on the commit path.
  Block blk;
  blk.entries.reserve(kBlockSize + 1);
  blk.entries.assign(std::make_move_iterator(entries.begin()),
                     std::make_move_iterator(entries.end()));
  blk.max_end = MaxEnd(blk.entries);
  return blk;
}

void LifespanIndex::Add(const TuplePtr& t) {
  for (const Interval& iv : t->lifespan().intervals()) {
    Insert(Entry{iv.begin, iv.end, t});
  }
}

void LifespanIndex::Insert(Entry e) {
  ++entry_count_;
  if (blocks_.empty()) {
    blocks_.push_back(NewBlock(std::span(&e, 1)));
    return;
  }
  // Insert after every entry with an equal or smaller begin: into the last
  // block whose first entry begins at or before e (block 0 if none does).
  const auto next = std::upper_bound(
      blocks_.begin(), blocks_.end(), e.begin,
      [](TimePoint b, const Block& blk) {
        return b < blk.entries.front().begin;
      });
  const size_t bi = static_cast<size_t>(
      std::max<std::ptrdiff_t>(next - blocks_.begin() - 1, 0));
  Block& blk = blocks_[bi];
  auto pos = std::upper_bound(
      blk.entries.begin(), blk.entries.end(), e.begin,
      [](TimePoint b, const Entry& x) { return b < x.begin; });
  blk.max_end = std::max(blk.max_end, e.end);
  blk.entries.insert(pos, std::move(e));
  Rebalance(bi);
}

void LifespanIndex::Remove(const TuplePtr& t) {
  for (const Interval& iv : t->lifespan().intervals()) Erase(iv, t.get());
}

void LifespanIndex::Erase(const Interval& iv, const Tuple* t) {
  // Entries beginning at iv.begin may straddle several blocks; the first
  // candidate block is the first whose last entry begins at or after it.
  size_t bi = static_cast<size_t>(
      std::partition_point(blocks_.begin(), blocks_.end(),
                           [&](const Block& blk) {
                             return blk.entries.back().begin < iv.begin;
                           }) -
      blocks_.begin());
  for (; bi < blocks_.size() && blocks_[bi].entries.front().begin <= iv.begin;
       ++bi) {
    Block& blk = blocks_[bi];
    auto it = std::lower_bound(
        blk.entries.begin(), blk.entries.end(), iv.begin,
        [](const Entry& x, TimePoint b) { return x.begin < b; });
    for (; it != blk.entries.end() && it->begin == iv.begin; ++it) {
      if (it->tuple.get() != t) continue;
      const bool was_max = it->end == blk.max_end;
      blk.entries.erase(it);
      --entry_count_;
      if (was_max) blk.max_end = MaxEnd(blk.entries);
      Rebalance(bi);
      return;
    }
  }
}

void LifespanIndex::Rebalance(size_t bi) {
  auto split = [&](size_t at) {
    std::vector<Entry>& entries = blocks_[at].entries;
    const size_t half = entries.size() / 2;
    Block upper = NewBlock(std::span(entries).subspan(half));
    entries.resize(half);
    blocks_[at].max_end = MaxEnd(entries);
    blocks_.insert(blocks_.begin() + static_cast<std::ptrdiff_t>(at) + 1,
                   std::move(upper));
  };

  const size_t size = blocks_[bi].entries.size();
  if (size > kBlockSize) {
    split(bi);
    return;
  }
  if (size >= kMinBlockSize) return;
  if (blocks_.size() == 1) {
    if (size == 0) blocks_.clear();
    return;
  }
  // Merge into the left block of the pair, then split again if the pair
  // together is oversized.
  const size_t left = bi + 1 < blocks_.size() ? bi : bi - 1;
  Block& l = blocks_[left];
  Block& r = blocks_[left + 1];
  l.entries.insert(l.entries.end(), std::make_move_iterator(r.entries.begin()),
                   std::make_move_iterator(r.entries.end()));
  l.max_end = std::max(l.max_end, r.max_end);
  blocks_.erase(blocks_.begin() + static_cast<std::ptrdiff_t>(left) + 1);
  if (blocks_[left].entries.size() > kBlockSize) split(left);
}

void LifespanIndex::Rebuild(const Relation& rel) {
  std::vector<Entry> entries;
  for (const TuplePtr& t : rel.tuple_ptrs()) {
    for (const Interval& iv : t->lifespan().intervals()) {
      entries.push_back(Entry{iv.begin, iv.end, t});
    }
  }
  std::stable_sort(
      entries.begin(), entries.end(),
      [](const Entry& a, const Entry& b) { return a.begin < b.begin; });
  // Fill blocks to the size a split leaves, so bulk-built and incrementally
  // built indexes have the same shape.
  blocks_.clear();
  entry_count_ = entries.size();
  for (size_t i = 0; i < entries.size(); i += kBlockSize / 2) {
    blocks_.push_back(NewBlock(std::span(entries).subspan(
        i, std::min(kBlockSize / 2, entries.size() - i))));
  }
}

std::vector<TuplePtr> LifespanIndex::Probe(const Lifespan& window) const {
  std::vector<TuplePtr> out;
  // A tuple can hit several times: multiple lifespan intervals, or several
  // window intervals touching one entry. Deduplicate by tuple identity.
  std::unordered_set<const Tuple*> seen;
  for (const Interval& iv : window.intervals()) {
    for (const Block& blk : blocks_) {
      // Blocks are sorted by begin: once one starts after the window, all
      // later ones do.
      if (blk.entries.front().begin > iv.end) break;
      if (blk.max_end < iv.begin) continue;
      for (const Entry& e : blk.entries) {
        if (e.begin > iv.end) break;
        if (e.end >= iv.begin && seen.insert(e.tuple.get()).second) {
          out.push_back(e.tuple);
        }
      }
    }
  }
  return out;
}

// --- ValueIndex --------------------------------------------------------------

std::optional<uint64_t> ValueIndex::BucketOf(const Tuple& t) const {
  // Scheme drift (the attribute column is not where we were built to look)
  // degrades to the varying list, which every probe returns, so the
  // superset contract holds until Rebuild re-points the index.
  if (attr_ >= t.arity()) return std::nullopt;
  const TemporalValue& v = t.value(attr_);
  if (!v.IsConstant()) return std::nullopt;
  return JoinKeyDigest(v.ConstantValue());
}

void ValueIndex::Add(const TuplePtr& t) {
  if (const auto digest = BucketOf(*t)) {
    buckets_[*digest].push_back(t);
    ++constant_count_;
    return;
  }
  if (varying_pos_.size() == varying_.size()) {
    varying_pos_.emplace(t.get(), varying_.size());
  }
  varying_.push_back(t);
}

void ValueIndex::Remove(const TuplePtr& t) {
  if (const auto digest = BucketOf(*t)) {
    auto it = buckets_.find(*digest);
    if (it == buckets_.end()) return;
    const size_t before = it->second.size();
    std::erase(it->second, t);
    constant_count_ -= before - it->second.size();
    if (it->second.empty()) buckets_.erase(it);
    return;
  }
  if (varying_pos_.size() != varying_.size()) {
    varying_pos_.reserve(varying_.size());
    for (size_t i = 0; i < varying_.size(); ++i) {
      varying_pos_.emplace(varying_[i].get(), i);
    }
  }
  auto it = varying_pos_.find(t.get());
  if (it == varying_pos_.end()) return;
  const size_t pos = it->second;
  varying_pos_.erase(it);
  if (pos + 1 != varying_.size()) {
    varying_[pos] = std::move(varying_.back());
    varying_pos_[varying_[pos].get()] = pos;
  }
  varying_.pop_back();
}

void ValueIndex::Rebuild(const Relation& rel) {
  buckets_.clear();
  varying_.clear();
  varying_pos_.clear();
  constant_count_ = 0;
  for (const TuplePtr& t : rel.tuple_ptrs()) {
    if (const auto digest = BucketOf(*t)) {
      buckets_[*digest].push_back(t);
      ++constant_count_;
    } else {
      varying_.push_back(t);  // positions are mapped on first removal
    }
  }
}

std::vector<TuplePtr> ValueIndex::Probe(const Value& key) const {
  std::vector<TuplePtr> out;
  auto it = buckets_.find(JoinKeyDigest(key));
  if (it != buckets_.end()) {
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  out.insert(out.end(), varying_.begin(), varying_.end());
  return out;
}

// --- RelationIndexes ---------------------------------------------------------

void RelationIndexes::EnableLifespan(const Relation& rel) {
  lifespan_.emplace();
  lifespan_->Rebuild(rel);
}

void RelationIndexes::EnableValue(const Relation& rel, std::string attr,
                                  size_t attr_index) {
  for (auto& [name, index] : values_) {
    if (name == attr) {
      index.set_attr_index(attr_index);
      index.Rebuild(rel);
      return;
    }
  }
  values_.emplace_back(std::move(attr), ValueIndex(attr_index));
  values_.back().second.Rebuild(rel);
}

const ValueIndex* RelationIndexes::value(std::string_view attr) const {
  for (const auto& [name, index] : values_) {
    if (name == attr) return &index;
  }
  return nullptr;
}

std::vector<std::string> RelationIndexes::value_attrs() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [name, index] : values_) out.push_back(name);
  return out;
}

void RelationIndexes::OnInsert(const TuplePtr& t) {
  if (lifespan_) lifespan_->Add(t);
  for (auto& [name, index] : values_) index.Add(t);
}

void RelationIndexes::OnRemove(const TuplePtr& t) {
  if (lifespan_) lifespan_->Remove(t);
  for (auto& [name, index] : values_) index.Remove(t);
}

void RelationIndexes::OnReplace(const TuplePtr& old_tuple,
                                const TuplePtr& new_tuple) {
  OnRemove(old_tuple);
  OnInsert(new_tuple);
}

Status RelationIndexes::Rebuild(const Relation& rel) {
  if (lifespan_) lifespan_->Rebuild(rel);
  for (auto& [name, index] : values_) {
    HRDM_ASSIGN_OR_RETURN(size_t idx, rel.scheme()->RequireIndex(name));
    index.set_attr_index(idx);
    index.Rebuild(rel);
  }
  return Status::OK();
}

}  // namespace hrdm::storage
