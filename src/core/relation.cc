#include "core/relation.h"

#include <algorithm>

namespace hrdm {

namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

// The first stored value of `v`: `ConstantValue()` without the copy. Key
// functions are constant, so this is the key value (absent when empty).
const Value& FirstValue(const TemporalValue& v) {
  static const Value kAbsent;
  return v.segments().empty() ? kAbsent : v.segments().front().value;
}

}  // namespace

uint64_t Relation::IndexHash(const Tuple& t) const {
  if (scheme_->key().empty()) return t.Hash();
  // Tuple::KeyHash's fold, taken at this relation's key positions: a tuple
  // of a union-compatible scheme (FindStructural's argument) may key other
  // attributes, or none.
  uint64_t h = kFnvOffset;
  for (size_t i : scheme_->key_indices()) {
    h = (h ^ FirstValue(t.value(i)).Hash()) * kFnvPrime;
  }
  return h;
}

bool Relation::SameKey(const Tuple& stored, const Tuple& t) const {
  for (size_t i : scheme_->key_indices()) {
    if (FirstValue(stored.value(i)) != FirstValue(t.value(i))) return false;
  }
  return true;
}

Status Relation::Insert(TuplePtr t) {
  if (!t) return Status::InvalidArgument("cannot insert null tuple");
  if (t->scheme() != scheme_ && !t->scheme()->SameStructure(*scheme_)) {
    return Status::IncompatibleSchemes(
        "tuple scheme " + t->scheme()->name() +
        " does not match relation scheme " + scheme_->name());
  }
  if (t->lifespan().empty()) {
    return Status::InvalidArgument("cannot insert tuple with empty lifespan");
  }
  const bool keyed = !scheme_->key().empty();
  const uint64_t h = IndexHash(*t);
  for (auto [it, end] = index_.equal_range(h); it != end; ++it) {
    const Tuple& other = *tuples_[it->second];
    if (keyed && SameKey(other, *t)) {
      std::string key_str;
      for (const Value& v : t->KeyValues()) {
        if (!key_str.empty()) key_str += ",";
        key_str += v.ToString();
      }
      return Status::ConstraintViolation(
          "temporal key violation in " + scheme_->name() + ": key (" +
          key_str + ") already present");
    }
    if (!keyed && other == *t) {
      return Status::ConstraintViolation(
          "duplicate tuple in keyless relation " + scheme_->name());
    }
  }
  index_.emplace(h, tuples_.size());
  tuples_.push_back(std::move(t));
  return Status::OK();
}

Status Relation::InsertOrDrop(TuplePtr t) {
  if (!t) return Status::InvalidArgument("cannot insert null tuple");
  if (t->lifespan().empty()) return Status::OK();
  return Insert(std::move(t));
}

Status Relation::InsertDedup(TuplePtr t) {
  if (!t) return Status::InvalidArgument("cannot insert null tuple");
  if (t->lifespan().empty()) return Status::OK();
  if (t->scheme() != scheme_ && !t->scheme()->SameStructure(*scheme_)) {
    return Status::IncompatibleSchemes(
        "tuple scheme " + t->scheme()->name() +
        " does not match relation scheme " + scheme_->name());
  }
  const uint64_t h = IndexHash(*t);
  for (auto [it, end] = index_.equal_range(h); it != end; ++it) {
    if (*tuples_[it->second] == *t) return Status::OK();
  }
  index_.emplace(h, tuples_.size());
  tuples_.push_back(std::move(t));
  return Status::OK();
}

Status Relation::ReplaceAt(size_t idx, TuplePtr t) {
  if (!t) return Status::InvalidArgument("ReplaceAt: null tuple");
  if (idx >= tuples_.size()) {
    return Status::InvalidArgument("ReplaceAt: index out of range");
  }
  if (t->scheme() != scheme_ && !t->scheme()->SameStructure(*scheme_)) {
    return Status::IncompatibleSchemes("ReplaceAt: scheme mismatch");
  }
  if (t->lifespan().empty()) {
    return Status::InvalidArgument("ReplaceAt: empty lifespan (use EraseAt)");
  }
  const uint64_t h = IndexHash(*t);
  if (!scheme_->key().empty()) {
    for (auto [it, end] = index_.equal_range(h); it != end; ++it) {
      if (it->second != idx && SameKey(*tuples_[it->second], *t)) {
        return Status::ConstraintViolation(
            "ReplaceAt: key already used by another tuple");
      }
    }
  }
  auto it = index_.find(IndexHash(*tuples_[idx]));
  while (it->second != idx) ++it;  // equal hashes are adjacent
  index_.erase(it);
  index_.emplace(h, idx);
  tuples_[idx] = std::move(t);
  return Status::OK();
}

Status Relation::EraseAt(size_t idx) {
  if (idx >= tuples_.size()) {
    return Status::InvalidArgument("EraseAt: index out of range");
  }
  tuples_.erase(tuples_.begin() + static_cast<ptrdiff_t>(idx));
  // Rebuild the index (indices after idx all shift).
  index_.clear();
  for (size_t i = 0; i < tuples_.size(); ++i) {
    index_.emplace(IndexHash(*tuples_[i]), i);
  }
  return Status::OK();
}

uint64_t Relation::KeyHashOf(const std::vector<Value>& key) const {
  uint64_t h = kFnvOffset;
  for (const Value& v : key) h = (h ^ v.Hash()) * kFnvPrime;
  return h;
}

bool Relation::KeyIs(const Tuple& stored,
                     const std::vector<Value>& key) const {
  const std::vector<size_t>& key_indices = scheme_->key_indices();
  for (size_t j = 0; j < key.size(); ++j) {
    if (FirstValue(stored.value(key_indices[j])) != key[j]) return false;
  }
  return true;
}

std::vector<size_t> Relation::FindAllByKey(
    const std::vector<Value>& key) const {
  std::vector<size_t> out;
  if (scheme_->key().empty() || key.size() != scheme_->key().size()) {
    return out;
  }
  for (auto [it, end] = index_.equal_range(KeyHashOf(key)); it != end; ++it) {
    if (KeyIs(*tuples_[it->second], key)) out.push_back(it->second);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<size_t> Relation::FindByKey(
    const std::vector<Value>& key) const {
  const std::vector<size_t> all = FindAllByKey(key);
  if (all.empty()) return std::nullopt;
  return all.front();
}

std::optional<size_t> Relation::FindStructural(const Tuple& t) const {
  // A tuple of another arity equals no member (and has no value at every
  // key position).
  if (t.arity() != scheme_->arity()) return std::nullopt;
  for (auto [it, end] = index_.equal_range(IndexHash(t)); it != end; ++it) {
    if (*tuples_[it->second] == t) return it->second;
  }
  return std::nullopt;
}

Lifespan Relation::LS() const {
  Lifespan ls;
  for (const TuplePtr& t : tuples_) {
    ls = ls.Union(t->lifespan());
  }
  return ls;
}

bool Relation::EqualsAsSet(const Relation& other) const {
  if (!scheme_->SameStructure(*other.scheme_)) return false;
  if (size() != other.size()) return false;
  for (const TuplePtr& t : tuples_) {
    if (!other.FindStructural(*t).has_value()) return false;
  }
  // Sizes equal and this ⊆ other; if `this` held duplicates they would have
  // been rejected on insert, so the sets are equal.
  return true;
}

size_t Relation::ApproxBytes() const {
  size_t bytes = 0;
  for (const TuplePtr& tp : tuples_) {
    const Tuple& t = *tp;
    bytes += t.lifespan().IntervalCount() * sizeof(Interval);
    for (size_t i = 0; i < t.arity(); ++i) {
      for (const Segment& s : t.value(i).segments()) {
        bytes += sizeof(Interval);
        bytes += 8;  // value payload estimate
        if (s.value.IsType(DomainType::kString)) {
          bytes += s.value.AsString().size();
        }
      }
    }
  }
  return bytes;
}

std::string Relation::ToString() const {
  std::string out = scheme_->ToString();
  out.push_back('\n');
  // Render tuples sorted by key (then hash) for deterministic output.
  std::vector<size_t> order(tuples_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    const auto ka = tuples_[a]->KeyValues();
    const auto kb = tuples_[b]->KeyValues();
    if (ka != kb) return ka < kb;
    return tuples_[a]->Hash() < tuples_[b]->Hash();
  });
  for (size_t i : order) {
    out += "  ";
    out += tuples_[i]->ToString();
    out.push_back('\n');
  }
  return out;
}

}  // namespace hrdm
