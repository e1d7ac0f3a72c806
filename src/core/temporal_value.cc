#include "core/temporal_value.h"

#include <algorithm>

#include "util/format.h"

namespace hrdm {

namespace {

constexpr uint64_t kFnvPrime = 1099511628211ULL;

}  // namespace

void TemporalValue::Reindex() {
  // Segment intervals are a class invariant: valid, begin-sorted, disjoint
  // (FromSegments establishes it, Constant/Restrict preserve it) — so the
  // domain needs only the linear adjacent-merge pass, not a full sort.
  std::vector<Interval> ivs;
  ivs.reserve(segments_.size());
  for (const Segment& s : segments_) ivs.push_back(s.interval);
  domain_ = Lifespan::FromSortedDisjoint(std::move(ivs));
  type_ = segments_.empty() ? std::nullopt
                            : std::optional<DomainType>(
                                  segments_.front().value.type());
}

Result<TemporalValue> TemporalValue::Constant(const Lifespan& domain,
                                              Value value) {
  if (value.absent()) {
    return Status::InvalidArgument("constant temporal value must be present");
  }
  std::vector<Segment> segs;
  segs.reserve(domain.IntervalCount());
  for (const Interval& iv : domain.intervals()) {
    segs.push_back(Segment{iv, value});
  }
  TemporalValue tv;
  tv.segments_ = std::move(segs);
  tv.Reindex();
  return tv;
}

Result<TemporalValue> TemporalValue::FromSegments(
    std::vector<Segment> segments) {
  // Input that is already canonical (what the serializer writes: valid,
  // present, one type, begin-sorted and disjoint, equal neighbours not
  // adjacent) is adopted as is; anything else takes the sort-and-merge path
  // below, which would return it unchanged.
  bool canonical = true;
  for (size_t i = 0; i < segments.size() && canonical; ++i) {
    const Segment& s = segments[i];
    canonical = s.interval.valid() && !s.value.absent();
    if (canonical && i > 0) {
      const Segment& prev = segments[i - 1];
      canonical = s.value.type() == prev.value.type() &&
                  s.interval.begin > prev.interval.end &&
                  !(prev.interval.adjacent(s.interval) && prev.value == s.value);
    }
  }
  if (canonical) {
    TemporalValue tv;
    tv.segments_ = std::move(segments);
    tv.Reindex();
    return tv;
  }
  // Drop empty intervals, validate values.
  std::vector<Segment> segs;
  segs.reserve(segments.size());
  for (Segment& s : segments) {
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
  // Validate type homogeneity and disjointness; merge equal adjacents.
  std::vector<Segment> out;
  out.reserve(segs.size());
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
  TemporalValue tv;
  tv.segments_ = std::move(out);
  tv.Reindex();
  return tv;
}

bool TemporalValue::IsConstant() const {
  for (size_t i = 1; i < segments_.size(); ++i) {
    if (segments_[i].value != segments_[0].value) return false;
  }
  return true;
}

Value TemporalValue::ValueAt(TimePoint t) const {
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), t,
      [](TimePoint v, const Segment& s) { return v < s.interval.begin; });
  if (it == segments_.begin()) return Value();
  const Segment& s = *std::prev(it);
  return s.interval.contains(t) ? s.value : Value();
}

TemporalValue TemporalValue::Restrict(const Lifespan& to) const {
  // Full cover: restriction is the identity, so skip the sweep (and its
  // two allocations) entirely. ContainsAll is a linear allocation-free
  // merge, far cheaper than rebuilding the segment list.
  if (to.ContainsAll(domain_)) return *this;
  std::vector<Segment> out;
  const auto& ivs = to.intervals();
  size_t j = 0;
  for (const Segment& s : segments_) {
    while (j < ivs.size() && ivs[j].end < s.interval.begin) ++j;
    for (size_t k = j; k < ivs.size() && ivs[k].begin <= s.interval.end; ++k) {
      Interval x = s.interval.intersect(ivs[k]);
      if (x.valid()) out.push_back(Segment{x, s.value});
    }
  }
  TemporalValue tv;
  // Output of the sweep is sorted and disjoint; equal-adjacent merging can
  // only be needed if the restriction re-joined split segments, which it
  // cannot (restriction only removes chronons). But two originally
  // non-adjacent equal-valued segments may become adjacent after removal of
  // the gap? No: removing chronons cannot create adjacency between
  // *remaining* chronons. Canonical already.
  tv.segments_ = std::move(out);
  tv.Reindex();
  return tv;
}

bool TemporalValue::ConsistentWith(const TemporalValue& other) const {
  size_t i = 0, j = 0;
  while (i < segments_.size() && j < other.segments_.size()) {
    const Segment& a = segments_[i];
    const Segment& b = other.segments_[j];
    if (a.interval.overlaps(b.interval) && a.value != b.value) return false;
    if (a.interval.end < b.interval.end) {
      ++i;
    } else {
      ++j;
    }
  }
  return true;
}

Lifespan TemporalValue::AgreementWith(const TemporalValue& other) const {
  std::vector<Interval> hits;
  size_t i = 0, j = 0;
  while (i < segments_.size() && j < other.segments_.size()) {
    const Segment& a = segments_[i];
    const Segment& b = other.segments_[j];
    Interval x = a.interval.intersect(b.interval);
    if (x.valid() && a.value == b.value) hits.push_back(x);
    if (a.interval.end < b.interval.end) {
      ++i;
    } else {
      ++j;
    }
  }
  return Lifespan::FromIntervals(std::move(hits));
}

Result<TemporalValue> TemporalValue::UnionWith(
    const TemporalValue& other) const {
  if (empty()) return other;
  if (other.empty()) return *this;
  if (type_ != other.type_) {
    return Status::TypeError("cannot union temporal values of different types");
  }
  if (!ConsistentWith(other)) {
    return Status::ConstraintViolation(
        "temporal values contradict on their common domain");
  }
  // Merge: take this's segments plus other's restricted to the complement.
  const Lifespan extra = other.domain().Difference(domain_);
  TemporalValue rest = other.Restrict(extra);
  std::vector<Segment> merged = segments_;
  merged.insert(merged.end(), rest.segments_.begin(), rest.segments_.end());
  return FromSegments(std::move(merged));
}

std::vector<Value> TemporalValue::Image() const {
  std::vector<Value> vals;
  vals.reserve(segments_.size());
  for (const Segment& s : segments_) vals.push_back(s.value);
  std::sort(vals.begin(), vals.end());
  vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
  return vals;
}

Result<Lifespan> TemporalValue::TimeImage() const {
  if (empty()) return Lifespan::Empty();
  if (*type_ != DomainType::kTime) {
    return Status::TypeError(
        "TimeImage requires a time-valued attribute (domain in TT)");
  }
  std::vector<TimePoint> pts;
  pts.reserve(segments_.size());
  for (const Segment& s : segments_) pts.push_back(s.value.AsTime());
  return Lifespan::FromPoints(std::move(pts));
}

Result<Lifespan> TemporalValue::TimesWhere(CompareOp op,
                                           const Value& rhs) const {
  std::vector<Interval> hits;
  for (const Segment& s : segments_) {
    HRDM_ASSIGN_OR_RETURN(bool match, Compare(s.value, op, rhs));
    if (match) hits.push_back(s.interval);
  }
  return Lifespan::FromIntervals(std::move(hits));
}

Result<Lifespan> TemporalValue::TimesWhereMatches(
    CompareOp op, const TemporalValue& other) const {
  std::vector<Interval> hits;
  size_t i = 0, j = 0;
  while (i < segments_.size() && j < other.segments_.size()) {
    const Segment& a = segments_[i];
    const Segment& b = other.segments_[j];
    Interval x = a.interval.intersect(b.interval);
    if (x.valid()) {
      HRDM_ASSIGN_OR_RETURN(bool match, Compare(a.value, op, b.value));
      if (match) hits.push_back(x);
    }
    if (a.interval.end < b.interval.end) {
      ++i;
    } else {
      ++j;
    }
  }
  return Lifespan::FromIntervals(std::move(hits));
}

uint64_t TemporalValue::Hash() const {
  uint64_t h = 14695981039346656037ULL;
  for (const Segment& s : segments_) {
    h = (h ^ static_cast<uint64_t>(s.interval.begin)) * kFnvPrime;
    h = (h ^ static_cast<uint64_t>(s.interval.end)) * kFnvPrime;
    h = (h ^ s.value.Hash()) * kFnvPrime;
  }
  return h;
}

std::string TemporalValue::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < segments_.size(); ++i) {
    if (i > 0) out += ", ";
    out += segments_[i].interval.ToString();
    out += "->";
    out += segments_[i].value.ToString();
  }
  out.push_back('}');
  return out;
}

}  // namespace hrdm
