// Per-layer metrics of the traced run: span statistics, plus passes over
// the recovered engine's own data and files that time single layers
// outside the operation loop.

#include <cstdio>
#include <fstream>
#include <map>
#include <unordered_map>

#include "bench.h"
#include "query/executor.h"
#include "storage/changelog.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "trace.h"
#include "util/file.h"

namespace hrdm_bench {

namespace q = hrdm::query;
using hrdm::Relation;
using hrdm::Tuple;
using hrdm::storage::Database;

namespace {

constexpr int kRounds = 5;
constexpr int kRecoveryRounds = 3;  // a reopen of the analytic database takes ~1 s
constexpr size_t kKernelTuples = 2000;
constexpr size_t kApplyOps = 300;

/// Keeps timed results observable so the compiler cannot drop the work.
std::atomic<uint64_t> g_sink{0};

double Ms(Clock::time_point t0) { return SecondsBetween(t0, Clock::now()) * 1e3; }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- spans ---------------------------------------------------------------------

void SpanMetrics(Run* run, const std::vector<SpanRecord>& spans,
                 Report* rep) {
  std::unordered_map<uint64_t, double> child_us;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_us[s.parent] += s.us();
  }
  std::map<std::string, Samples> dur;
  std::map<std::string, double> self_sum;
  std::unordered_map<uint64_t, double> drain_by_op, pull_by_op;
  run->Attempt();  // the reconciliation of child spans against parents
  for (const SpanRecord& s : spans) {
    if (s.op == 0) continue;  // untimed helper queries outside any operation
    const double children = child_us.count(s.id) ? child_us[s.id] : 0;
    if (children > s.us()) {
      run->Fail(std::string("child spans exceed their parent ") + s.name);
    }
    dur[s.name].Add(s.us());
    self_sum[s.name] += s.us() - children;
    if (std::string(s.name) == "query.drain") drain_by_op[s.op] = s.us();
    if (std::string(s.name) == "query.pull") pull_by_op[s.op] = s.us();
  }
  const double op_sum = dur["op.query"].Sum();
  for (const char* layer : {"parse", "optimize", "lower"}) {
    const std::string name = std::string("query.") + layer;
    rep->Add(name + "_us", dur[name].Median(), "us", dur[name].size());
    rep->Add(name + "_share", Ratio(self_sum[name], op_sum), "fraction",
             dur[name].size());
  }
  rep->Add("query.drain_us", dur["query.drain"].Median(), "us",
           dur["query.drain"].size());
  rep->Add("query.pull_us", dur["query.pull"].Median(), "us",
           dur["query.pull"].size());
  double drained = 0, pulled = 0;
  for (const auto& [op, us] : pull_by_op) {
    auto it = drain_by_op.find(op);
    if (it == drain_by_op.end()) continue;
    drained += it->second;
    pulled += us;
  }
  rep->Add("query.root_dedup_share", Ratio(drained - pulled, drained),
           "fraction", pull_by_op.size());
  rep->Add("session.open_us", dur["session.open"].Median(), "us",
           dur["session.open"].size());
  for (int k = 0; k < kDmlKinds; ++k) {
    const std::string kind = DmlKindName(DmlKind(k));
    const Samples& s = dur["commit." + kind];
    rep->Add("storage.commit_us." + kind, s.Median(), "us", s.size());
  }
}

void WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path) {
  std::ofstream out(path);
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"op\": %llu, \"id\": %llu, "
                  "\"parent\": %llu, \"start_ns\": %lld, "
                  "\"end_ns\": %lld}%s\n",
                  s.name, (unsigned long long)s.op, (unsigned long long)s.id,
                  (unsigned long long)s.parent, (long long)s.start_ns,
                  (long long)s.end_ns, i + 1 < spans.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
}

// --- query passes -------------------------------------------------------------------

/// Each of the workload's distinct queries once, with PlanStats read after
/// the drain. Deterministic for a seed except worker_skew.
void PlanPass(Run* run, const LayerInputs& in, Report* rep) {
  const auto pin = in.engine->PinVersion();
  q::PlanStats sum;
  size_t index_returned = 0, parallel = 0, queries = 0;
  Samples skew;
  for (const Query& query : in.plan_queries) {
    q::PlanStats st;
    auto r = RunQuery(query.text, *pin, 0, nullptr, &st);
    run->Attempt();
    if (!r.ok()) {
      run->Fail(query.text + ": " + r.status().ToString());
      continue;
    }
    run->Check(st.tuples_returned == r->size(),
               query.text + ": plan.tuples_returned " +
                   std::to_string(st.tuples_returned) +
                   " != drained size " + std::to_string(r->size()));
    ++queries;
    sum.tuples_scanned += st.tuples_scanned;
    sum.tuples_returned += st.tuples_returned;
    if (st.scans_lifespan_index + st.scans_value_index > 0) {
      sum.index_candidates += st.index_candidates;
      index_returned += st.tuples_returned;
    }
    sum.join_pairs_tested += st.join_pairs_tested;
    sum.peak_buffered += st.peak_buffered;
    sum.batches_emitted += st.batches_emitted;
    sum.batch_tuples += st.batch_tuples;
    sum.arena_bytes += st.arena_bytes;
    parallel += st.parallelism;
    sum.morsels_dispatched += st.morsels_dispatched;
    sum.partitions_merged += st.partitions_merged;
    sum.agg_groups_estimated += st.agg_groups_estimated;
    sum.agg_groups_built += st.agg_groups_built;
    if (!st.worker_tuples.empty()) {
      double total = 0, most = 0;
      for (size_t n : st.worker_tuples) {
        total += double(n);
        most = std::max(most, double(n));
      }
      if (total > 0) {
        skew.Add(most / (total / double(st.worker_tuples.size())));
      }
    }
  }
  const double n = double(std::max<size_t>(1, queries));
  rep->Add("plan.scanned_per_returned",
           Ratio(double(sum.tuples_scanned), double(sum.tuples_returned)),
           "ratio", queries);
  rep->Add("plan.index_candidates_per_returned",
           Ratio(double(sum.index_candidates), double(index_returned)), "ratio",
           queries);
  rep->Add("plan.join_pairs_tested", double(sum.join_pairs_tested) / n,
           "count", queries);
  rep->Add("plan.peak_buffered", double(sum.peak_buffered) / n, "count",
           queries);
  rep->Add("plan.batch_fill_avg", sum.batch_fill_avg(), "count", queries);
  rep->Add("plan.arena_bytes", double(sum.arena_bytes) / n, "B", queries);
  rep->Add("plan.parallelism", double(parallel) / n, "count", queries);
  rep->Add("plan.morsels_dispatched", double(sum.morsels_dispatched) / n,
           "count", queries);
  rep->Add("plan.partitions_merged", double(sum.partitions_merged) / n,
           "count", queries);
  rep->Add("plan.worker_skew", skew.empty() ? 1.0 : skew.Mean(), "ratio",
           skew.size());
  rep->Add("plan.agg_groups_built_per_estimated",
           Ratio(double(sum.agg_groups_built), double(sum.agg_groups_estimated)),
           "ratio", queries);
}

/// Per-class latency on the workload's final database: the first four
/// queries of each class, each run once to warm and three times timed.
void ClassPass(Run* run, const LayerInputs& in, Report* rep) {
  std::vector<Query> all = AnalyticPool(run->seed * 3 + 1, run->spec.db, 40);
  const std::vector<Query> serving =
      ServingPool(run->seed * 3 + 2, run->spec.db, 64);
  all.insert(all.end(), serving.begin(), serving.end());
  const auto pin = in.engine->PinVersion();
  for (int c = 0; c < kQueryClasses; ++c) {
    if (QueryClass(c) == QueryClass::kFull) continue;
    Samples ms;
    size_t taken = 0;
    for (const Query& query : all) {
      if (int(query.cls) != c || taken == 4) continue;
      ++taken;
      for (int rep_i = 0; rep_i < 4; ++rep_i) {
        const auto t0 = Clock::now();
        auto r = RunQuery(query.text, *pin, 0);
        const double elapsed = Ms(t0);
        run->Attempt();
        if (!r.ok()) run->Fail(query.text + ": " + r.status().ToString());
        if (rep_i > 0) ms.Add(elapsed);
      }
    }
    rep->Add(std::string("class.") + QueryClassName(QueryClass(c)) + ".p50_ms",
             ms.Median(), "ms", ms.size());
  }
}

// --- kernel pass --------------------------------------------------------------------

/// Times `body` over `n` items for kRounds rounds; the median per-item ns.
template <typename Prepare, typename Body>
double PerItemNs(size_t n, Prepare prepare, Body body) {
  Samples ns;
  for (int r = 0; r < kRounds; ++r) {
    prepare();
    const auto t0 = Clock::now();
    body();
    ns.Add(SecondsBetween(t0, Clock::now()) * 1e9 / double(std::max<size_t>(1, n)));
  }
  return ns.Median();
}

void KernelPass(Run* run, const LayerInputs& in, Report* rep) {
  const auto pin = in.engine->PinVersion();
  const Relation& emp = **pin->Get("emp");
  const size_t stride = std::max<size_t>(1, emp.size() / kKernelTuples);
  std::vector<const Tuple*> sample;
  for (size_t i = 0; i < emp.size() && sample.size() < kKernelTuples; i += stride) {
    sample.push_back(&emp.tuple(i));
  }
  const size_t n = sample.size();
  hrdm::Rng rng(run->seed * 11 + 5);
  std::vector<hrdm::Lifespan> windows;
  for (size_t i = 0; i < n; ++i) {
    const TimePoint a = rng.Uniform(0, run->spec.db.horizon - 101);
    windows.push_back(hrdm::Span(a, a + 100));
  }
  uint64_t sink = 0;
  bool ok = true;

  std::vector<Tuple> copies;
  rep->Add("core.materialize_cold_ns",
           PerItemNs(
               n,
               [&] {
                 copies.clear();
                 for (const Tuple* t : sample) copies.push_back(*t);
               },
               [&] {
                 for (const Tuple& t : copies) {
                   auto m = t.MaterializedShared();
                   ok = ok && m.ok();
                   sink += m.ok() ? (*m)->arity() : 0;
                 }
               }),
           "ns", n);
  std::vector<std::shared_ptr<const Tuple>> mats;
  for (const Tuple* t : sample) {
    auto m = t->MaterializedShared();
    ok = ok && m.ok();
    if (m.ok()) mats.push_back(*m);
  }
  rep->Add("core.materialize_warm_ns",
           PerItemNs(n, [] {},
                     [&] {
                       for (const Tuple* t : sample) {
                         auto m = t->MaterializedShared();
                         sink += m.ok() ? (*m)->arity() : 0;
                       }
                     }),
           "ns", n);
  rep->Add("core.restrict_ns",
           PerItemNs(mats.size(), [] {},
                     [&] {
                       for (size_t i = 0; i < mats.size(); ++i) {
                         sink += mats[i]
                                     ->Restrict(windows[i], mats[i]->scheme())
                                     .lifespan()
                                     .IntervalCount();
                       }
                     }),
           "ns", mats.size());
  rep->Add("core.lifespan_setop_ns",
           PerItemNs(3 * n, [] {},
                     [&] {
                       for (size_t i = 0; i < n; ++i) {
                         const hrdm::Lifespan& l = sample[i]->lifespan();
                         sink += l.Union(windows[i]).IntervalCount() +
                                 l.Intersect(windows[i]).IntervalCount() +
                                 l.Difference(windows[i]).IntervalCount();
                       }
                     }),
           "ns", 3 * n);

  // Relation::InsertDedup of an analytic result into a fresh relation.
  const Query pipeline = AnalyticPool(run->seed * 3 + 1, run->spec.db, 1)[0];
  auto result = RunQuery(pipeline.text, *pin, 0);
  run->Attempt();
  if (!result.ok()) {
    run->Fail(pipeline.text + ": " + result.status().ToString());
  } else {
    std::optional<Relation> fresh;
    rep->Add("core.insert_dedup_ns",
             PerItemNs(result->size(), [&] { fresh.emplace(result->scheme()); },
                       [&] {
                         for (const hrdm::TuplePtr& t : result->tuple_ptrs()) {
                           ok = fresh->InsertDedup(t).ok() && ok;
                         }
                       }),
             "ns", result->size());
  }
  run->Attempt();
  run->Check(ok, "kernel pass: a kernel call failed");
  g_sink += sink;
}

// --- storage passes -----------------------------------------------------------------

/// Replays a fresh DML stream against two bare copies of the database (read
/// from the engine's snapshot file, so they carry its indexes), one with a
/// CurrentVersion() pin held across each op (clone-on-shared), and times
/// the change-log encoding of the same ops.
void ApplyPass(Run* run, const LayerInputs& in, Report* rep) {
  auto a = hrdm::storage::ReadSnapshotFile(in.engine->snapshot_path());
  auto b = hrdm::storage::ReadSnapshotFile(in.engine->snapshot_path());
  run->Attempt();
  if (!a.ok() || !b.ok()) {
    run->Fail("apply pass: snapshot read failed");
    return;
  }
  const hrdm::SchemePtr emp = (*a->Get("emp"))->scheme();
  DmlStream stream(run->seed * 5 + 4, run->spec.db, **a->Get("emp"), "probe");
  std::vector<DmlOp> ops;
  std::vector<std::optional<Tuple>> tuples;
  for (size_t i = 0; i < kApplyOps; ++i) {
    ops.push_back(stream.Next());
    tuples.emplace_back();
    if (ops.back().kind == DmlKind::kInsert) {
      tuples.back().emplace(InsertTuple(ops.back(), emp));
    }
  }
  auto tuple_of = [&](size_t i) { return tuples[i] ? &*tuples[i] : nullptr; };
  Samples bare, pinned, encode;
  bool ok = true;
  for (size_t i = 0; i < ops.size(); ++i) {
    auto t0 = Clock::now();
    ok = Apply(&*a, ops[i], tuple_of(i)).ok() && ok;
    bare.Add(SecondsBetween(t0, Clock::now()) * 1e6);

    hrdm::storage::DatabaseVersionPtr pin = b->CurrentVersion();
    t0 = Clock::now();
    ok = Apply(&*b, ops[i], tuple_of(i)).ok() && ok;
    pinned.Add(SecondsBetween(t0, Clock::now()) * 1e6);
    pin.reset();

    t0 = Clock::now();
    g_sink += EncodeRecord(ops[i], tuple_of(i)).size();
    encode.Add(SecondsBetween(t0, Clock::now()) * 1e6);
  }
  run->Check(ok, "apply pass: an op failed");
  rep->Add("storage.apply_us", bare.Median(), "us", bare.size());
  rep->Add("storage.apply_pinned_us", pinned.Median(), "us", pinned.size());
  rep->Add("storage.changelog_encode_us", encode.Median(), "us", encode.size());
}

/// The image inside a snapshot file's envelope (header, length, CRC, then a
/// varint-framed image).
std::string_view SnapshotImage(std::string_view file) {
  size_t pos = hrdm::storage::kSnapshotFileHeaderSize + 8;
  uint64_t len = 0;
  for (int shift = 0; pos < file.size() && shift < 64; shift += 7) {
    const auto byte = static_cast<uint8_t>(file[pos++]);
    len |= uint64_t(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
  }
  return file.substr(pos, std::min<uint64_t>(len, file.size() - pos));
}

/// Times the recovery phases on the recovered directory's own files. Each
/// round first reopens the directory through the engine (crash → ready) and
/// then times the phases one by one, so the two are measured side by side.
void RecoveryPass(Run* run, const LayerInputs& in, Report* rep) {
  const std::string snap = in.engine->snapshot_path();
  const std::string wal = in.engine->wal_path();
  Samples open_ms, read_ms, decode_ms, wal_read_ms, replay_ms, rebuild_ms,
      encode_ms, gap_ms;
  size_t snap_bytes = 0, encoded_bytes = 0, records = 0;
  bool ok = true;
  for (int r = 0; r < kRecoveryRounds && ok; ++r) {
    auto t0 = Clock::now();
    ok = hrdm::storage::StorageEngine::Open(in.engine->dir(), EngineOptions()).ok();
    const double recover = Ms(t0);
    open_ms.Add(recover);

    t0 = Clock::now();
    auto bytes = hrdm::util::ReadFileToString(snap);
    read_ms.Add(Ms(t0));
    if (!bytes.ok()) {
      ok = false;
      break;
    }
    snap_bytes = bytes->size();
    t0 = Clock::now();
    auto db = hrdm::storage::DecodeSnapshotFile(*bytes);
    const double decode = Ms(t0);
    decode_ms.Add(decode);
    t0 = Clock::now();
    auto tail = hrdm::storage::ReadWal(wal);
    wal_read_ms.Add(Ms(t0));
    if (!db.ok() || !tail.ok()) {
      ok = false;
      break;
    }
    records = tail->records.size();
    t0 = Clock::now();
    for (const std::string& rec : tail->records) {
      ok = hrdm::storage::ApplyLogRecord(rec, &*db).ok() && ok;
    }
    const double replay = Ms(t0);
    replay_ms.Add(replay);
    gap_ms.Add(recover - (decode + replay));
    t0 = Clock::now();
    encoded_bytes = hrdm::storage::EncodeSnapshotFile(*db).size();
    encode_ms.Add(Ms(t0));

    // Index rebuild: the decode above re-creates the registered indexes;
    // time that step alone on an index-free copy of the same image.
    auto bare = Database::DecodeSnapshot(SnapshotImage(*bytes));
    if (!bare.ok()) {
      ok = false;
      break;
    }
    t0 = Clock::now();
    for (const std::string& name : db->catalog().Names()) {
      const auto spec = db->catalog().Indexes(name);
      if (!spec) continue;
      if (spec->lifespan) ok = bare->CreateLifespanIndex(name).ok() && ok;
      for (const std::string& attr : spec->value_attrs) {
        ok = bare->CreateValueIndex(name, attr).ok() && ok;
      }
    }
    rebuild_ms.Add(Ms(t0));
  }
  run->Attempt();
  run->Check(ok, "recovery pass failed");
  const double decode_all = decode_ms.Median();
  const double rebuild = rebuild_ms.Median();
  rep->Add("storage.snapshot_read_ms", read_ms.Median(), "ms", read_ms.size());
  rep->Add("storage.snapshot_decode_ms", decode_all - rebuild, "ms",
           decode_ms.size());
  rep->Add("storage.snapshot_decode_mb_s",
           Ratio(double(snap_bytes) / 1e6, decode_all / 1e3), "MB/s",
           decode_ms.size());
  rep->Add("storage.snapshot_encode_mb_s",
           Ratio(double(encoded_bytes) / 1e6, encode_ms.Median() / 1e3), "MB/s",
           encode_ms.size());
  rep->Add("storage.wal_read_ms", wal_read_ms.Median(), "ms", wal_read_ms.size());
  rep->Add("storage.wal_replay_ms", replay_ms.Median(), "ms", replay_ms.size());
  rep->Add("storage.wal_records", double(records), "count");
  rep->Add("storage.index_rebuild_ms", rebuild, "ms", rebuild_ms.size());
  // Snapshot decode (without the rebuild) + rebuild + WAL replay must fit
  // inside the reopen timed beside them; what is left is file reads, CRC,
  // WAL reopen and garbage collection. The phases are timed separately
  // from the reopen, so the check allows 5% of measurement noise; the gap
  // itself is reported as measured.
  rep->Add("storage.recover_ms", open_ms.Median(), "ms", open_ms.size());
  rep->Add("storage.recover_unattributed_ms", gap_ms.Median(), "ms",
           gap_ms.size());
  run->Attempt();
  run->Check(gap_ms.Median() >= -0.05 * open_ms.Median(),
             "decode + replay + rebuild exceed the reopen time");
}

}  // namespace

void AddLayerMetrics(Run* run, const LayerInputs& in, Report* rep) {
  const std::vector<SpanRecord>& spans = Tracer::Get().spans();
  SpanMetrics(run, spans, rep);
  ClassPass(run, in, rep);
  PlanPass(run, in, rep);
  KernelPass(run, in, rep);
  ApplyPass(run, in, rep);
  rep->Add("storage.checkpoint_ms", in.checkpoint_ms.Median(), "ms",
           in.checkpoint_ms.size());
  rep->Add("storage.checkpoints", double(in.checkpoints), "count");
  RecoveryPass(run, in, rep);
  rep->Add("trace.overhead_frac", in.overhead_frac, "fraction");
  if (!in.trace_path.empty()) WriteSpans(spans, in.trace_path);
}

}  // namespace hrdm_bench
