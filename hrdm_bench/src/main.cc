// End-to-end benchmark of the HRDM engine. One invocation runs one
// workload in this process and prints, as the last line of stdout,
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// with the end-to-end metrics (--trace 0) or the per-layer metrics of the
// traced run (--trace 1). See hrdm_bench/README.md for the workloads, the
// metric catalog and which layer should move which end-to-end metric.
//
//   hrdm_bench --workload analytic|ingest_recover --seed N
//              --seconds S --trace 0|1 --workdir DIR
//              [--commit HASH] [--source-digest HEX]

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <thread>
#include <vector>

#include "bench.h"
#include "query/executor.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "session/session.h"
#include "trace.h"
#include "util/file.h"

namespace hrdm_bench {

namespace q = hrdm::query;
using hrdm::Relation;
using hrdm::Result;
using hrdm::Status;
using hrdm::session::Session;
using hrdm::storage::DatabaseVersion;
using hrdm::storage::StorageEngine;

// --- shared pieces (declared in bench.h) ---------------------------------------------

StorageEngine::Options EngineOptions() {
  StorageEngine::Options o;
  o.fsync = hrdm::storage::FsyncPolicy::kBatched;
  o.checkpoint_every = kCheckpointEvery;
  return o;
}

namespace {

/// Size and order-independent hash of a query result.
struct ResultDigest {
  size_t size = 0;
  uint64_t hash = 0;
  bool operator==(const ResultDigest&) const = default;
};

ResultDigest Digest(const Relation& r) {
  ResultDigest d;
  d.size = r.size();
  for (const hrdm::Tuple& t : r) {
    uint64_t x = t.Hash() + 0x9e3779b97f4a7c15ULL;  // splitmix64 finalizer
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    d.hash += x ^ (x >> 31);
  }
  return d;
}

}  // namespace

void Run::Fail(const std::string& what) {
  if (++failed <= 10) {
    std::fprintf(stderr, "hrdm_bench: FAILED: %s\n", what.c_str());
  }
}

Result<Relation> RunQuery(const std::string& text, const DatabaseVersion& v,
                          uint64_t op, q::ExprPtr* optimized,
                          q::PlanStats* stats) {
  q::ExprPtr expr;
  {
    Span s("query.parse", op);
    HRDM_ASSIGN_OR_RETURN(expr, q::ParseExpr(text));
  }
  {
    Span s("query.optimize", op);
    expr = q::Optimize(expr);
  }
  std::optional<q::Plan> plan;
  {
    Span s("query.lower", op);
    HRDM_ASSIGN_OR_RETURN(
        plan, q::Plan::Lower(expr, q::VersionResolver(v),
                             q::VersionPlanOptions(v)));
  }
  Result<Relation> out = [&] {
    Span s("query.drain", op);
    return plan->Drain();
  }();
  if (optimized != nullptr) *optimized = expr;
  if (stats != nullptr) *stats = plan->stats();
  return out;
}

namespace {

/// Lowers `expr` again and pulls it with a NextBatch loop that skips the
/// root dedup; returns the tuples pulled.
Result<size_t> PullQuery(const q::ExprPtr& expr, const DatabaseVersion& v) {
  HRDM_ASSIGN_OR_RETURN(q::Plan plan,
                        q::Plan::Lower(expr, q::VersionResolver(v),
                                       q::VersionPlanOptions(v)));
  size_t n = 0;
  while (true) {
    HRDM_ASSIGN_OR_RETURN(q::TupleBatch * batch, plan.NextBatch());
    if (batch == nullptr) return n;
    n += batch->size();
  }
}

/// Operation times of the traced run, split by whether the operation was
/// traced. The traced run switches tracing per operation, so both sides see
/// the same operations (queries, each run twice) or the same interleaved
/// stream (commits), and the growth of the database affects both alike.
struct TraceOverhead {
  Samples traced, untraced;
  void Add(bool on, double v) { (on ? traced : untraced).Add(v); }
  double Fraction() const {
    return untraced.Mean() > 0 ? traced.Mean() / untraced.Mean() - 1 : 0;
  }
};

struct CommitLog {
  Samples us;
  Samples checkpoint_ms;  // commits that ran an auto-checkpoint
  uint64_t checkpoints = 0;
  // Growth of the WAL file on disk across each commit that did not run a
  // checkpoint (a checkpoint moves the log to a new file).
  uint64_t wal_bytes = 0;
  uint64_t wal_commits = 0;
  TraceOverhead overhead;  // commits that did not run a checkpoint
};

std::optional<uint64_t> FileBytes(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return std::nullopt;
  return uint64_t(st.st_size);
}

/// Commits `op` through `engine`, timing the call and noting checkpoints
/// and WAL growth in `log`.
void CommitOp(Run* run, StorageEngine* engine, const DmlOp& op,
              const hrdm::SchemePtr& emp, CommitLog* log) {
  static const char* const kSpanNames[kDmlKinds] = {
      "commit.insert", "commit.assign", "commit.end", "commit.reincarnate"};
  std::optional<hrdm::Tuple> tuple;
  if (op.kind == DmlKind::kInsert) tuple.emplace(InsertTuple(op, emp));
  const hrdm::Tuple* t = tuple ? &*tuple : nullptr;
  const uint64_t gen0 = engine->generation();
  const std::string wal = engine->wal_path();
  const std::optional<uint64_t> wal0 = FileBytes(wal);
  const uint64_t op_id = Tracer::Get().NextOp();
  const auto t0 = Clock::now();
  Status st;
  {
    Span s(kSpanNames[int(op.kind)], op_id);
    st = Commit(engine, op, t);
  }
  const double us = SecondsBetween(t0, Clock::now()) * 1e6;
  const uint64_t gen1 = engine->generation();
  run->Attempt();
  if (!st.ok()) {
    run->Fail(std::string("commit ") + DmlKindName(op.kind) + " " + op.name +
              ": " + st.ToString());
    return;
  }
  log->us.Add(us);
  if (gen1 != gen0) {
    log->checkpoints += gen1 - gen0;
    log->checkpoint_ms.Add(us / 1e3);
    return;
  }
  const std::optional<uint64_t> wal1 = FileBytes(wal);
  if (!wal0 || !wal1 || *wal1 < *wal0) {
    run->Fail("cannot measure the WAL growth of a commit to " + wal);
    return;
  }
  log->wal_bytes += *wal1 - *wal0;
  ++log->wal_commits;
  log->overhead.Add(Tracer::Get().enabled(), us);
}

// --- options ----------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string workdir;
  std::string commit = "none";
  std::string source_digest = "none";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "hrdm_bench: %s\nusage: hrdm_bench --workload "
               "analytic|ingest_recover --seed N --seconds S "
               "--trace 0|1 --workdir DIR [--commit H] [--source-digest D]\n",
               why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atoi(v);
    } else if (flag == "--trace") {
      o.trace = std::atoi(v);
    } else if (flag == "--workdir") {
      o.workdir = v;
    } else if (flag == "--commit") {
      o.commit = v;
    } else if (flag == "--source-digest") {
      o.source_digest = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.seconds < 1) Usage("--seconds must be at least 1");
  if (o.trace != 0 && o.trace != 1) Usage("--trace must be 0 or 1");
  if (o.workdir.empty()) Usage("--workdir is required");
  return o;
}

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  DbSpec big;
  big.employees = 20000;
  big.departments = 100;
  big.tickers = 500;
  WorkloadSpec w;
  w.name = "analytic";
  if (name == "analytic") {
    w.db = big;
    w.db.write_from = 800;
    w.setups = 7;
    w.pool_size = 40;
    w.ops_per_round = 1000;
    return w;
  }
  if (name == "ingest_recover") {
    w.name = "ingest_recover";
    w.db = big;
    w.db.employees = 5000;
    w.db.tickers = 100;
    w.setups = 21;  // a set-up takes ~0.15 s: many keep their median steady
    w.pool_size = 64;
    w.ops_per_round = 3000;
    w.read_batch = 64;
    return w;
  }
  return std::nullopt;
}

// --- files ----------------------------------------------------------------------

void RemoveDir(const std::string& dir) {
  auto entries = hrdm::util::ListDir(dir);
  if (entries.ok()) {
    for (const std::string& name : *entries) {
      (void)hrdm::util::RemoveFileIfExists(dir + "/" + name);
    }
  }
  ::rmdir(dir.c_str());
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  auto entries = hrdm::util::ListDir(dir);
  if (!entries.ok()) return 0;
  for (const std::string& name : *entries) {
    struct stat st;
    if (::stat((dir + "/" + name).c_str(), &st) == 0) total += uint64_t(st.st_size);
  }
  return total;
}

/// Logs to stderr how long the phase that just ended took.
void PhaseDone(const char* phase) {
  static Clock::time_point last = Clock::now();
  const Clock::time_point now = Clock::now();
  std::fprintf(stderr, "hrdm_bench: %-14s %8.2f s\n", phase,
               SecondsBetween(last, now));
  last = now;
}

double PeakRssMb() {
  struct rusage usage;
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return double(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

// --- one run of a workload -----------------------------------------------------------------

class Bench {
 public:
  explicit Bench(Run* run) : run_(*run) {}

  int Main(const Options& opt);

 private:
  /// Builds the database `setups` times (generate → load through the engine →
  /// index → checkpoint → warm); keeps the last one.
  void SetUp();
  /// One query for the client: session open + RunQuery, checked against
  /// `expect` when given; returns its time in ms.
  double QueryOnce(const Query& query, const ResultDigest* expect,
                   Samples* log);
  /// Reference results of the analytic pool, checked against the
  /// materializing oracle.
  void CheckPool();
  /// Queries for `seconds` of query time, with `ops` writes spread over
  /// them in step with the time passed, so that commits sample the whole
  /// run as queries do.
  void Analytic(double seconds, size_t ops, Samples* log, CommitLog* commits);
  void Ingest(size_t ops, CommitLog* commits);
  void CommitNext(const hrdm::SchemePtr& emp, CommitLog* commits);
  /// One crash → ready cycle: Sync → drop without a checkpoint → reopen;
  /// checks the recovered database against the live one and runs the
  /// first query (and `reads`) on it. The reopened engine becomes the live
  /// one.
  void CrashAndReopen(const std::vector<Query>& reads);
  std::vector<Query> Pool() const;
  const Relation& Emp() const;

  Run& run_;
  std::optional<StorageEngine> engine_;
  std::string dir_;
  Samples setup_s_;
  Samples setup_checkpoint_ms_;
  std::optional<DmlStream> stream_;
  std::vector<Query> pool_;
  std::vector<size_t> order_;       // the pool in a seeded order, cycled
  std::vector<ResultDigest> refs_;  // analytic: reference result per query
  TraceOverhead query_overhead_;
  // Recovery.
  Samples recover_s_;
  Samples first_query_ms_;
  Samples reads_log_;  // ingest_recover: reads after each reopen
  double disk_bytes_per_object_ = 0;
  size_t objects_ = 0;
  size_t queries_run_ = 0;
  size_t commits_run_ = 0;
};

const Relation& Bench::Emp() const {
  return **engine_->db().Get("emp");
}

std::vector<Query> Bench::Pool() const {
  const std::string w = run_.spec.name;
  if (w == "analytic") return AnalyticPool(run_.seed * 3 + 1, run_.spec.db, run_.spec.pool_size);
  return ServingPool(run_.seed * 3 + 2, run_.spec.db, run_.spec.pool_size);
}

void Bench::SetUp() {
  for (int i = 0; i < run_.spec.setups; ++i) {
    engine_.reset();
    if (!dir_.empty()) RemoveDir(dir_);
    dir_ = run_.workdir + "/" + run_.spec.name + "-" + std::to_string(i);
    RemoveDir(dir_);
    const auto t0 = Clock::now();
    auto rels = GenerateRelations(run_.seed, run_.spec.db);
    auto opened = StorageEngine::Open(dir_, EngineOptions());
    if (!rels.ok() || !opened.ok()) {
      run_.Fail("setup: " + (rels.ok() ? opened.status() : rels.status()).ToString());
      return;
    }
    engine_.emplace(std::move(opened).value());
    Status st = LoadDatabase(&*engine_, *rels);
    const auto c0 = Clock::now();
    if (st.ok()) st = engine_->Checkpoint();
    setup_checkpoint_ms_.Add(SecondsBetween(c0, Clock::now()) * 1e3);
    // Warm the interpolation memos of every stored tuple, as a first query
    // over each relation would.
    for (const char* warm : {"select_when(emp, Salary >= 0)",
                             "select_when(stocks, Price >= 0.0)"}) {
      if (!st.ok()) break;
      auto r = RunQuery(warm, *engine_->PinVersion(), 0);
      if (!r.ok()) st = r.status();
    }
    setup_s_.Add(SecondsBetween(t0, Clock::now()));
    if (!st.ok()) {
      run_.Fail("setup: " + st.ToString());
      return;
    }
  }
}

double Bench::QueryOnce(const Query& query, const ResultDigest* expect,
                         Samples* log) {
  const uint64_t op = Tracer::Get().NextOp();
  q::ExprPtr expr;
  const auto t0 = Clock::now();
  Span op_span("op.query", op);
  Span open_span("session.open", op);
  const Session session = Session::Open(*engine_);
  open_span.End();
  Result<Relation> result = RunQuery(query.text, session.version(), op, &expr);
  op_span.End();
  const double ms = SecondsBetween(t0, Clock::now()) * 1e3;

  run_.Attempt();
  if (!result.ok()) {
    run_.Fail(query.text + ": " + result.status().ToString());
    return ms;
  }
  if (log != nullptr) log->Add(ms);
  if (expect != nullptr && !(Digest(*result) == *expect)) {
    run_.Fail(query.text + ": result differs from its reference (size " +
              std::to_string(result->size()) + " vs " +
              std::to_string(expect->size) + ")");
  }
  if (Tracer::Get().enabled()) {
    Span pull("query.pull", op);
    auto pulled = PullQuery(expr, session.version());
    run_.Check(pulled.ok(), query.text + ": NextBatch loop failed");
  }
  return ms;
}

void Bench::CheckPool() {
  refs_.assign(pool_.size(), ResultDigest{});
  const auto pin = engine_->PinVersion();
  // One query at a time, so the oracle adds a steady amount to peak RSS.
  for (size_t i = 0; i < pool_.size(); ++i) {
    auto got = RunQuery(pool_[i].text, *pin, 0);
    auto parsed = q::ParseExpr(pool_[i].text);
    Result<Relation> want =
        parsed.ok() ? q::EvalMaterializing(*parsed, q::VersionResolver(*pin))
                    : Result<Relation>(parsed.status());
    run_.Attempt();
    if (!got.ok() || !want.ok() || !want->EqualsAsSet(*got)) {
      run_.Fail(pool_[i].text + ": streamed result differs from EvalMaterializing");
      continue;
    }
    refs_[i] = Digest(*got);
  }
}

void Bench::Analytic(double seconds, size_t ops, Samples* log,
                     CommitLog* commits) {
  const hrdm::SchemePtr emp = Emp().scheme();
  const auto t0 = Clock::now();
  double commit_s = 0;  // time spent committing, not counted as query time
  size_t done = 0;
  auto commit_until = [&](size_t due) {
    const auto c0 = Clock::now();
    for (; done < due; ++done) CommitNext(emp, commits);
    commit_s += SecondsBetween(c0, Clock::now());
  };
  Samples mine;
  double query_s = 0;
  while (query_s < seconds) {
    const size_t i = order_[queries_run_ % order_.size()];
    if (!run_.trace) {
      QueryOnce(pool_[i], &refs_[i], &mine);
    } else {
      // Each query twice, traced and untraced; which goes first flips with
      // every pass over the pool.
      const size_t first = (queries_run_ + queries_run_ / order_.size()) % 2;
      for (size_t k = 0; k < 2; ++k) {
        const bool on = (first + k) % 2 == 0;
        Tracer::Get().set_enabled(on);
        query_overhead_.Add(on, QueryOnce(pool_[i], &refs_[i], &mine));
      }
      Tracer::Get().set_enabled(true);
    }
    ++queries_run_;
    query_s = SecondsBetween(t0, Clock::now()) - commit_s;
    commit_until(std::min(ops, size_t(double(ops) * query_s / seconds)));
  }
  commit_until(ops);
  log->Append(mine);
}

void Bench::Ingest(size_t ops, CommitLog* commits) {
  const hrdm::SchemePtr emp = Emp().scheme();
  for (size_t i = 0; i < ops; ++i) CommitNext(emp, commits);
}

void Bench::CommitNext(const hrdm::SchemePtr& emp, CommitLog* commits) {
  // The traced run traces every other commit (see TraceOverhead).
  if (run_.trace) Tracer::Get().set_enabled(commits_run_ % 2 == 0);
  CommitOp(&run_, &*engine_, stream_->Next(), emp, commits);
  ++commits_run_;
  if (run_.trace) Tracer::Get().set_enabled(true);
}

void Bench::CrashAndReopen(const std::vector<Query>& reads) {
  Status st = engine_->Sync();
  run_.Check(st.ok(), "sync: " + st.ToString());
  std::string live_image, live_text;
  ResultDigest full_ref;
  {
    const auto pin = engine_->PinVersion();
    live_image = pin->EncodeSnapshot();
    if (recover_s_.empty()) live_text = pin->ToString();
    auto full = RunQuery(FullQuery().text, *pin, 0);
    if (full.ok()) full_ref = Digest(*full);
    objects_ = 0;
    for (const auto& [name, rel] : pin->relations) objects_ += rel->size();
  }
  engine_.reset();  // the crash: no checkpoint, the WAL tail stays
  disk_bytes_per_object_ =
      double(DirBytes(dir_)) / double(std::max<size_t>(1, objects_));

  const uint64_t op = Tracer::Get().NextOp();
  const auto t0 = Clock::now();
  Result<StorageEngine> opened = [&] {
    Span s("op.recover", op);
    return StorageEngine::Open(dir_, EngineOptions());
  }();
  const double recover_s = SecondsBetween(t0, Clock::now());
  run_.Attempt();
  if (!opened.ok()) {
    run_.Fail("reopen: " + opened.status().ToString());
    return;
  }
  engine_.emplace(std::move(opened).value());
  recover_s_.Add(recover_s);
  Samples* log = reads.empty() ? nullptr : &reads_log_;
  first_query_ms_.Add(QueryOnce(FullQuery(), &full_ref, log));
  // Durability of acknowledged writes: every reopen must encode to the
  // same snapshot image as the live database did before the crash, and
  // the first must also render the same (ToString covers the index
  // registrations the image leaves out).
  run_.Attempt();
  run_.Check(engine_->db().EncodeSnapshot() == live_image,
             "recovered database differs from the acknowledged one");
  if (!live_text.empty()) {
    run_.Attempt();
    run_.Check(engine_->db().ToString() == live_text,
               "recovered rendering differs from the acknowledged one");
  }
  for (const Query& query : reads) {
    QueryOnce(query, nullptr, log);
  }
}

// --- reporting ---------------------------------------------------------------------

void AddEndToEnd(Report* rep, const Samples& setup_s, const Samples& queries,
                 const CommitLog& commits, const Samples& recover_s,
                 const Samples& first_query_ms, double disk_bytes_per_object) {
  rep->Add("setup_s", setup_s.Median(), "s", setup_s.size());
  rep->Add("peak_rss_mb", PeakRssMb(), "MB");
  // Closed loop: one client's queries per busy second.
  const double query_busy_s = queries.Sum() / 1e3;
  rep->Add("queries_per_s",
           query_busy_s > 0 ? double(queries.size()) / query_busy_s : 0,
           "1/s", queries.size());
  rep->Add("query_p50_ms", queries.Median(), "ms", queries.size());
  rep->Add("query_p99_ms", queries.Tail(), "ms", queries.size());
  const double commit_busy_s = commits.us.Sum() / 1e6;
  rep->Add("commits_per_s",
           commit_busy_s > 0 ? double(commits.us.size()) / commit_busy_s : 0,
           "1/s", commits.us.size());
  rep->Add("commit_p50_us", commits.us.Median(), "us", commits.us.size());
  rep->Add("commit_p99_us", commits.us.Tail(), "us", commits.us.size());
  rep->Add("recover_s", recover_s.Median(), "s", recover_s.size());
  rep->Add("first_query_ms", first_query_ms.Median(), "ms",
           first_query_ms.size());
  rep->Add("wal_bytes_per_commit",
           commits.wal_commits == 0
               ? 0
               : double(commits.wal_bytes) / double(commits.wal_commits),
           "B", commits.wal_commits);
  rep->Add("disk_bytes_per_object", disk_bytes_per_object, "B");
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

int Bench::Main(const Options& opt) {
  const WorkloadSpec& w = run_.spec;
  if (!hrdm::util::CreateDirIfMissing(opt.workdir).ok() ||
      !hrdm::util::CreateDirIfMissing(run_.workdir).ok()) {
    std::fprintf(stderr, "hrdm_bench: cannot create %s\n", run_.workdir.c_str());
    return 2;
  }
  PhaseDone("start");
  SetUp();
  PhaseDone("setup");
  if (!engine_) return 1;

  stream_.emplace(run_.seed * 5 + 3, w.db, Emp(), "hire");

  Samples queries;
  CommitLog commits;
  std::vector<Query> reads;
  const std::string name = w.name;
  // Clients cycle through the pool in one seeded order, so every query
  // runs about equally often.
  pool_ = Pool();
  order_.resize(pool_.size());
  for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  hrdm::Rng(run_.seed * 7 + 1).Shuffle(&order_);
  if (name == "analytic") {
    // The writes touch only chronons past every query window, so the
    // reference results taken here stay valid for the whole run.
    CheckPool();
    PhaseDone("oracle");
  } else if (name == "ingest_recover") {
    reads.assign(pool_.begin(), pool_.begin() + std::min(pool_.size(), w.read_batch));
  }

  // The measured phase runs in rounds, each followed by a crash → ready
  // cycle, so every metric samples the whole run. The traced run traces
  // every round but switches tracing per query or commit, which gives the
  // tracing overhead (see TraceOverhead).
  const int rounds = name == "ingest_recover" ? std::max(2, run_.seconds) : w.rounds;
  const double chunk_s = double(run_.seconds) / rounds;
  Tracer& tracer = Tracer::Get();
  tracer.set_enabled(run_.trace);
  for (int r = 0; r < rounds && engine_; ++r) {
    if (name == "analytic") {
      Analytic(chunk_s, w.ops_per_round, &queries, &commits);
    } else {
      Ingest(w.ops_per_round, &commits);
    }
    CrashAndReopen(reads);
    if (name == "analytic" && engine_) {
      // Warm stocks too (the first query warmed emp), untimed.
      (void)RunQuery("select_when(stocks, Price >= 0.0)", *engine_->PinVersion(), 0);
    }
  }
  PhaseDone("rounds");
  if (!engine_) return 1;
  queries.Append(reads_log_);

  Report report;
  if (run_.trace) {
    LayerInputs in;
    in.engine = &*engine_;
    in.plan_queries = Pool();
    in.plan_queries.push_back(FullQuery());
    in.checkpoint_ms = setup_checkpoint_ms_;
    in.checkpoint_ms.Append(commits.checkpoint_ms);
    in.checkpoints = commits.checkpoints;
    in.overhead_frac = name == "ingest_recover"
                           ? commits.overhead.Fraction()
                           : query_overhead_.Fraction();
    in.trace_path = opt.workdir + "/trace-" + w.name + "-" +
                    std::to_string(run_.seed) + ".json";
    tracer.set_enabled(false);
    AddLayerMetrics(&run_, in, &report);
    PhaseDone("layer passes");
  } else {
    AddEndToEnd(&report, setup_s_, queries, commits, recover_s_,
                first_query_ms_, disk_bytes_per_object_);
  }

  // Human-readable table, then run metadata, then the result line.
  for (const Report::Metric& m : report.metrics()) {
    std::printf("%-36s %16.4f %-6s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  const uint64_t attempted = run_.attempted;
  const uint64_t failed = run_.failed;
  std::printf(
      "{\"meta\": {\"workload\": %s, \"seed\": %" PRIu64 ", \"seconds\": %d, "
      "\"trace\": %d, \"commit\": %s, \"source_digest\": %s, "
      "\"compiler\": %s, \"build_type\": %s, \"nproc\": %ld, "
      "\"hardware_concurrency\": %u, \"parallelism\": %zu, "
      "\"batch_size\": %zu, \"HRDM_THREADS\": \"unset\", "
      "\"HRDM_BATCH_SIZE\": \"unset\", \"fsync\": \"batched\", "
      "\"batch_bytes\": %zu, \"checkpoint_every\": %" PRIu64 ", "
      "\"employees\": %zu, \"departments\": %zu, \"tickers\": %zu, "
      "\"horizon\": %lld, \"objects_at_crash\": %zu, \"pool_size\": %zu, "
      "\"client_threads\": 1, \"setups\": %d, "
      "\"rounds\": %zu, \"query_tail_percentile\": %d, "
      "\"commit_tail_percentile\": %d, \"checkpoints\": %" PRIu64 ", "
      "\"error_rate\": %s}, \"samples\": {%s}}\n",
      Quote(w.name).c_str(), run_.seed, run_.seconds, run_.trace ? 1 : 0,
      Quote(opt.commit).c_str(), Quote(opt.source_digest).c_str(),
      Quote(HRDM_BENCH_COMPILER).c_str(), Quote(HRDM_BENCH_BUILD_TYPE).c_str(),
      ::sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
      q::DefaultParallelism(), q::ChooseBatchSize(0),
      EngineOptions().batch_bytes, kCheckpointEvery, w.db.employees,
      w.db.departments, w.db.tickers, (long long)w.db.horizon, objects_,
      w.pool_size, w.setups, recover_s_.size(), queries.TailPercentile(),
      commits.us.TailPercentile(), commits.checkpoints,
      Report::Number(attempted ? double(failed) / double(attempted) : 0).c_str(),
      report.SamplesJson().c_str());
  const bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed,
              report.MetricsJson().c_str());
  std::fflush(stdout);
  engine_.reset();
  RemoveDir(dir_);
  ::rmdir(run_.workdir.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace hrdm_bench

int main(int argc, char** argv) {
  using namespace hrdm_bench;
  const Options opt = ParseArgs(argc, argv);
  // Both variables change plan behaviour; a comparison is only valid when
  // both sides run the defaults, so refuse rather than flag.
  for (const char* var : {"HRDM_THREADS", "HRDM_BATCH_SIZE"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr,
                   "hrdm_bench: %s is set; unset it to run with the recorded "
                   "defaults\n",
                   var);
      return 2;
    }
  }
  std::optional<WorkloadSpec> spec = FindWorkload(opt.workload);
  if (!spec) Usage(("unknown workload " + opt.workload).c_str());
  Run run;
  run.spec = *spec;
  run.seed = opt.seed;
  run.seconds = opt.seconds;
  run.trace = opt.trace == 1;
  run.workdir = opt.workdir + "/" + opt.workload + "-" + std::to_string(::getpid());
  Bench bench(&run);
  return bench.Main(opt);
}
