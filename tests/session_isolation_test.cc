// Snapshot isolation of reader sessions (src/session/session.h), directed
// cases plus a single-threaded randomized suite.
//
// The contract under test: a session pins one DatabaseVersion at open, and
// every read through the session — ToString(), EncodeSnapshot(), HRQL
// queries — answers from that frozen version, byte-identically, for the
// session's whole lifetime, no matter what mutations commit meanwhile.
// The differential oracle is a private replica database decoded from the
// session's own EncodeSnapshot(): a query through the session must return
// exactly what the same query returns on the replica.
//
// The multi-threaded version of this property (N readers × M writers under
// TSan) lives in tests/concurrency_fuzz_test.cc.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "query/executor.h"
#include "query/parser.h"
#include "query/plan.h"
#include "session/session.h"
#include "storage/database.h"
#include "storage/storage_engine.h"
#include "tests/storage_test_util.h"
#include "tests/test_seeds.h"
#include "util/random.h"

namespace hrdm {
namespace {

using session::Session;
using storage::Database;
using storage::StorageEngine;
using storage::testing::TempDir;
using storage::testing::WorkloadRunner;

constexpr const char* kSeedEnv = "HRDM_SESSION_FUZZ_SEEDS";

// Queries exercising scan, timeslice, selection, projection and
// aggregation against the WorkloadRunner's "obj" relation. Some may fail
// cleanly after schema evolution (Y closed); failures must then be
// identical on both sides of the differential.
const std::vector<std::string>& QueryBattery() {
  static const std::vector<std::string> kQueries = {
      "obj",
      "timeslice(obj, {[5, 20]})",
      "select_if(obj, X > 50, exists)",
      "select_when(obj, X >= 0)",
      "project(obj, Id)",
      "aggregate(obj, count)",
  };
  return kQueries;
}

// One comparable string per query outcome: the full result rendering on
// success, the full status on failure.
std::string Outcome(const Result<Relation>& r) {
  return r.ok() ? "ok:\n" + r->ToString() : "error: " + r.status().ToString();
}

std::string SessionOutcome(const Session& s, const std::string& q) {
  return Outcome(s.Run(q));
}

std::string DatabaseOutcome(const Database& db, const std::string& q) {
  return Outcome(query::Run(q, db));
}

// Runs workload step `step` on `target`. Step 0 creates the relation and
// must return `step0`: OK on a fresh target, AlreadyExists on one that
// SeededDatabase already populated. Later steps may fail by design
// (assigning to a dead object, say: see storage_test_util.h); the isolation
// properties hold whatever they return, so their statuses are dropped here.
template <typename Target>
void RunStep(WorkloadRunner& workload, Target* target, int step,
             StatusCode step0 = StatusCode::kOk) {
  const Status st = workload.Step(target, step);
  if (step == 0) {
    EXPECT_EQ(st.code(), step0) << st.ToString();
  }
}

// Builds a small populated database: obj with three tuples + both indexes.
Database SeededDatabase() {
  Database db;
  WorkloadRunner workload(/*seed=*/1);
  for (int step = 0; step < 40; ++step) {
    RunStep(workload, &db, step);
  }
  return db;
}

TEST(SessionIsolationTest, SnapshotFrozenAcrossDml) {
  Database db = SeededDatabase();
  Session s = Session::Open(db);
  const std::string frozen = s.ToString();
  const std::string frozen_image = s.EncodeSnapshot();
  ASSERT_FALSE(frozen.empty());

  // Keep mutating through the same workload stream; the session must not
  // observe any of it.
  WorkloadRunner workload(/*seed=*/2);
  for (int step = 0; step < 60; ++step) {
    RunStep(workload, &db, step, StatusCode::kAlreadyExists);
    EXPECT_EQ(s.ToString(), frozen) << "session leaked step " << step;
  }
  EXPECT_EQ(s.EncodeSnapshot(), frozen_image);
  // The live database really did move on (otherwise the test is vacuous).
  EXPECT_NE(db.ToString(), frozen);
}

TEST(SessionIsolationTest, QueriesAnswerFromTheFrozenReplica) {
  Database db = SeededDatabase();
  Session s = Session::Open(db);

  // The differential oracle: a private database decoded from the
  // session's own snapshot bytes.
  auto replica = Database::DecodeSnapshot(s.EncodeSnapshot());
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();

  WorkloadRunner workload(/*seed=*/3);
  for (int step = 0; step < 50; ++step) {
    RunStep(workload, &db, step, StatusCode::kAlreadyExists);
  }
  for (const std::string& q : QueryBattery()) {
    EXPECT_EQ(SessionOutcome(s, q), DatabaseOutcome(*replica, q))
        << "query diverged from frozen replica: " << q;
  }
}

TEST(SessionIsolationTest, SnapshotFrozenAcrossSchemaEvolutionAndDrop) {
  Database db = SeededDatabase();
  Session s = Session::Open(db);
  const std::string frozen = s.ToString();

  ASSERT_TRUE(db.CloseAttribute("obj", "Y", 30).ok());
  EXPECT_EQ(s.ToString(), frozen);
  ASSERT_TRUE(
      db.AddAttribute("obj", {"W", DomainType::kInt,
                              Span(0, WorkloadRunner::kHorizon - 1),
                              InterpolationKind::kStepwise})
          .ok());
  EXPECT_EQ(s.ToString(), frozen);
  ASSERT_TRUE(db.DropRelation("obj").ok());
  EXPECT_EQ(s.ToString(), frozen);
  // The pinned version still resolves the dropped relation.
  EXPECT_TRUE(s.Get("obj").ok());
  EXPECT_FALSE(db.Get("obj").ok());
}

TEST(SessionIsolationTest, SnapshotFrozenAcrossIndexDdl) {
  Database db = SeededDatabase();
  Session s = Session::Open(db);
  const std::string frozen = s.ToString();
  ASSERT_TRUE(db.CreateValueIndex("obj", "Y").ok());
  // Index DDL publishes a new version (registrations are part of the
  // rendering); the pinned one keeps the old registration set.
  EXPECT_EQ(s.ToString(), frozen);
  EXPECT_NE(db.ToString(), frozen);
}

// Drains `hrql` through the session's own plan options and reports the
// result rendering plus whether the plan read the lifespan index.
struct IndexedOutcome {
  std::string rendering;
  bool used_lifespan_index = false;
};

IndexedOutcome RunIndexed(const Session& s, const std::string& hrql) {
  IndexedOutcome out;
  auto expr = query::ParseExpr(hrql);
  if (!expr.ok()) return {"parse error: " + expr.status().ToString()};
  auto plan = query::Plan::Lower(*expr, query::VersionResolver(s.version()),
                                 s.MakePlanOptions());
  if (!plan.ok()) return {"lower error: " + plan.status().ToString()};
  out.rendering = Outcome(plan->Drain());
  out.used_lifespan_index = plan->stats().scans_lifespan_index > 0;
  return out;
}

TEST(SessionIsolationTest, LifespanIndexProbesStayFrozenWhileWriterMutates) {
  // Large enough that timeslice takes the lifespan-index path and the
  // index spans several blocks, so the writer's births, deaths,
  // reincarnations and assignments split and merge blocks of the copy it
  // publishes while the session keeps probing the pinned one.
  constexpr int kObjects = 600;
  constexpr TimePoint kHorizon = 200;
  const Lifespan full = Span(0, kHorizon - 1);
  Database db;
  ASSERT_TRUE(
      db.CreateRelation(
            "obj",
            {{"Id", DomainType::kString, full, InterpolationKind::kDiscrete},
             {"X", DomainType::kInt, full, InterpolationKind::kStepwise}},
            {"Id"})
          .ok());
  ASSERT_TRUE(db.CreateLifespanIndex("obj").ok());
  ASSERT_TRUE(db.CreateValueIndex("obj", "X").ok());
  Rng rng(11);
  auto key = [](int i) {
    return std::vector<Value>{Value::String("o" + std::to_string(i))};
  };
  auto birth = [&](int i) {
    const SchemePtr scheme = *db.catalog().Get("obj");
    const TimePoint b = rng.Uniform(0, kHorizon - 20);
    Tuple::Builder builder(scheme, Span(b, b + rng.Uniform(0, 19)));
    builder.SetConstant("Id", key(i)[0]);
    builder.SetAt("X", b, Value::Int(rng.Uniform(0, 9)));
    return db.Insert("obj", *std::move(builder).Build());
  };
  for (int i = 0; i < kObjects; ++i) ASSERT_TRUE(birth(i).ok());

  const std::vector<std::string> queries = {
      "timeslice(obj, {[0, 10]})",
      "timeslice(obj, {[50, 60]})",
      "timeslice(obj, {[90, 95], [150, 170]})",
  };
  Session s = Session::Open(db);
  std::vector<std::string> frozen;
  for (const std::string& q : queries) {
    const IndexedOutcome o = RunIndexed(s, q);
    ASSERT_TRUE(o.used_lifespan_index) << q;
    frozen.push_back(o.rendering);
  }
  auto replica = Database::DecodeSnapshot(s.EncodeSnapshot());
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(frozen[i], DatabaseOutcome(*replica, queries[i])) << queries[i];
  }

  int born = kObjects;
  for (int step = 0; step < 400; ++step) {
    const int victim = static_cast<int>(rng.Uniform(0, born - 1));
    const TimePoint t = rng.Uniform(1, kHorizon - 2);
    switch (rng.Uniform(0, 3)) {
      case 0:
        (void)birth(born++);
        break;
      case 1:
        (void)db.EndLifespan("obj", key(victim), t);
        break;
      case 2:
        (void)db.Reincarnate("obj", key(victim), Span(t, kHorizon - 1));
        break;
      default:
        (void)db.Assign("obj", key(victim), "X", Span(t, t + 1),
                        Value::Int(rng.Uniform(0, 9)));
        break;
    }
    if (step % 20 != 19) continue;
    for (size_t i = 0; i < queries.size(); ++i) {
      const IndexedOutcome o = RunIndexed(s, queries[i]);
      ASSERT_TRUE(o.used_lifespan_index) << queries[i];
      ASSERT_EQ(o.rendering, frozen[i])
          << queries[i] << " drifted by step " << step;
    }
  }
  // The live database moved on, and its own index path agrees with a
  // replica of it (replicas carry no index data, so they scan).
  Session live = Session::Open(db);
  auto live_replica = Database::DecodeSnapshot(live.EncodeSnapshot());
  ASSERT_TRUE(live_replica.ok()) << live_replica.status().ToString();
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::string now = RunIndexed(live, queries[i]).rendering;
    EXPECT_NE(now, frozen[i]) << queries[i];
    EXPECT_EQ(now, DatabaseOutcome(*live_replica, queries[i])) << queries[i];
  }
}

TEST(SessionIsolationTest, VersionIdsAreMonotonicPerCommit) {
  Database db;
  Session s0 = Session::Open(db);
  EXPECT_EQ(s0.version_id(), 0u);

  WorkloadRunner workload(/*seed=*/4);
  uint64_t last = 0;
  for (int step = 0; step < 40; ++step) {
    const Status status = workload.Step(&db, step);
    const uint64_t id = Session::Open(db).version_id();
    if (status.ok()) {
      EXPECT_EQ(id, last + 1) << "committed step " << step
                              << " must bump the version id by one";
    } else {
      EXPECT_EQ(id, last) << "failed step " << step
                          << " must not publish a version";
    }
    last = id;
  }
}

TEST(SessionIsolationTest, RefreshAdoptsTheCurrentVersion) {
  Database db = SeededDatabase();
  Session s = Session::Open(db);
  const std::string frozen = s.ToString();
  ASSERT_TRUE(db.CreateValueIndex("obj", "Y").ok());
  EXPECT_EQ(s.ToString(), frozen);
  s.Refresh(db);
  EXPECT_EQ(s.ToString(), db.ToString());
  EXPECT_NE(s.ToString(), frozen);
}

TEST(SessionIsolationTest, EngineSessionsPinAcrossLoggedMutations) {
  TempDir dir("session");
  StorageEngine::Options options;
  options.fsync = storage::FsyncPolicy::kOff;
  auto engine = StorageEngine::Open(dir.path(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  WorkloadRunner workload(/*seed=*/5);
  for (int step = 0; step < 30; ++step) {
    RunStep(workload, &*engine, step);
  }
  Session s = Session::Open(*engine);
  const std::string frozen = s.ToString();
  auto replica = Database::DecodeSnapshot(s.EncodeSnapshot());
  ASSERT_TRUE(replica.ok());

  for (int step = 30; step < 70; ++step) {
    RunStep(workload, &*engine, step);
    ASSERT_EQ(s.ToString(), frozen) << "engine session leaked step " << step;
  }
  for (const std::string& q : QueryBattery()) {
    EXPECT_EQ(SessionOutcome(s, q), DatabaseOutcome(*replica, q)) << q;
  }
  s.Refresh(*engine);
  EXPECT_EQ(s.ToString(), engine->db().ToString());
}

// Randomized single-threaded sweep: sessions open at random workload
// steps, stay open across arbitrary later mutations, and are re-validated
// (rendering + full query battery against their open-time expectations)
// after every single step until they close.
class SessionFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SessionFuzzTest, SessionsStayFrozenThroughRandomWorkloads) {
  SCOPED_TRACE(hrdm::testing::SeedTrace(kSeedEnv, GetParam()));
  Rng rng(GetParam() ^ 0x5e55104u);  // decorrelated from the workload rng
  Database db;
  WorkloadRunner workload(GetParam());

  struct OpenSession {
    Session session;
    std::string frozen;
    std::vector<std::string> battery;  // one outcome per QueryBattery()
    int opened_at;
  };
  std::vector<OpenSession> open;

  constexpr int kSteps = 120;
  for (int step = 0; step < kSteps; ++step) {
    RunStep(workload, &db, step);

    // Every open session must still render byte-identically and answer
    // every query exactly as at open time.
    for (const OpenSession& os : open) {
      ASSERT_EQ(os.session.ToString(), os.frozen)
          << "session opened at step " << os.opened_at << " leaked step "
          << step;
      for (size_t qi = 0; qi < QueryBattery().size(); ++qi) {
        ASSERT_EQ(SessionOutcome(os.session, QueryBattery()[qi]),
                  os.battery[qi])
            << "query '" << QueryBattery()[qi] << "' of session opened at "
            << os.opened_at << " drifted by step " << step;
      }
    }

    if (step >= 3 && open.size() < 4 && rng.Chance(0.15)) {
      Session s = Session::Open(db);
      std::string frozen = s.ToString();
      std::vector<std::string> battery;
      battery.reserve(QueryBattery().size());
      for (const std::string& q : QueryBattery()) {
        battery.push_back(SessionOutcome(s, q));
      }
      // The open-time battery must itself match a replica decoded from
      // the session's snapshot bytes (queries really answer from the
      // pinned version, not the live database).
      auto replica = Database::DecodeSnapshot(s.EncodeSnapshot());
      ASSERT_TRUE(replica.ok()) << replica.status().ToString();
      for (size_t qi = 0; qi < QueryBattery().size(); ++qi) {
        ASSERT_EQ(battery[qi], DatabaseOutcome(*replica, QueryBattery()[qi]))
            << QueryBattery()[qi];
      }
      open.push_back(OpenSession{std::move(s), std::move(frozen),
                                 std::move(battery), step});
    }
    if (!open.empty() && rng.Chance(0.08)) {
      open.erase(open.begin() + static_cast<long>(rng.Index(open.size())));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionFuzzTest,
                         ::testing::ValuesIn(hrdm::testing::SeedsFromEnv(
                             kSeedEnv, {1, 2, 3, 7, 42, 31415})));

}  // namespace
}  // namespace hrdm
