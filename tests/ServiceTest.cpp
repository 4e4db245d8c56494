//===- tests/ServiceTest.cpp - SynthService scheduler and cache ---------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hardening coverage for the serving layer: problem fingerprints,
/// ResultCache LRU behaviour, queue saturation and backpressure, per-job
/// deadlines (expired in queue and bounding a running solve), cancellation
/// in every phase, single-flight coalescing, priority ordering, shutdown
/// draining, and the Engine::solveBatch / Engine::shared() entry points.
///
/// Timing discipline: tests never assert that something happens *within* a
/// tight budget on the (possibly 1-core, sanitized) CI box; they only use
/// generous ceilings and explicit phase transitions (waitUntil helpers).
///
//===----------------------------------------------------------------------===//

#include "service/SynthService.h"

#include "io/ProgramIO.h"
#include "service/Fingerprint.h"
#include "service/ResultCache.h"
#include "suite/Runner.h"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <thread>

using namespace morpheus;

namespace {

/// A quickly solvable problem (filter + select, ~tens of ms); \p Tag
/// shifts the data so different tags fingerprint differently.
Problem fastProblem(unsigned Tag = 0) {
  double O = double(Tag);
  Table In = makeTable({{"id", CellType::Num},
                        {"name", CellType::Str},
                        {"age", CellType::Num}},
                       {{num(1), str("Alice"), num(8 + O)},
                        {num(2), str("Bob"), num(18 + O)},
                        {num(3), str("Tom"), num(12 + O)}});
  Table Out = makeTable({{"name", CellType::Str}, {"age", CellType::Num}},
                        {{str("Bob"), num(18 + O)}, {str("Tom"), num(12 + O)}});
  Problem P = Problem::fromTables({In}, Out);
  P.Name = "fast" + std::to_string(Tag);
  return P;
}

/// A trivially solvable problem (output == input, a size-0 program);
/// solves in ~a millisecond, handy for LRU churn.
Problem identityProblem(unsigned Tag) {
  Table T = makeTable({{"v", CellType::Num}},
                      {{num(double(Tag))}, {num(double(Tag) + 0.5)}});
  Problem P = Problem::fromTables({T}, T);
  P.Name = "id" + std::to_string(Tag);
  return P;
}

/// An unsolvable problem (no component invents the string "nope"): under a
/// long engine timeout it occupies a worker until cancelled or
/// deadline-bounded. \p Tag makes distinct blockers fingerprint apart.
Problem ghostProblem(unsigned Tag = 0) {
  Table In = makeTable({{"a", CellType::Num}},
                       {{num(double(Tag))}, {num(double(Tag) + 1)}});
  Table Out = makeTable({{"ghost", CellType::Str}}, {{str("nope")}});
  Problem P = Problem::fromTables({In}, Out);
  P.Name = "ghost" + std::to_string(Tag);
  return P;
}

/// Engine with a long budget: solvable problems finish fast, unsolvable
/// ones effectively run until cancelled.
Engine longEngine() {
  return Engine::standard(
      EngineOptions().timeout(std::chrono::seconds(120)));
}

/// Polls until \p H reaches \p S; false on a 20 s ceiling (a test bug, not
/// a timing margin).
bool waitUntilStatus(const JobHandle &H, JobStatus S) {
  for (int I = 0; I != 20000; ++I) {
    if (H.status() == S)
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Fingerprint
//===----------------------------------------------------------------------===//

TEST(Fingerprint, IdenticalProblemsAgreeDistinctOnesDiffer) {
  EngineOptions Opts;
  EXPECT_EQ(problemFingerprint(fastProblem(1), Opts),
            problemFingerprint(fastProblem(1), Opts));
  EXPECT_NE(problemFingerprint(fastProblem(1), Opts),
            problemFingerprint(fastProblem(2), Opts));
  EXPECT_NE(problemFingerprint(fastProblem(1), Opts),
            problemFingerprint(ghostProblem(1), Opts));
}

TEST(Fingerprint, NameIsALabelNotContent) {
  Problem A = fastProblem(1), B = fastProblem(1);
  B.Name = "renamed";
  B.Description = "same tables, different label";
  EngineOptions Opts;
  EXPECT_EQ(problemFingerprint(A, Opts), problemFingerprint(B, Opts));
}

TEST(Fingerprint, EngineOptionsAreFolded) {
  Problem P = fastProblem(1);
  EXPECT_NE(problemFingerprint(P, EngineOptions()),
            problemFingerprint(P, EngineOptions().maxComponents(2)));
  EXPECT_NE(problemFingerprint(P, EngineOptions()),
            problemFingerprint(P, EngineOptions().deduction(false)));
  EXPECT_NE(
      problemFingerprint(P, EngineOptions()),
      problemFingerprint(
          P, EngineOptions().timeout(std::chrono::milliseconds(123))));
  // Thread count changes speed, not which results are reachable.
  EXPECT_EQ(problemFingerprint(P, EngineOptions()),
            problemFingerprint(P, EngineOptions().threads(7)));
}

TEST(Fingerprint, OrderedCompareMakesRowOrderSignificant) {
  Table In = makeTable({{"a", CellType::Num}}, {{num(1)}});
  Table Fwd = makeTable({{"b", CellType::Num}}, {{num(1)}, {num(2)}});
  Table Rev = makeTable({{"b", CellType::Num}}, {{num(2)}, {num(1)}});
  EngineOptions Opts;
  // Unordered comparison: a row permutation is the same problem.
  EXPECT_EQ(problemFingerprint(Problem::fromTables({In}, Fwd), Opts),
            problemFingerprint(Problem::fromTables({In}, Rev), Opts));
  // Ordered comparison: it is not.
  EXPECT_NE(
      problemFingerprint(Problem::fromTables({In}, Fwd, true), Opts),
      problemFingerprint(Problem::fromTables({In}, Rev, true), Opts));
  // ...and *input* row order matters too then: order-preserving verbs
  // propagate it into the compared output, so a cached program for one
  // input order would be wrong for the other.
  EXPECT_NE(
      problemFingerprint(Problem::fromTables({Fwd}, Fwd, true), Opts),
      problemFingerprint(Problem::fromTables({Rev}, Fwd, true), Opts));
  EXPECT_EQ(
      problemFingerprint(Problem::fromTables({Fwd}, Fwd), Opts),
      problemFingerprint(Problem::fromTables({Rev}, Fwd), Opts));
}

//===----------------------------------------------------------------------===//
// ResultCache
//===----------------------------------------------------------------------===//

Solution solvedMarker(double Seconds) {
  Solution S;
  S.Result = Outcome::Exhausted; // content is irrelevant; Seconds is the tag
  S.Seconds = Seconds;
  return S;
}

TEST(ResultCache, LruEvictsOldestAndLookupRefreshes) {
  ResultCache C(2);
  C.insert(1, solvedMarker(1));
  C.insert(2, solvedMarker(2));
  ASSERT_TRUE(C.lookup(1)); // 1 is now more recent than 2
  C.insert(3, solvedMarker(3));
  EXPECT_EQ(C.size(), 2u);
  EXPECT_FALSE(C.lookup(2)); // evicted as LRU
  EXPECT_TRUE(C.lookup(1));
  EXPECT_TRUE(C.lookup(3));

  CacheStats S = C.stats();
  EXPECT_EQ(S.Insertions, 3u);
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_EQ(S.Hits, 3u);
  EXPECT_EQ(S.Misses, 1u);
}

TEST(ResultCache, ReinsertReplacesInPlace) {
  ResultCache C(2);
  C.insert(1, solvedMarker(1));
  C.insert(1, solvedMarker(10));
  EXPECT_EQ(C.size(), 1u);
  std::optional<Solution> S = C.lookup(1);
  ASSERT_TRUE(S);
  EXPECT_EQ(S->Seconds, 10.0);
  EXPECT_EQ(C.stats().Evictions, 0u);
}

TEST(ResultCache, ZeroCapacityDisablesStorageButCounts) {
  ResultCache C(0);
  C.insert(1, solvedMarker(1));
  EXPECT_EQ(C.size(), 0u);
  EXPECT_FALSE(C.lookup(1));
  EXPECT_EQ(C.stats().Misses, 1u);
  EXPECT_EQ(C.stats().Insertions, 1u);
}

//===----------------------------------------------------------------------===//
// SynthService: solve, cache, coalesce
//===----------------------------------------------------------------------===//

TEST(SynthService, SolvesAndServesRepeatsFromCache) {
  SynthService Svc(longEngine(), ServiceOptions().workers(2));
  JobHandle A = Svc.submit(fastProblem(1));
  const Solution &SA = A.get();
  EXPECT_EQ(SA.Result, Outcome::Solved);
  EXPECT_EQ(A.status(), JobStatus::Done);
  EXPECT_EQ(A.source(), ResultSource::Solve);

  JobHandle B = Svc.submit(fastProblem(1));
  // A cache hit completes at submission, before any worker touches it.
  EXPECT_EQ(B.status(), JobStatus::Done);
  EXPECT_EQ(B.source(), ResultSource::CacheHit);
  EXPECT_EQ(B.get().Result, Outcome::Solved);
  EXPECT_EQ(B.get().Program, SA.Program); // literally the same program
  EXPECT_EQ(B.get().Seconds, 0.0); // a hit reports its own (free) latency

  ServiceStats St = Svc.stats();
  EXPECT_EQ(St.SolvesRun, 1u);
  EXPECT_EQ(St.Cache.Hits, 1u);
  EXPECT_EQ(St.Submitted, 2u);
  EXPECT_EQ(St.Completed, 2u);
}

/// A re-solve of an example the service has seen — the result evicted, or
/// never cached — runs the engine again and finds the same program. A
/// zero-capacity ResultCache makes the repeat a miss.
TEST(SynthService, CacheOffReSolveReproducesTheProgram) {
  SynthService Svc(longEngine(), ServiceOptions().workers(1).cacheCapacity(0));
  JobHandle A = Svc.submit(fastProblem(2));
  const Solution &SA = A.get();
  ASSERT_EQ(SA.Result, Outcome::Solved);

  JobHandle B = Svc.submit(fastProblem(2));
  const Solution &SB = B.get();
  EXPECT_EQ(B.source(), ResultSource::Solve);
  ASSERT_EQ(SB.Result, Outcome::Solved);
  EXPECT_EQ(printSexp(SB.Program), printSexp(SA.Program));
  EXPECT_EQ(Svc.stats().SolvesRun, 2u);
}

/// A restart over the same state dir with a different timeout: the
/// problem fingerprints key the timeout, so every task misses the restored
/// cache and re-runs the engine — and the sequential search, being
/// deterministic, finds the byte-identical program.
TEST(SynthService, ChangedTimeoutAfterRestartReSolvesToTheSameProgram) {
  std::string Dir = "service_test_resolve.state";
  ::mkdir(Dir.c_str(), 0777);
  std::remove((Dir + "/results.mstate").c_str());
  std::vector<BenchmarkTask> Tasks;
  for (const BenchmarkTask &T : morpheusSuite())
    if (T.Id == "C1-01" || T.Id == "C2-07" || T.Id == "C3-03" ||
        T.Id == "C5-06")
      Tasks.push_back(T);
  ASSERT_EQ(Tasks.size(), 4u);

  auto Pass = [&](int TimeoutMs, std::vector<std::string> &Programs) {
    EngineOptions Opts;
    Opts.config(configSpec2(std::chrono::milliseconds(TimeoutMs)))
        .stateDir(Dir);
    SynthService Svc(Engine(libraryForTask(Tasks[0]), Opts),
                     ServiceOptions().workers(1));
    for (const BenchmarkTask &T : Tasks) {
      JobHandle H = Svc.submit(toProblem(T));
      const Solution &S = H.get();
      EXPECT_EQ(H.source(), ResultSource::Solve) << T.Id;
      EXPECT_EQ(S.Result, Outcome::Solved) << T.Id;
      Programs.push_back(S.Program ? printSexp(S.Program) : "");
    }
    return Svc.stats();
  };
  std::vector<std::string> Cold, Resolved;
  ServiceStats ColdStats = Pass(20000, Cold);
  ServiceStats ResolvedStats = Pass(30000, Resolved);
  EXPECT_EQ(ColdStats.Warm.ResultsLoaded, 0u);
  EXPECT_EQ(ResolvedStats.Warm.ResultsLoaded, Tasks.size());
  EXPECT_EQ(ResolvedStats.Cache.Hits, 0u);
  EXPECT_EQ(ResolvedStats.SolvesRun, Tasks.size());
  EXPECT_EQ(Resolved, Cold);
}

TEST(SynthService, SingleFlightCoalescesIdenticalConcurrentProblems) {
  SynthService Svc(longEngine(), ServiceOptions().workers(1));
  // Occupy the only worker so the identical pair stays queued together.
  JobHandle Blocker = Svc.submit(ghostProblem());
  ASSERT_TRUE(waitUntilStatus(Blocker, JobStatus::Running));

  JobHandle A = Svc.submit(fastProblem(7));
  JobHandle B = Svc.submit(fastProblem(7));
  EXPECT_EQ(Svc.stats().Cache.Coalesced, 1u);

  Blocker.cancel();
  EXPECT_EQ(Blocker.get().Result, Outcome::Cancelled);

  const Solution &SA = A.get();
  const Solution &SB = B.get();
  EXPECT_EQ(SA.Result, Outcome::Solved);
  EXPECT_EQ(SB.Result, Outcome::Solved);
  EXPECT_EQ(SA.Program, SB.Program); // one solve produced both
  EXPECT_EQ(A.source(), ResultSource::Solve);
  EXPECT_EQ(B.source(), ResultSource::Coalesced);

  ServiceStats St = Svc.stats();
  EXPECT_EQ(St.SolvesRun, 2u); // blocker + one shared solve
  EXPECT_EQ(St.Submitted, 3u);
  // A coalesced submission is not also a miss: only the two submissions
  // that fell through to real solves count.
  EXPECT_EQ(St.Cache.Misses, 2u);
}

TEST(SynthService, CoalescedHandlesShareFingerprint) {
  SynthService Svc(longEngine(), ServiceOptions().workers(1));
  JobHandle Blocker = Svc.submit(ghostProblem());
  ASSERT_TRUE(waitUntilStatus(Blocker, JobStatus::Running));
  JobHandle A = Svc.submit(fastProblem(9));
  JobHandle B = Svc.submit(fastProblem(9));
  EXPECT_EQ(A.fingerprint(), B.fingerprint());
  EXPECT_NE(A.fingerprint(), Blocker.fingerprint());
  Blocker.cancel();
  A.get();
  B.get();
}

//===----------------------------------------------------------------------===//
// SynthService: queue saturation and backpressure
//===----------------------------------------------------------------------===//

TEST(SynthService, TrySubmitRefusesWhenSaturated) {
  SynthService Svc(longEngine(),
                   ServiceOptions().workers(1).queueCapacity(1));
  JobHandle Blocker = Svc.submit(ghostProblem(0));
  ASSERT_TRUE(waitUntilStatus(Blocker, JobStatus::Running));

  // The single queue slot takes one job; the next distinct one is refused.
  std::optional<JobHandle> Queued = Svc.trySubmit(ghostProblem(1));
  ASSERT_TRUE(Queued.has_value());
  std::optional<JobHandle> Refused = Svc.trySubmit(ghostProblem(2));
  EXPECT_FALSE(Refused.has_value());
  EXPECT_EQ(Svc.stats().Rejected, 1u);

  // Saturation refuses new *work*, never dedupable traffic: an identical
  // in-flight problem coalesces and a cached one hits, queue full or not.
  std::optional<JobHandle> Coalesced = Svc.trySubmit(ghostProblem(1));
  ASSERT_TRUE(Coalesced.has_value());
  EXPECT_EQ(Svc.stats().Cache.Coalesced, 1u);

  Queued->cancel();
  Coalesced->cancel();
  Blocker.cancel();
  EXPECT_EQ(Blocker.get().Result, Outcome::Cancelled);
}

TEST(SynthService, BlockingSubmitWaitsForASlot) {
  SynthService Svc(longEngine(),
                   ServiceOptions().workers(1).queueCapacity(1));
  JobHandle Blocker = Svc.submit(ghostProblem(0));
  ASSERT_TRUE(waitUntilStatus(Blocker, JobStatus::Running));
  JobHandle Queued = Svc.submit(ghostProblem(1));

  std::atomic<bool> Submitted{false};
  JobHandle Blocked;
  std::thread Submitter([&] {
    Blocked = Svc.submit(ghostProblem(2)); // full: must block
    Submitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(Submitted.load());

  Queued.cancel(); // frees the slot
  Submitter.join();
  EXPECT_TRUE(Submitted.load());
  EXPECT_EQ(Queued.get().Result, Outcome::Cancelled);
  EXPECT_EQ(Queued.source(), ResultSource::QueueCancelled);

  Blocked.cancel();
  Blocker.cancel();
  Blocker.get();
  Blocked.get();
}

//===----------------------------------------------------------------------===//
// SynthService: deadlines
//===----------------------------------------------------------------------===//

TEST(SynthService, BlockingSubmitHonorsTheDeadlineWhenSaturated) {
  SynthService Svc(longEngine(),
                   ServiceOptions().workers(1).queueCapacity(1));
  JobHandle Blocker = Svc.submit(ghostProblem(0));
  ASSERT_TRUE(waitUntilStatus(Blocker, JobStatus::Running));
  JobHandle Queued = Svc.submit(ghostProblem(1)); // fills the only slot

  // Queue full, worker busy: a deadline-bearing submit must give up at
  // its deadline instead of parking until saturation ends.
  JobHandle D = Svc.submit(
      ghostProblem(2), JobRequest().deadline(std::chrono::milliseconds(50)));
  EXPECT_EQ(D.status(), JobStatus::Done); // completed inside submit
  EXPECT_EQ(D.get().Result, Outcome::Timeout);
  EXPECT_EQ(D.source(), ResultSource::QueueDeadline);

  Queued.cancel();
  Blocker.cancel();
  Queued.get();
  Blocker.get();
}

TEST(SynthService, ExhaustedUnderADeadlineIsStillCached) {
  // Exhausted means the bounded space emptied *before* the deadline fired
  // (a clamp that fires reports Timeout), so the verdict is as definitive
  // as an unclamped one and must be cached.
  Engine E = Engine::standard(
      EngineOptions().maxComponents(1).timeout(std::chrono::seconds(60)));
  SynthService Svc(E, ServiceOptions().workers(1));
  JobHandle H = Svc.submit(ghostProblem(22),
                           JobRequest().deadline(std::chrono::seconds(30)));
  EXPECT_EQ(H.get().Result, Outcome::Exhausted);

  JobHandle Again = Svc.submit(ghostProblem(22));
  EXPECT_EQ(Again.source(), ResultSource::CacheHit);
  EXPECT_EQ(Again.get().Result, Outcome::Exhausted);
}

TEST(SynthService, NonTruncatingDeadlineStillCachesFullBudgetTimeouts) {
  // Engine budget 200 ms (part of the cache key); the 60 s job deadline
  // can never cut it short, so the Timeout verdict is as good as an
  // unclamped one and must be cached for deadline-free repeats.
  Engine E = Engine::standard(
      EngineOptions().timeout(std::chrono::milliseconds(200)));
  SynthService Svc(E, ServiceOptions().workers(1));
  JobHandle H = Svc.submit(ghostProblem(21),
                           JobRequest().deadline(std::chrono::seconds(60)));
  EXPECT_EQ(H.get().Result, Outcome::Timeout);
  EXPECT_EQ(H.source(), ResultSource::Solve);

  JobHandle Again = Svc.submit(ghostProblem(21));
  EXPECT_EQ(Again.source(), ResultSource::CacheHit);
  EXPECT_EQ(Again.get().Result, Outcome::Timeout);
}

TEST(SynthService, DeadlineExpiredInQueueCompletesAsTimeoutWithoutRunning) {
  SynthService Svc(longEngine(), ServiceOptions().workers(1));
  JobHandle Blocker = Svc.submit(ghostProblem(0));
  ASSERT_TRUE(waitUntilStatus(Blocker, JobStatus::Running));

  JobHandle D = Svc.submit(
      fastProblem(3), JobRequest().deadline(std::chrono::milliseconds(30)));
  // The whole point of deadlines is bounding latency *while the service
  // is saturated*: with the only worker still busy, the reaper must
  // complete D at its deadline — get() may not wait for the worker.
  uint64_t SolvesBefore = Svc.stats().SolvesRun;
  EXPECT_EQ(D.get().Result, Outcome::Timeout);
  EXPECT_EQ(D.source(), ResultSource::QueueDeadline);
  EXPECT_EQ(Blocker.status(), JobStatus::Running); // nobody freed the worker
  EXPECT_EQ(Svc.stats().SolvesRun, SolvesBefore);  // D never ran
  EXPECT_EQ(Svc.stats().QueueDeadlineExpired, 1u);

  Blocker.cancel();
  Blocker.get();
}

TEST(SynthService, ExpiredFollowerIsShedWithoutTimingOutOtherWaiters) {
  SynthService Svc(longEngine(), ServiceOptions().workers(1));
  JobHandle Blocker = Svc.submit(ghostProblem(0));
  ASSERT_TRUE(waitUntilStatus(Blocker, JobStatus::Running));

  // A has no deadline; B coalesces onto the same queued solve with a
  // deadline that expires while both wait. Only B may time out, and A's
  // solve must run unclamped.
  JobHandle A = Svc.submit(fastProblem(11));
  JobHandle B = Svc.submit(
      fastProblem(11), JobRequest().deadline(std::chrono::milliseconds(30)));
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  Blocker.cancel();
  Blocker.get();

  EXPECT_EQ(B.get().Result, Outcome::Timeout);
  EXPECT_EQ(B.source(), ResultSource::QueueDeadline);
  EXPECT_EQ(A.get().Result, Outcome::Solved);
  EXPECT_EQ(A.source(), ResultSource::Solve);
}

TEST(SynthService, CancellingDeadlineFreeWaiterRestoresTheClamp) {
  SynthService Svc(longEngine(), ServiceOptions().workers(1));
  JobHandle Blocker = Svc.submit(ghostProblem(0));
  ASSERT_TRUE(waitUntilStatus(Blocker, JobStatus::Running));

  // A (no deadline) unclamps the shared queued solve; B coalesces with a
  // deadline. Once A cancels, B's deadline must bound the solve again —
  // otherwise B would block for the full 120 s engine budget.
  JobHandle A = Svc.submit(ghostProblem(12));
  JobHandle B = Svc.submit(
      ghostProblem(12), JobRequest().deadline(std::chrono::milliseconds(300)));
  A.cancel();
  EXPECT_EQ(A.get().Result, Outcome::Cancelled);

  Blocker.cancel();
  Blocker.get();
  auto Start = std::chrono::steady_clock::now();
  EXPECT_EQ(B.get().Result, Outcome::Timeout);
  double Elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  EXPECT_LT(Elapsed, 60.0); // generous ceiling, far below the engine budget
}

TEST(SynthService, DeadlineTruncatedTimeoutIsNotCached) {
  SynthService Svc(longEngine(), ServiceOptions().workers(1));
  // The 150 ms deadline cuts the 120 s engine budget short: a Timeout
  // that says nothing about the problem under the fingerprinted budget,
  // so it must not be served to a later deadline-free request.
  JobHandle H = Svc.submit(
      ghostProblem(20), JobRequest().deadline(std::chrono::milliseconds(150)));
  EXPECT_EQ(H.get().Result, Outcome::Timeout);

  JobHandle Again = Svc.submit(ghostProblem(20));
  EXPECT_NE(Again.source(), ResultSource::CacheHit);
  Again.cancel();
  Again.get();
}

TEST(SynthService, PortfolioDeniedByDeadlineReportsTimeoutNotExhausted) {
  // A deadline that expires before any portfolio member starts denies the
  // search *time*, not space — misreporting it as Exhausted would let the
  // cache serve a bogus definitive verdict to deadline-free requests.
  Engine E = Engine::standard(EngineOptions()
                                  .strategy(Strategy::Portfolio)
                                  .timeout(std::chrono::seconds(30)));
  Solution S = E.solve(fastProblem(17), CancellationToken(),
                       std::chrono::steady_clock::now() -
                           std::chrono::milliseconds(1));
  EXPECT_FALSE(S);
  EXPECT_EQ(S.Result, Outcome::Timeout);
}

TEST(SynthService, ZeroQueueCapacityIsClampedNotDeadlocked) {
  SynthService Svc(longEngine(),
                   ServiceOptions().workers(1).queueCapacity(0));
  EXPECT_EQ(Svc.options().queueCapacity(), 1u);
  JobHandle H = Svc.submit(fastProblem(18)); // must not hang
  EXPECT_EQ(H.get().Result, Outcome::Solved);
}

TEST(SynthService, RiderOnARunningSolveIsShedAtItsOwnDeadline) {
  SynthService Svc(longEngine(), ServiceOptions().workers(1));
  // A's unclamped solve of an unsolvable problem is already running when
  // B coalesces onto it with a short deadline: B must complete as
  // Timeout at ~its deadline while A's solve keeps going.
  JobHandle A = Svc.submit(ghostProblem(23));
  ASSERT_TRUE(waitUntilStatus(A, JobStatus::Running));
  JobHandle B = Svc.submit(
      ghostProblem(23), JobRequest().deadline(std::chrono::milliseconds(100)));
  EXPECT_EQ(B.source(), ResultSource::Coalesced);

  auto Start = std::chrono::steady_clock::now();
  EXPECT_EQ(B.get().Result, Outcome::Timeout);
  double Elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  EXPECT_LT(Elapsed, 60.0);                 // far below the 120 s budget
  EXPECT_NE(A.status(), JobStatus::Done);   // the shared solve lives on
  EXPECT_EQ(Svc.stats().RiderDeadlineExpired, 1u);
  EXPECT_EQ(Svc.stats().QueueDeadlineExpired, 0u);
  A.cancel();
  EXPECT_EQ(A.get().Result, Outcome::Cancelled);
}

TEST(SynthService, DeadlineFreeSubmissionDoesNotInheritAClampedSolve) {
  SynthService Svc(longEngine(), ServiceOptions().workers(2));
  // A's solve starts clamped to 300 ms; B (no deadline) must not ride it
  // — it would inherit A's truncated Timeout — but start a fresh solve.
  JobHandle A = Svc.submit(
      ghostProblem(24), JobRequest().deadline(std::chrono::milliseconds(300)));
  ASSERT_TRUE(waitUntilStatus(A, JobStatus::Running));
  JobHandle B = Svc.submit(ghostProblem(24));
  EXPECT_NE(B.source(), ResultSource::Coalesced);

  EXPECT_EQ(A.get().Result, Outcome::Timeout);
  // A's clamp fired, but B's own (unclamped, 120 s) search is still on.
  EXPECT_NE(B.status(), JobStatus::Done);
  B.cancel();
  EXPECT_EQ(B.get().Result, Outcome::Cancelled);
}

TEST(SynthService, RiderDeadlinesSurviveInflightReplacement) {
  SynthService Svc(longEngine(), ServiceOptions().workers(2));
  // A's clamped solve carries rider B; C (no deadline) is incompatible
  // and replaces the in-flight registration with a fresh solve. B's
  // deadline must still fire on the now index-invisible running work.
  JobHandle A = Svc.submit(
      ghostProblem(25), JobRequest().deadline(std::chrono::seconds(30)));
  ASSERT_TRUE(waitUntilStatus(A, JobStatus::Running));
  JobHandle B = Svc.submit(
      ghostProblem(25), JobRequest().deadline(std::chrono::milliseconds(150)));
  EXPECT_EQ(B.source(), ResultSource::Coalesced);
  JobHandle C = Svc.submit(ghostProblem(25));
  EXPECT_NE(C.source(), ResultSource::Coalesced);

  auto Start = std::chrono::steady_clock::now();
  EXPECT_EQ(B.get().Result, Outcome::Timeout);
  double Elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  EXPECT_LT(Elapsed, 20.0); // fired at ~150 ms, far below every budget
  EXPECT_NE(A.status(), JobStatus::Done); // the shared solve lives on

  A.cancel();
  C.cancel();
  A.get();
  C.get();
}

TEST(SynthService, DeadlineBoundsARunningSolve) {
  SynthService Svc(longEngine(), ServiceOptions().workers(1));
  // Engine budget is 120 s; the job deadline must cut the search short.
  JobHandle H = Svc.submit(
      ghostProblem(5), JobRequest().deadline(std::chrono::milliseconds(200)));
  auto Start = std::chrono::steady_clock::now();
  const Solution &S = H.get();
  double Elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  EXPECT_EQ(S.Result, Outcome::Timeout);
  EXPECT_EQ(H.source(), ResultSource::Solve);
  EXPECT_LT(Elapsed, 60.0); // generous ceiling, far below the engine budget
}

//===----------------------------------------------------------------------===//
// SynthService: cancellation
//===----------------------------------------------------------------------===//

TEST(SynthService, CancelWhileQueuedNeverRuns) {
  SynthService Svc(longEngine(), ServiceOptions().workers(1));
  JobHandle Blocker = Svc.submit(ghostProblem(0));
  ASSERT_TRUE(waitUntilStatus(Blocker, JobStatus::Running));

  JobHandle Q = Svc.submit(fastProblem(4));
  EXPECT_EQ(Q.status(), JobStatus::Queued);
  Q.cancel();
  EXPECT_EQ(Q.status(), JobStatus::Done);
  EXPECT_EQ(Q.get().Result, Outcome::Cancelled);
  EXPECT_EQ(Q.source(), ResultSource::QueueCancelled);
  EXPECT_EQ(Svc.stats().QueueCancelled, 1u);

  uint64_t SolvesBefore = Svc.stats().SolvesRun;
  Blocker.cancel();
  Blocker.get();
  Svc.drain();
  EXPECT_EQ(Svc.stats().SolvesRun, SolvesBefore); // Q never reached a worker
}

TEST(SynthService, CancelWhileRunningStopsTheSearch) {
  SynthService Svc(longEngine(), ServiceOptions().workers(1));
  JobHandle H = Svc.submit(ghostProblem(6));
  ASSERT_TRUE(waitUntilStatus(H, JobStatus::Running));
  H.cancel();
  const Solution &S = H.get(); // must return far before the 120 s budget
  EXPECT_EQ(S.Result, Outcome::Cancelled);
  EXPECT_EQ(H.source(), ResultSource::Solve);
  Svc.drain();
  // Cancelled searches are not reusable verdicts: nothing was cached.
  JobHandle Again = Svc.trySubmit(ghostProblem(6)).value();
  EXPECT_NE(Again.source(), ResultSource::CacheHit);
  Again.cancel();
  Again.get();
}

TEST(SynthService, NewSubmissionDoesNotCoalesceOntoACancelledSolve) {
  SynthService Svc(longEngine(), ServiceOptions().workers(1));
  JobHandle H = Svc.submit(ghostProblem(16));
  ASSERT_TRUE(waitUntilStatus(H, JobStatus::Running));
  H.cancel();
  // The doomed solve may still be winding down; an identical submission
  // in that window must start fresh, not inherit the Cancelled result.
  JobHandle Again = Svc.submit(ghostProblem(16));
  EXPECT_NE(Again.source(), ResultSource::Coalesced);
  EXPECT_EQ(H.get().Result, Outcome::Cancelled);
  Again.cancel();
  EXPECT_EQ(Again.get().Result, Outcome::Cancelled);
}

TEST(SynthService, UrgentDuplicatePromotesTheSharedWork) {
  SynthService Svc(longEngine(), ServiceOptions().workers(1));
  JobHandle Blocker = Svc.submit(ghostProblem(0));
  ASSERT_TRUE(waitUntilStatus(Blocker, JobStatus::Running));

  // Lazy submits P at priority 0, Mid overtakes at 5 — until an urgent
  // duplicate of P arrives at 9 and promotes the shared work past Mid.
  JobHandle Lazy = Svc.submit(fastProblem(13), JobRequest().priority(0));
  JobHandle Mid = Svc.submit(ghostProblem(14), JobRequest().priority(5));
  JobHandle Urgent = Svc.submit(fastProblem(13), JobRequest().priority(9));
  EXPECT_EQ(Urgent.source(), ResultSource::Coalesced);

  Blocker.cancel();
  Blocker.get();
  EXPECT_EQ(Urgent.get().Result, Outcome::Solved);
  EXPECT_EQ(Lazy.get().Result, Outcome::Solved); // same solve, same ride
  // The single worker took the promoted work first; without promotion it
  // would have buried itself in Mid's effectively-endless search instead.
  EXPECT_NE(Mid.status(), JobStatus::Done);
  Mid.cancel();
  EXPECT_EQ(Mid.get().Result, Outcome::Cancelled);
}

TEST(SynthService, CancellingOneCoalescedHandleKeepsTheSolveAlive) {
  SynthService Svc(longEngine(), ServiceOptions().workers(1));
  JobHandle Blocker = Svc.submit(ghostProblem(0));
  ASSERT_TRUE(waitUntilStatus(Blocker, JobStatus::Running));
  JobHandle A = Svc.submit(fastProblem(8));
  JobHandle B = Svc.submit(fastProblem(8));

  A.cancel(); // the leader gives up; B still wants the result
  EXPECT_EQ(A.get().Result, Outcome::Cancelled);
  Blocker.cancel();
  EXPECT_EQ(B.get().Result, Outcome::Solved);
}

//===----------------------------------------------------------------------===//
// SynthService: priority, LRU through the service, shutdown
//===----------------------------------------------------------------------===//

TEST(SynthService, HigherPriorityDequeuesFirst) {
  SynthService Svc(longEngine(), ServiceOptions().workers(1));
  JobHandle Blocker = Svc.submit(ghostProblem(0));
  ASSERT_TRUE(waitUntilStatus(Blocker, JobStatus::Running));

  // Submitted first but low priority; the urgent one must overtake it.
  JobHandle Low = Svc.submit(ghostProblem(1), JobRequest().priority(0));
  JobHandle High = Svc.submit(fastProblem(2), JobRequest().priority(5));

  Blocker.cancel();
  Blocker.get();
  EXPECT_EQ(High.get().Result, Outcome::Solved);
  // The single worker picked High first, so Low cannot be done yet — it is
  // either still queued or only just started.
  EXPECT_NE(Low.status(), JobStatus::Done);
  Low.cancel();
  Low.get();
}

TEST(SynthService, CacheLruEvictionAcrossJobs) {
  SynthService Svc(longEngine(),
                   ServiceOptions().workers(1).cacheCapacity(2));
  Svc.submit(identityProblem(1)).get();
  Svc.submit(identityProblem(2)).get();
  Svc.submit(identityProblem(3)).get(); // evicts problem 1

  JobHandle H3 = Svc.submit(identityProblem(3));
  EXPECT_EQ(H3.source(), ResultSource::CacheHit);
  JobHandle H1 = Svc.submit(identityProblem(1)); // miss: must re-solve
  EXPECT_EQ(H1.get().Result, Outcome::Solved);
  EXPECT_EQ(H1.source(), ResultSource::Solve);

  ServiceStats St = Svc.stats();
  EXPECT_EQ(St.Cache.Evictions, 2u); // id1 evicted, then id2 by id1's redo
  EXPECT_EQ(St.Cache.Hits, 1u);
  EXPECT_EQ(St.SolvesRun, 4u);
}

TEST(SynthService, DestructionCancelsQueuedAndRunningJobs) {
  JobHandle Running, Queued;
  {
    SynthService Svc(longEngine(), ServiceOptions().workers(1));
    Running = Svc.submit(ghostProblem(0));
    ASSERT_TRUE(waitUntilStatus(Running, JobStatus::Running));
    Queued = Svc.submit(ghostProblem(1));
  } // ~SynthService joins its pool after completing both
  EXPECT_EQ(Running.status(), JobStatus::Done);
  EXPECT_EQ(Running.get().Result, Outcome::Cancelled);
  EXPECT_EQ(Queued.get().Result, Outcome::Cancelled);
  EXPECT_EQ(Queued.source(), ResultSource::QueueCancelled);
}

/// JobRequest::onDone runs exactly once per accepted handle, whichever
/// path completes it, and only once the handle is Done; a trySubmit
/// refusal never runs it.
TEST(SynthService, OnDoneRunsOncePerAcceptedHandle) {
  std::array<std::atomic<int>, 9> Calls{};
  auto Counted = [&Calls](size_t I) {
    return JobRequest().onDone([&Calls, I] { Calls[I].fetch_add(1); });
  };
  // Worker completions run the hook just after waking get(): poll for it.
  auto WaitCalled = [&Calls](size_t I) {
    for (int T = 0; T != 20000 && Calls[I].load() == 0; ++T)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return Calls[I].load() == 1;
  };
  JobHandle Blocker, A, B, Hit, Expired, Cancelled, DRunning, DQueued;
  {
    SynthService Svc(longEngine(),
                     ServiceOptions().workers(1).queueCapacity(2));
    Blocker = Svc.submit(ghostProblem(30), Counted(0));
    ASSERT_TRUE(waitUntilStatus(Blocker, JobStatus::Running));
    A = Svc.submit(fastProblem(30), Counted(1));
    B = Svc.submit(fastProblem(30), Counted(2)); // coalesces onto A
    Expired = Svc.submit(ghostProblem(31),
                         Counted(4).deadline(std::chrono::milliseconds(50)));
    // The queue (A, Expired) is full: refused, and never called back.
    EXPECT_FALSE(Svc.trySubmit(ghostProblem(32), Counted(6)).has_value());
    ASSERT_TRUE(WaitCalled(4));
    EXPECT_EQ(Expired.source(), ResultSource::QueueDeadline);

    Cancelled = Svc.submit(fastProblem(31), Counted(5));
    EXPECT_EQ(Calls[5].load(), 0);
    Cancelled.cancel();
    EXPECT_EQ(Calls[5].load(), 1);
    EXPECT_EQ(Cancelled.source(), ResultSource::QueueCancelled);

    Blocker.cancel();
    ASSERT_TRUE(WaitCalled(0));
    ASSERT_TRUE(WaitCalled(1));
    ASSERT_TRUE(WaitCalled(2));
    EXPECT_EQ(A.source(), ResultSource::Solve);
    EXPECT_EQ(B.source(), ResultSource::Coalesced);

    Hit = Svc.submit(fastProblem(30), Counted(3));
    EXPECT_EQ(Calls[3].load(), 1); // ran inside submit
    EXPECT_EQ(Hit.source(), ResultSource::CacheHit);
  }
  {
    SynthService Svc(longEngine(), ServiceOptions().workers(1));
    DRunning = Svc.submit(ghostProblem(33), Counted(7));
    ASSERT_TRUE(waitUntilStatus(DRunning, JobStatus::Running));
    DQueued = Svc.submit(ghostProblem(34), Counted(8));
    EXPECT_EQ(Calls[7].load(), 0);
    EXPECT_EQ(Calls[8].load(), 0);
  } // destruction cancels both
  EXPECT_EQ(DQueued.source(), ResultSource::QueueCancelled);

  // Every pool has been joined: the counts are final.
  const JobHandle *Handles[] = {&Blocker, &A,         &B,        &Hit,
                                &Expired, &Cancelled, nullptr,   &DRunning,
                                &DQueued};
  for (size_t I = 0; I != Calls.size(); ++I) {
    if (!Handles[I]) {
      EXPECT_EQ(Calls[I].load(), 0) << "the refused trySubmit";
      continue;
    }
    EXPECT_EQ(Calls[I].load(), 1) << "handle " << I;
    EXPECT_EQ(Handles[I]->status(), JobStatus::Done) << "handle " << I;
  }
}

//===----------------------------------------------------------------------===//
// Engine entry points
//===----------------------------------------------------------------------===//

TEST(Engine, SolveBatchDeduplicatesAndPreservesOrder) {
  Engine E = longEngine();
  std::vector<Problem> Batch = {fastProblem(1), fastProblem(2),
                                fastProblem(1), fastProblem(2)};
  std::vector<Solution> Out = E.solveBatch(Batch, /*Workers=*/2);
  ASSERT_EQ(Out.size(), 4u);
  for (const Solution &S : Out)
    EXPECT_EQ(S.Result, Outcome::Solved);
  // Duplicates share the one underlying solve's program.
  EXPECT_EQ(Out[0].Program, Out[2].Program);
  EXPECT_EQ(Out[1].Program, Out[3].Program);
  // And each slot answers its own problem.
  std::optional<Table> T0 = Out[0].Program->evaluate(Batch[0].Inputs);
  ASSERT_TRUE(T0);
  EXPECT_TRUE(T0->equalsUnordered(Batch[0].Output));
}

TEST(Engine, SharedServiceSolves) {
  SynthService &Svc = Engine::shared();
  JobHandle H = Svc.submit(fastProblem(42));
  EXPECT_EQ(H.get().Result, Outcome::Solved);
  // Same process-wide instance on every call.
  EXPECT_EQ(&Engine::shared(), &Svc);
}

} // namespace
