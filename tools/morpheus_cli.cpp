//===- tools/morpheus_cli.cpp - The morpheus command-line tool ----------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The user-facing entry point: point MORPHEUS at a JSON problem file and
/// get back the tidyr/dplyr R program that performs the transformation.
///
///   morpheus solve task.json [--strategy sequential|portfolio]
///                            [--emit r|sexp|both] [--timeout MS]
///                            [--threads N] [--spec spec1|spec2]
///                            [--no-deduction] [--library tidy|sql]
///   morpheus bench --suite morpheus|sql [--config spec2|spec1|nodeduction]
///                            [--strategy sequential|portfolio]
///                            [--timeout MS] [--threads N] [--limit N]
///   morpheus serve [--workers N] [--queue N] [--cache N] [--timeout MS]
///                            [--strategy ...] [--spec ...] [--library ...]
///
/// serve reads one JSON request per stdin line and writes one JSON
/// response per line (in request order) through a SynthService: concurrent
/// workers, fingerprint-keyed result cache, single-flight dedup.
///
/// Exit codes: 0 solved / bench or serve completed, 2 usage or input
/// error; `solve` distinguishes failures: 3 timeout, 4 search space
/// exhausted, 5 cancelled.
///
//===----------------------------------------------------------------------===//

#include "analysis/SpecLint.h"
#include "analysis/SpecMutants.h"
#include "api/Engine.h"
#include "bus/EventBus.h"
#include "bus/Replay.h"
#include "bus/TrafficRecorder.h"
#include "cluster/ClusterClient.h"
#include "cluster/WorkerNode.h"
#include "interp/Components.h"
#include "io/Json.h"
#include "io/ProblemIO.h"
#include "io/ProgramIO.h"
#include "io/TableIO.h"
#include "net/Protocol.h"
#include "net/Socket.h"
#include "service/SynthService.h"
#include "suite/Runner.h"
#include "support/Sync.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <thread>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

using namespace morpheus;

namespace {

int usage(const char *Msg = nullptr) {
  if (Msg)
    std::fprintf(stderr, "error: %s\n\n", Msg);
  std::fprintf(
      stderr,
      "usage:\n"
      "  morpheus solve <task.json> [options]   synthesize a program for a\n"
      "                                         JSON problem file\n"
      "  morpheus bench [options]               run a compiled-in benchmark\n"
      "                                         suite\n"
      "  morpheus serve [options]               JSON-lines synthesis service\n"
      "                                         on stdin/stdout\n"
      "  morpheus worker --listen HOST:PORT     cluster worker: serve the\n"
      "                                         binary wire protocol on TCP\n"
      "  morpheus replay <log.jsonl> [options]  re-drive a recorded traffic\n"
      "                                         log and diff the outcomes\n"
      "  morpheus analyze [options]             lint the component library's\n"
      "                                         specs with the SMT solver\n"
      "\n"
      "solve options:\n"
      "  --strategy sequential|portfolio  search strategy (default\n"
      "                                   sequential)\n"
      "  --emit r|sexp|both               program output form (default r)\n"
      "  --timeout MS                     wall-clock budget (default 30000)\n"
      "  --threads N                      portfolio pool size (default:\n"
      "                                   hardware concurrency)\n"
      "  --spec spec1|spec2               specification family (default\n"
      "                                   spec2)\n"
      "  --no-deduction                   disable SMT deduction\n"
      "  --library tidy|sql               component library (default tidy)\n"
      "  --quiet                          print only the program\n"
      "\n"
      "bench options:\n"
      "  --suite morpheus|sql             which suite (default morpheus)\n"
      "  --config spec2|spec1|nodeduction paper configuration (default\n"
      "                                   spec2)\n"
      "  --strategy, --timeout, --threads as above (default timeout 5000)\n"
      "  --limit N                        run only the first N tasks\n"
      "  --json PATH                      write a perf snapshot (per-task\n"
      "                                   solve times + candidate\n"
      "                                   throughput)\n"
      "  --state-dir DIR                  run the suite through a service\n"
      "                                   with durable warm state in DIR\n"
      "                                   (created if missing); a second\n"
      "                                   run restarts warm\n"
      "\n"
      "serve options:\n"
      "  --workers N                      worker pool size (default:\n"
      "                                   hardware concurrency)\n"
      "  --queue N                        bounded request queue (default 256)\n"
      "  --cache N                        result-cache entries (default 512,\n"
      "                                   0 disables)\n"
      "  --record PATH                    write a replayable traffic log\n"
      "                                   (JSON-lines, one line per job)\n"
      "  --state-dir DIR                  persist the result cache in DIR\n"
      "                                   (created if missing) and restore\n"
      "                                   it at startup\n"
      "  --cluster H1:P1,H2:P2,...        forward jobs to worker nodes,\n"
      "                                   sharded by problem fingerprint;\n"
      "                                   unreachable shards fail back to\n"
      "                                   local solving (excludes --record)\n"
      "  --strategy, --timeout, --threads, --spec, --no-deduction,\n"
      "  --library                        as for solve\n"
      "\n"
      "worker options:\n"
      "  --listen HOST:PORT               bind address (port 0 = ephemeral,\n"
      "                                   printed on startup); required\n"
      "  --name NAME                      name announced to coordinators\n"
      "  --workers, --queue, --cache, --state-dir,\n"
      "  engine flags                     as for serve; must match the\n"
      "                                   coordinator's (the handshake\n"
      "                                   verifies and refuses mismatches)\n"
      "\n"
      "replay options:\n"
      "  --timing fast|recorded           submit back-to-back (default) or\n"
      "                                   at the recorded inter-arrival gaps\n"
      "  --speed X                        scale recorded gaps by X (0.5 =\n"
      "                                   twice as fast; implies recorded)\n"
      "  --no-deadlines, --no-priorities  drop the recorded deadlines /\n"
      "                                   priorities\n"
      "  --workers, --queue, --cache      service shape, as for serve\n"
      "  engine flags                     as for serve; match the recording\n"
      "                                   run for outcomes to reproduce\n"
      "\n"
      "analyze options:\n"
      "  --library tidy|sql|all           component library to lint\n"
      "                                   (default all)\n"
      "  --json PATH                      write the machine-readable report\n"
      "  --pedantic                       warnings become errors; also flag\n"
      "                                   components the soundness check\n"
      "                                   could not exercise\n"
      "  --no-soundness                   satisfiability/refinement checks\n"
      "                                   only (skip scenario enumeration)\n"
      "  --self-check                     also run the seeded-mutant sweep\n"
      "                                   proving the linter catches\n"
      "                                   unsound specs\n"
      "  --quiet                          print only the summary line\n"
      "\n"
      "solve exit codes: 0 solved, 2 usage/input error, 3 timeout,\n"
      "4 exhausted, 5 cancelled\n"
      "replay exit codes: 0 outcomes+programs reproduced, 1 diverged,\n"
      "2 usage/input error\n"
      "analyze exit codes: 0 clean, 1 findings (or self-check failure),\n"
      "2 usage/input error\n");
  return 2;
}

/// `morpheus solve`'s exit code for a finished search: scripts can tell a
/// budget problem (retry with more time) from an exhausted space (the
/// problem is out of scope) without parsing stderr.
int exitCodeFor(Outcome O) {
  switch (O) {
  case Outcome::Solved:
    return 0;
  case Outcome::Timeout:
    return 3;
  case Outcome::Exhausted:
    return 4;
  case Outcome::Cancelled:
    return 5;
  }
  return 1;
}

struct ArgReader {
  std::vector<std::string> Args;
  size_t I = 0;

  bool done() const { return I >= Args.size(); }
  const std::string &peek() const { return Args[I]; }
  std::string next() { return Args[I++]; }

  /// Consumes "--flag value"; false (with message) when the value is gone.
  bool value(const std::string &Flag, std::string &Out) {
    if (done()) {
      std::fprintf(stderr, "error: %s needs a value\n", Flag.c_str());
      return false;
    }
    Out = next();
    return true;
  }
};

/// Creates \p Path as a directory when missing; true when it exists (or
/// was created) as a directory afterwards.
bool ensureDir(const std::string &Path) {
  struct stat St;
  if (::stat(Path.c_str(), &St) == 0)
    return S_ISDIR(St.st_mode);
  return ::mkdir(Path.c_str(), 0777) == 0;
}

/// A non-negative decimal int; nullopt on garbage, a negative value, or a
/// value past INT_MAX (casting strtol's long would silently wrap it).
std::optional<int> parseIntArg(const std::string &S) {
  char *End = nullptr;
  errno = 0;
  long V = std::strtol(S.c_str(), &End, 10);
  if (S.empty() || End != S.c_str() + S.size() || V < 0 || errno == ERANGE ||
      V > INT_MAX)
    return std::nullopt;
  return int(V);
}

/// The engine flags shared by `solve` and `serve` (--strategy, --timeout,
/// --threads, --spec, --no-deduction, --library), kept in one place so
/// the two commands cannot drift apart. Returns -1 when \p A is not an
/// engine flag, 0 when consumed, or an exit code on a bad value.
int engineArg(ArgReader &Args, const std::string &A, EngineOptions &Opts,
              std::string &LibraryName) {
  std::string V;
  if (A == "--strategy") {
    if (!Args.value(A, V))
      return 2;
    if (V == "sequential")
      Opts.strategy(Strategy::Sequential);
    else if (V == "portfolio")
      Opts.strategy(Strategy::Portfolio);
    else
      return usage("unknown strategy (use sequential or portfolio)");
    return 0;
  }
  if (A == "--timeout") {
    if (!Args.value(A, V))
      return 2;
    std::optional<int> MS = parseIntArg(V);
    if (!MS)
      return usage("--timeout expects milliseconds");
    Opts.timeout(std::chrono::milliseconds(*MS));
    return 0;
  }
  if (A == "--threads") {
    if (!Args.value(A, V))
      return 2;
    std::optional<int> N = parseIntArg(V);
    if (!N)
      return usage("--threads expects a number");
    Opts.threads(unsigned(*N));
    return 0;
  }
  if (A == "--spec") {
    if (!Args.value(A, V))
      return 2;
    if (V == "spec1")
      Opts.specLevel(SpecLevel::Spec1);
    else if (V == "spec2")
      Opts.specLevel(SpecLevel::Spec2);
    else
      return usage("unknown spec level (use spec1 or spec2)");
    return 0;
  }
  if (A == "--no-deduction") {
    Opts.deduction(false);
    return 0;
  }
  if (A == "--library") {
    if (!Args.value(A, V))
      return 2;
    if (V != "tidy" && V != "sql")
      return usage("unknown library (use tidy or sql)");
    LibraryName = V;
    return 0;
  }
  return -1;
}

/// The service-shape flags shared by `serve`, `worker` and `replay`
/// (--workers, --queue, --cache), plus --state-dir for the verbs that
/// keep warm state (pass \p StateDirOpts; null leaves it unconsumed).
/// Returns like engineArg.
int serviceArg(ArgReader &Args, const std::string &A, ServiceOptions &SvcOpts,
               EngineOptions *StateDirOpts) {
  std::string V;
  if (A == "--workers") {
    if (!Args.value(A, V))
      return 2;
    std::optional<int> N = parseIntArg(V);
    if (!N)
      return usage("--workers expects a number");
    SvcOpts.workers(unsigned(*N));
    return 0;
  }
  if (A == "--queue") {
    if (!Args.value(A, V))
      return 2;
    std::optional<int> N = parseIntArg(V);
    if (!N || *N == 0)
      return usage("--queue expects a positive number");
    SvcOpts.queueCapacity(size_t(*N));
    return 0;
  }
  if (A == "--cache") {
    if (!Args.value(A, V))
      return 2;
    std::optional<int> N = parseIntArg(V);
    if (!N)
      return usage("--cache expects a number");
    SvcOpts.cacheCapacity(size_t(*N));
    return 0;
  }
  if (A == "--state-dir" && StateDirOpts) {
    if (!Args.value(A, V))
      return 2;
    if (!ensureDir(V))
      return usage(("cannot create state dir " + V).c_str());
    StateDirOpts->stateDir(V);
    return 0;
  }
  return -1;
}

/// The component library a --library value names ("sql", else tidy).
ComponentLibrary libraryNamed(const std::string &Name) {
  const StandardComponents &SC = StandardComponents::get();
  return Name == "sql" ? SC.sqlRelevant() : SC.tidyDplyr();
}

int runSolve(ArgReader &Args) {
  std::string TaskPath, Emit = "r", LibraryName = "tidy";
  EngineOptions Opts;
  Opts.timeout(std::chrono::milliseconds(30000));
  bool Quiet = false;

  while (!Args.done()) {
    std::string A = Args.next();
    std::string V;
    if (int E = engineArg(Args, A, Opts, LibraryName); E >= 0) {
      if (E > 0)
        return E;
    } else if (A == "--emit") {
      if (!Args.value(A, V))
        return 2;
      if (V != "r" && V != "sexp" && V != "both")
        return usage("unknown emit form (use r, sexp or both)");
      Emit = V;
    } else if (A == "--quiet") {
      Quiet = true;
    } else if (!A.empty() && A[0] == '-') {
      return usage(("unknown option " + A).c_str());
    } else if (TaskPath.empty()) {
      TaskPath = A;
    } else {
      return usage("more than one task file given");
    }
  }
  if (TaskPath.empty())
    return usage("solve needs a task file");

  std::string Err;
  std::optional<Problem> P = loadProblem(TaskPath, &Err);
  if (!P) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 2;
  }

  Engine E(libraryNamed(LibraryName), Opts);
  if (!Quiet) {
    std::printf("task %s: %zu input table(s), output %zux%zu, strategy %s\n",
                P->Name.c_str(), P->Inputs.size(), P->Output.numRows(),
                P->Output.numCols(),
                std::string(strategyName(Opts.strategy())).c_str());
  }

  Solution S = E.solve(*P);
  if (!S) {
    std::fprintf(stderr, "no program found: %s after %.2fs (%llu hypotheses)\n",
                 std::string(outcomeName(S.Result)).c_str(), S.Seconds,
                 (unsigned long long)S.Stats.HypothesesExplored);
    return exitCodeFor(S.Result);
  }

  if (!Quiet)
    std::printf("solved in %.2fs (%llu hypotheses, %llu candidates)\n\n",
                S.Seconds, (unsigned long long)S.Stats.HypothesesExplored,
                (unsigned long long)S.Stats.CandidatesChecked);
  if (Emit == "r" || Emit == "both")
    std::printf("%s", emitRProgram(S.Program, P->inputNames()).c_str());
  if (Emit == "both")
    std::printf("\n");
  if (Emit == "sexp" || Emit == "both")
    std::printf("%s\n", printSexp(S.Program).c_str());
  return 0;
}

/// The deduce() counters a task and the summary both report, then the
/// time deduce() spent in all and in each of its measured phases.
void setDeduceStats(JsonValue &D, const DeduceStats &DS) {
  D.set("calls", JsonValue::number(double(DS.Calls)));
  D.set("rejections", JsonValue::number(double(DS.Rejections)));
  D.set("fastpath_rejections",
        JsonValue::number(double(DS.FastPathRejections)));
  D.set("cache_hits", JsonValue::number(double(DS.CacheHits)));
  D.set("solver_checks", JsonValue::number(double(DS.SolverChecks)));
  D.set("template_hits", JsonValue::number(double(DS.TemplateHits)));
  D.set("session_builds", JsonValue::number(double(DS.SessionBuilds)));
  D.set("session_hits", JsonValue::number(double(DS.SessionHits)));
  D.set("pushes", JsonValue::number(double(DS.SolverPushes)));
  D.set("pops", JsonValue::number(double(DS.SolverPops)));
  D.set("solver_seconds", JsonValue::number(DS.SolverSeconds));
  D.set("signature_seconds", JsonValue::number(DS.SignatureSeconds));
  D.set("session_seconds", JsonValue::number(DS.SessionSeconds));
  D.set("check_seconds", JsonValue::number(DS.CheckSeconds));
}

/// Serializes suite results as the `bench --json` perf snapshot: per-task
/// solve times and candidate-check throughput, plus suite-level
/// aggregates.
JsonValue benchSnapshot(const std::string &SuiteName,
                        const std::string &ConfigName, Strategy Strat,
                        int TimeoutMs, const std::vector<TaskResult> &Results) {
  JsonValue Out = JsonValue::object();
  Out.set("suite", JsonValue::string(SuiteName));
  Out.set("config", JsonValue::string(ConfigName));
  Out.set("strategy", JsonValue::string(std::string(strategyName(Strat))));
  Out.set("timeout_ms", JsonValue::number(double(TimeoutMs)));

  JsonValue Tasks = JsonValue::array();
  uint64_t TotalCandidates = 0, TotalReused = 0;
  double TotalSeconds = 0;
  DeduceStats TotalDeduce;
  for (const TaskResult &R : Results) {
    JsonValue T = JsonValue::object();
    T.set("id", JsonValue::string(R.TaskId));
    T.set("category", JsonValue::string(R.Category));
    T.set("solved", JsonValue::boolean(R.Solved));
    T.set("seconds", JsonValue::number(R.Seconds));
    T.set("program", JsonValue::string(R.ProgramSexp));
    T.set("candidates_checked",
          JsonValue::number(double(R.Stats.CandidatesChecked)));
    T.set("candidates_per_sec",
          JsonValue::number(R.Seconds > 0
                                ? double(R.Stats.CandidatesChecked) / R.Seconds
                                : 0));
    T.set("wall_seconds", JsonValue::number(R.Stats.WallSeconds));
    T.set("reused_completions",
          JsonValue::number(double(R.Stats.ReusedCompletions)));
    JsonValue D = JsonValue::object();
    setDeduceStats(D, R.Stats.Deduce);
    T.set("deduce", std::move(D));
    Tasks.Arr.push_back(std::move(T));
    TotalCandidates += R.Stats.CandidatesChecked;
    TotalReused += R.Stats.ReusedCompletions;
    TotalSeconds += R.Seconds;
    TotalDeduce += R.Stats.Deduce;
  }
  Out.set("tasks", std::move(Tasks));

  JsonValue Summary = JsonValue::object();
  Summary.set("solved", JsonValue::number(double(solvedCount(Results))));
  Summary.set("total", JsonValue::number(double(Results.size())));
  Summary.set("median_solved_seconds",
              JsonValue::number(medianSolvedTime(Results)));
  Summary.set("total_seconds", JsonValue::number(TotalSeconds));
  Summary.set("total_candidates_checked",
              JsonValue::number(double(TotalCandidates)));
  Summary.set("total_reused_completions",
              JsonValue::number(double(TotalReused)));
  Summary.set("aggregate_candidates_per_sec",
              JsonValue::number(TotalSeconds > 0
                                    ? double(TotalCandidates) / TotalSeconds
                                    : 0));
  JsonValue D = JsonValue::object();
  setDeduceStats(D, TotalDeduce);
  // Template compiles depend on how warm the process's Z3 cores are, so
  // only the summary reports them.
  D.set("template_compiles",
        JsonValue::number(double(TotalDeduce.TemplateCompiles)));
  Summary.set("deduce", std::move(D));
  Out.set("summary", std::move(Summary));
  return Out;
}

int runBench(ArgReader &Args) {
  std::string SuiteName = "morpheus", ConfigName = "spec2", JsonPath, StateDir;
  Strategy Strat = Strategy::Sequential;
  int TimeoutMs = 5000;
  unsigned Threads = 0;
  size_t Limit = SIZE_MAX;

  while (!Args.done()) {
    std::string A = Args.next();
    std::string V;
    if (A == "--suite") {
      if (!Args.value(A, V))
        return 2;
      if (V != "morpheus" && V != "sql")
        return usage("unknown suite (use morpheus or sql)");
      SuiteName = V;
    } else if (A == "--config") {
      if (!Args.value(A, V))
        return 2;
      if (V != "spec2" && V != "spec1" && V != "nodeduction")
        return usage("unknown config (use spec2, spec1 or nodeduction)");
      ConfigName = V;
    } else if (A == "--strategy") {
      if (!Args.value(A, V))
        return 2;
      if (V == "sequential")
        Strat = Strategy::Sequential;
      else if (V == "portfolio")
        Strat = Strategy::Portfolio;
      else
        return usage("unknown strategy (use sequential or portfolio)");
    } else if (A == "--timeout") {
      if (!Args.value(A, V))
        return 2;
      std::optional<int> MS = parseIntArg(V);
      if (!MS)
        return usage("--timeout expects milliseconds");
      TimeoutMs = *MS;
    } else if (A == "--threads") {
      if (!Args.value(A, V))
        return 2;
      std::optional<int> N = parseIntArg(V);
      if (!N)
        return usage("--threads expects a number");
      Threads = unsigned(*N);
    } else if (A == "--limit") {
      if (!Args.value(A, V))
        return 2;
      std::optional<int> N = parseIntArg(V);
      if (!N)
        return usage("--limit expects a number");
      Limit = size_t(*N);
    } else if (A == "--json") {
      if (!Args.value(A, V))
        return 2;
      JsonPath = V;
    } else if (A == "--state-dir") {
      if (!Args.value(A, V))
        return 2;
      StateDir = V;
    } else {
      return usage(("unknown option " + A).c_str());
    }
  }
  if (!StateDir.empty() && !ensureDir(StateDir))
    return usage(("cannot create state dir " + StateDir).c_str());

  std::chrono::milliseconds Timeout(TimeoutMs);
  SynthesisConfig Cfg = ConfigName == "spec1" ? configSpec1(Timeout)
                        : ConfigName == "nodeduction"
                            ? configNoDeduction(Timeout)
                            : configSpec2(Timeout);

  std::vector<BenchmarkTask> Suite =
      SuiteName == "sql" ? sqlSuite() : morpheusSuite();
  if (Suite.size() > Limit)
    Suite.resize(Limit);

  std::printf("suite %s (%zu tasks), config %s, strategy %s, timeout %d ms\n",
              SuiteName.c_str(), Suite.size(), ConfigName.c_str(),
              std::string(strategyName(Strat)).c_str(), TimeoutMs);

  std::vector<TaskResult> Results;
  std::optional<ServiceStats> SvcStats;
  if (!StateDir.empty()) {
    // Durable-state arm: the whole suite runs through one SynthService so
    // the ResultCache lives (and persists) across tasks. One worker +
    // sequential submit/get keeps per-task numbers comparable with the
    // plain runSuite loop.
    EngineOptions EOpts;
    EOpts.config(Cfg).strategy(Strat).stateDir(StateDir);
    if (Strat == Strategy::Portfolio)
      EOpts.threads(Threads);
    Engine E = SuiteName == "sql" ? Engine::sql(EOpts) : Engine::standard(EOpts);
    ServiceOptions SvcOpts;
    SvcOpts.workers(1);
    if (SvcOpts.cacheCapacity() < Suite.size())
      SvcOpts.cacheCapacity(Suite.size());
    SynthService Svc(E, SvcOpts);
    Results.reserve(Suite.size());
    for (const BenchmarkTask &T : Suite) {
      JobHandle H = Svc.submit(toProblem(T));
      const Solution &S = H.get();
      TaskResult Row;
      Row.TaskId = T.Id;
      Row.Category = T.Category;
      Row.Solved = bool(S);
      Row.Seconds = S.Seconds;
      if (S.Program)
        Row.ProgramSexp = printSexp(S.Program);
      Row.Stats = S.Stats;
      std::printf("  %s: %s in %.3gs [%s]\n", Row.TaskId.c_str(),
                  Row.Solved ? "solved" : "TIMEOUT/FAIL", Row.Seconds,
                  std::string(resultSourceName(H.source())).c_str());
      std::fflush(stdout);
      Results.push_back(std::move(Row));
    }
    SvcStats = Svc.stats();
    // ~SynthService runs the final checkpoint into StateDir.
  } else {
    Results = Strat == Strategy::Portfolio
                  ? runSuitePortfolio(Suite, Cfg, Threads, &std::cout)
                  : runSuite(Suite, Cfg, &std::cout);
  }

  // Engine seconds SUM across runs (CPU-second flavored); wall seconds
  // MAX within one run and sum across the sequential task loop — under
  // the portfolio strategy the two visibly diverge, which is the point
  // of reporting both.
  SynthesisStats Agg;
  double SumWall = 0;
  for (const TaskResult &R : Results) {
    Agg += R.Stats;
    SumWall += R.Stats.WallSeconds;
  }
  std::printf("\nsolved %zu/%zu, median solved time %.2fs\n",
              solvedCount(Results), Results.size(),
              medianSolvedTime(Results));
  std::printf("engine seconds %.2f (sum), wall seconds %.2f\n",
              Agg.ElapsedSeconds, SumWall);
  const DeduceStats &D = Agg.Deduce;
  std::printf("deduce: %llu calls, %llu solver checks, %llu cache hits, "
              "%llu session hits, %llu template hits, %llu/%llu "
              "pushes/pops\n",
              (unsigned long long)D.Calls,
              (unsigned long long)D.SolverChecks,
              (unsigned long long)D.CacheHits,
              (unsigned long long)D.SessionHits,
              (unsigned long long)D.TemplateHits,
              (unsigned long long)D.SolverPushes,
              (unsigned long long)D.SolverPops);
  std::printf("deduce seconds %.2f: signature %.2f, session %.2f, check "
              "%.2f; %llu candidates, %llu reused completions\n",
              D.SolverSeconds, D.SignatureSeconds, D.SessionSeconds,
              D.CheckSeconds, (unsigned long long)Agg.CandidatesChecked,
              (unsigned long long)Agg.ReusedCompletions);

  if (SvcStats) {
    // One greppable line for the CI warm-restart smoke: a second run over
    // the same --state-dir must show results-loaded > 0 and cache-hits > 0.
    std::printf("warm-state: results-loaded %llu, results-dropped %llu, "
                "torn-tails %llu, files-rejected %llu, cache-hits %llu, "
                "warm-loaded %llu, solver-checks %llu\n",
                (unsigned long long)SvcStats->Warm.ResultsLoaded,
                (unsigned long long)SvcStats->Warm.ResultsDropped,
                (unsigned long long)SvcStats->Warm.TornTails,
                (unsigned long long)SvcStats->Warm.FilesRejected,
                (unsigned long long)SvcStats->Cache.Hits,
                (unsigned long long)SvcStats->Cache.WarmLoaded,
                (unsigned long long)D.SolverChecks);
  }

  if (!JsonPath.empty()) {
    JsonValue Snapshot =
        benchSnapshot(SuiteName, ConfigName, Strat, TimeoutMs, Results);
    std::string Err;
    if (!writeFile(JsonPath, Snapshot.dump(2), &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 2;
    }
    std::printf("wrote %s\n", JsonPath.c_str());
  }

  return 0;
}

//===----------------------------------------------------------------------===//
// serve: JSON-lines requests on stdin -> JSON-lines responses on stdout
//===----------------------------------------------------------------------===//

/// One accepted stdin line awaiting its response: a submitted job, or a
/// parse/schema error to report in sequence. A dedicated flusher thread
/// prints responses in request order as each head-of-line job completes,
/// so a request/response client gets its answer while the reader blocks
/// on the next stdin line (and a slow request delays later responses but
/// never loses them — the service keeps solving behind it either way).
/// Exactly one of Handle (single-node) and CJob (--cluster) is valid.
struct PendingRequest {
  JsonValue Id; ///< echoed back; defaults to the 1-based line number
  std::string Name;
  std::string Error; ///< non-empty: the request never reached the service
  std::vector<std::string> InputNames;
  JobHandle Handle;
  ClusterJob CJob;
};

void printResponse(const PendingRequest &Req) {
  ServeResponse R;
  if (!Req.Error.empty()) {
    R.Id = Req.Id;
    R.Error = Req.Error;
  } else if (Req.CJob.valid()) {
    const Solution &S = Req.CJob.get();
    R = makeServeResponse(Req.Id, Req.Name, Req.InputNames, S,
                          Req.CJob.source());
    R.QueueMs = Req.CJob.queueMs();
    R.SolveMs = Req.CJob.solveMs();
    R.Worker = Req.CJob.worker();
  } else {
    const Solution &S = Req.Handle.get();
    R = makeServeResponse(Req.Id, Req.Name, Req.InputNames, S,
                          resultSourceName(Req.Handle.source()));
    R.QueueMs = Req.Handle.queueMs();
    R.SolveMs = Req.Handle.solveMs();
  }
  std::printf("%s\n", serveResponseLine(R).c_str());
  std::fflush(stdout);
}

/// Parses "H1:P1,H2:P2,..." into worker addresses; empty on any bad entry
/// (with \p Err set).
std::vector<SockAddr> parseClusterList(const std::string &Spec,
                                       std::string *Err) {
  std::vector<SockAddr> Out;
  size_t Pos = 0;
  while (Pos <= Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    std::string Entry = Spec.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    if (!Entry.empty()) {
      std::optional<SockAddr> A = parseHostPort(Entry);
      if (!A) {
        if (Err)
          *Err = "bad worker address '" + Entry + "' (expected HOST:PORT)";
        return {};
      }
      Out.push_back(*A);
    }
    if (Comma == std::string::npos)
      break;
    Pos = Comma + 1;
  }
  if (Out.empty() && Err)
    *Err = "--cluster needs at least one HOST:PORT";
  return Out;
}

int runServe(ArgReader &Args) {
  EngineOptions Opts;
  Opts.timeout(std::chrono::milliseconds(30000));
  std::string LibraryName = "tidy", RecordPath, ClusterSpec;
  ServiceOptions SvcOpts;

  while (!Args.done()) {
    std::string A = Args.next();
    std::string V;
    if (A == "--record") {
      if (!Args.value(A, V))
        return 2;
      RecordPath = V;
    } else if (A == "--cluster") {
      if (!Args.value(A, V))
        return 2;
      ClusterSpec = V;
    } else if (int E = serviceArg(Args, A, SvcOpts, &Opts); E >= 0) {
      if (E > 0)
        return E;
    } else if (int E = engineArg(Args, A, Opts, LibraryName); E >= 0) {
      if (E > 0)
        return E;
    } else {
      return usage(("unknown option " + A).c_str());
    }
  }
  // The recorder captures the local service's bus; under --cluster most
  // jobs never touch the local service, so the log would silently record
  // only the fail-back slice — refuse the combination instead.
  if (!RecordPath.empty() && !ClusterSpec.empty())
    return usage("--record cannot be combined with --cluster");

  std::vector<SockAddr> ClusterWorkers;
  if (!ClusterSpec.empty()) {
    std::string Err;
    ClusterWorkers = parseClusterList(ClusterSpec, &Err);
    if (ClusterWorkers.empty())
      return usage(Err.c_str());
  }

  // --record: a lossless bus feeds the traffic recorder; declared before
  // the service so the recorder outlives it and catches the completion
  // events of jobs the shutdown path cancels.
  std::shared_ptr<EventBus> Bus;
  std::ofstream RecordOut;
  std::unique_ptr<TrafficRecorder> Recorder;
  if (!RecordPath.empty()) {
    RecordOut.open(RecordPath);
    if (!RecordOut) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   RecordPath.c_str());
      return 2;
    }
    EventBus::Options BusOpts;
    BusOpts.Policy = DropPolicy::Block;
    Bus = EventBus::create(BusOpts);
    Recorder = std::make_unique<TrafficRecorder>(Bus, RecordOut);
    Opts.eventBus(Bus);
  }

  // Exactly one of these serves the requests; the coordinator owns its
  // own local fail-back service internally.
  std::unique_ptr<SynthService> Svc;
  std::unique_ptr<ClusterClient> Cluster;
  if (!ClusterWorkers.empty()) {
    ClusterOptions COpts;
    COpts.Workers = ClusterWorkers;
    Cluster = std::make_unique<ClusterClient>(libraryNamed(LibraryName), Opts,
                                              SvcOpts, COpts);
    if (!Cluster->waitForWorkers(unsigned(ClusterWorkers.size()),
                                 std::chrono::milliseconds(5000))) {
      ClusterStats CS = Cluster->stats();
      std::fprintf(stderr,
                   "serve: %zu/%zu cluster worker(s) up; unreachable shards "
                   "fail back to local solving\n",
                   CS.WorkersUp, ClusterWorkers.size());
    }
  } else {
    Svc = std::make_unique<SynthService>(
        Engine(libraryNamed(LibraryName), Opts), SvcOpts);
  }

  // Reader/flusher pair: the main thread parses and submits, the flusher
  // blocks on the head-of-line job and prints — responses stream even
  // while the reader is blocked on stdin.
  // Bounded: dedupable (cached) requests never touch the service's work
  // queue, so without this cap a fast producer against a slow stdout
  // consumer would grow the response backlog without limit.
  constexpr size_t MaxPendingResponses = 1024;
  Mutex PendingMutex;
  CondVar PendingReady;
  CondVar PendingSpace;
  std::deque<PendingRequest> Pending;
  bool Eof = false;
  std::thread Flusher([&] {
    for (;;) {
      PendingRequest Req;
      {
        UniqueLock Lock(PendingMutex);
        PendingReady.wait(Lock, [&] { return Eof || !Pending.empty(); });
        if (Pending.empty())
          return; // Eof and fully drained
        Req = std::move(Pending.front());
        Pending.pop_front();
        PendingSpace.notify_one();
      }
      printResponse(Req); // blocks in JobHandle::get() for live jobs
    }
  });
  auto Respond = [&](PendingRequest Req) {
    UniqueLock Lock(PendingMutex);
    PendingSpace.wait(Lock,
                      [&] { return Pending.size() < MaxPendingResponses; });
    Pending.push_back(std::move(Req));
    PendingReady.notify_one();
  };

  std::string Line;
  uint64_t LineNo = 0;
  while (std::getline(std::cin, Line)) {
    ++LineNo;
    if (Line.find_first_not_of(" \t\r") == std::string::npos)
      continue;
    ServeRequest SR = parseServeRequest(Line, LineNo);
    PendingRequest Req;
    Req.Id = SR.Id;
    if (!SR.Error.empty()) {
      Req.Error = SR.Error;
      Respond(std::move(Req));
      continue;
    }
    JobRequest R;
    R.priority(SR.Priority);
    if (SR.Deadline.count() > 0)
      R.deadline(SR.Deadline);
    Req.Name = SR.Prob->Name;
    Req.InputNames = SR.Prob->inputNames();
    if (Cluster)
      Req.CJob = Cluster->submit(std::move(*SR.Prob), R);
    else
      Req.Handle = Svc->submit(std::move(*SR.Prob), R);
    Respond(std::move(Req));
  }
  {
    MutexLock Lock(PendingMutex);
    Eof = true;
  }
  PendingReady.notify_all();
  Flusher.join();

  if (Cluster) {
    ClusterStats CS = Cluster->stats();
    std::fprintf(stderr,
                 "serve: %llu request(s), %llu forwarded, %llu remote, "
                 "%llu local, %llu failover(s), %llu remote error(s), "
                 "%llu deadline-expired\n",
                 (unsigned long long)CS.Submitted,
                 (unsigned long long)CS.Forwarded,
                 (unsigned long long)CS.RemoteCompleted,
                 (unsigned long long)CS.LocalSolves,
                 (unsigned long long)CS.Failovers,
                 (unsigned long long)CS.RemoteErrors,
                 (unsigned long long)CS.DeadlineExpired);
  } else {
    ServiceStats Stats = Svc->stats();
    std::fprintf(stderr,
                 "serve: %llu request(s), %llu solve(s), %llu cache hit(s), "
                 "%llu coalesced, %llu deadline-expired\n",
                 (unsigned long long)Stats.Submitted,
                 (unsigned long long)Stats.SolvesRun,
                 (unsigned long long)Stats.Cache.Hits,
                 (unsigned long long)Stats.Cache.Coalesced,
                 (unsigned long long)(Stats.QueueDeadlineExpired +
                                      Stats.RiderDeadlineExpired));
  }
  if (Recorder) {
    Bus->flush();
    std::fprintf(stderr, "recorded %llu job(s) to %s\n",
                 (unsigned long long)Recorder->recordsWritten(),
                 RecordPath.c_str());
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// worker: one cluster shard serving the binary wire protocol on TCP
//===----------------------------------------------------------------------===//

int runWorker(ArgReader &Args) {
  EngineOptions Opts;
  Opts.timeout(std::chrono::milliseconds(30000));
  std::string LibraryName = "tidy", ListenSpec;
  ServiceOptions SvcOpts;
  WorkerNode::Options WOpts;

  while (!Args.done()) {
    std::string A = Args.next();
    std::string V;
    if (A == "--listen") {
      if (!Args.value(A, V))
        return 2;
      ListenSpec = V;
    } else if (A == "--name") {
      if (!Args.value(A, V))
        return 2;
      WOpts.Name = V;
    } else if (int E = serviceArg(Args, A, SvcOpts, &Opts); E >= 0) {
      if (E > 0)
        return E;
    } else if (int E = engineArg(Args, A, Opts, LibraryName); E >= 0) {
      if (E > 0)
        return E;
    } else {
      return usage(("unknown option " + A).c_str());
    }
  }
  if (ListenSpec.empty())
    return usage("worker needs --listen HOST:PORT");
  std::optional<SockAddr> Listen = parseHostPort(ListenSpec);
  if (!Listen)
    return usage("--listen expects HOST:PORT");
  WOpts.Listen = *Listen;

  WorkerNode Node(libraryNamed(LibraryName), Opts, SvcOpts, WOpts);
  std::string Err;
  if (!Node.start(&Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 2;
  }
  // Scripts (and the CI smoke) wait for this line before connecting; it
  // also resolves --listen port 0.
  std::printf("worker %s listening on %s:%u\n", WOpts.Name.c_str(),
              WOpts.Listen.Host.c_str(), unsigned(Node.port()));
  std::fflush(stdout);

  // Serve until stdin closes (the conventional managed-process shutdown;
  // SIGTERM works too, skipping the summary).
  std::string Line;
  while (std::getline(std::cin, Line)) {
  }
  Node.stop();

  WorkerNodeStats WS = Node.stats();
  ServiceStats SS = Node.service().stats();
  std::fprintf(stderr,
               "worker: %llu connection(s), %llu frame(s), %llu job(s) "
               "accepted, %llu answered, %llu cache hit(s), %llu malformed "
               "close(s), %llu handshake(s) refused\n",
               (unsigned long long)WS.Connections,
               (unsigned long long)WS.FramesIn,
               (unsigned long long)WS.JobsAccepted,
               (unsigned long long)WS.JobsAnswered,
               (unsigned long long)SS.Cache.Hits,
               (unsigned long long)WS.MalformedClosed,
               (unsigned long long)WS.HandshakesRefused);
  return 0;
}

//===----------------------------------------------------------------------===//
// replay: re-drive a recorded traffic log, diff outcomes and programs
//===----------------------------------------------------------------------===//

int runReplay(ArgReader &Args) {
  std::string LogPath, LibraryName = "tidy";
  EngineOptions Opts;
  Opts.timeout(std::chrono::milliseconds(30000));
  ServiceOptions SvcOpts;
  ReplayOptions ROpts;

  while (!Args.done()) {
    std::string A = Args.next();
    std::string V;
    if (A == "--timing") {
      if (!Args.value(A, V))
        return 2;
      if (V == "fast")
        ROpts.TimeScale = 0;
      else if (V == "recorded")
        ROpts.TimeScale = 1;
      else
        return usage("unknown timing (use fast or recorded)");
    } else if (A == "--speed") {
      if (!Args.value(A, V))
        return 2;
      char *End = nullptr;
      double S = std::strtod(V.c_str(), &End);
      if (V.empty() || End != V.c_str() + V.size() || S < 0 ||
          !std::isfinite(S))
        return usage("--speed expects a non-negative factor");
      ROpts.TimeScale = S;
    } else if (A == "--no-deadlines") {
      ROpts.ApplyDeadlines = false;
    } else if (A == "--no-priorities") {
      ROpts.ApplyPriorities = false;
    } else if (int E = serviceArg(Args, A, SvcOpts, nullptr); E >= 0) {
      if (E > 0)
        return E;
    } else if (int E = engineArg(Args, A, Opts, LibraryName); E >= 0) {
      if (E > 0)
        return E;
    } else if (!A.empty() && A[0] == '-') {
      return usage(("unknown option " + A).c_str());
    } else if (LogPath.empty()) {
      LogPath = A;
    } else {
      return usage("more than one log file given");
    }
  }
  if (LogPath.empty())
    return usage("replay needs a traffic log");

  std::string Err;
  std::optional<std::vector<TrafficRecord>> Records =
      readTrafficLog(LogPath, &Err);
  if (!Records) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 2;
  }

  SynthService Svc(Engine(libraryNamed(LibraryName), Opts), SvcOpts);

  std::printf("replaying %zu job(s) from %s (%s timing)\n", Records->size(),
              LogPath.c_str(),
              ROpts.TimeScale == 0
                  ? "fast"
                  : ROpts.TimeScale == 1 ? "recorded" : "scaled");
  ReplayReport Report = replayTraffic(std::move(*Records), Svc, ROpts);

  for (const ReplayDiff &D : Report.Diffs)
    std::printf("job %llu %s: recorded %s, replayed %s\n",
                (unsigned long long)D.Job, D.Field.c_str(),
                D.Recorded.c_str(), D.Replayed.c_str());
  std::printf("replay: %zu job(s), %zu/%zu outcomes reproduced, %zu/%zu "
              "programs reproduced\n",
              Report.Jobs, Report.OutcomeMatches, Report.Jobs,
              Report.ProgramMatches, Report.Jobs);
  return Report.ok() ? 0 : 1;
}

// ----------------------------------------------------------------- analyze

int runAnalyze(ArgReader &Args) {
  std::string LibraryName = "all";
  std::string JsonPath;
  bool SelfCheck = false;
  bool Quiet = false;
  LintOptions Opts;
  while (!Args.done()) {
    std::string A = Args.next();
    std::string V;
    if (A == "--library") {
      if (!Args.value(A, V))
        return 2;
      if (V != "tidy" && V != "sql" && V != "all")
        return usage("unknown library (use tidy, sql or all)");
      LibraryName = V;
    } else if (A == "--json") {
      if (!Args.value(A, JsonPath))
        return 2;
    } else if (A == "--pedantic") {
      Opts.Pedantic = true;
    } else if (A == "--no-soundness") {
      Opts.Soundness = false;
    } else if (A == "--self-check") {
      SelfCheck = true;
    } else if (A == "--quiet") {
      Quiet = true;
    } else {
      return usage(("unknown option " + A).c_str());
    }
  }

  const StandardComponents &SC = StandardComponents::get();
  ComponentLibrary Lib = libraryNamed(LibraryName);
  if (LibraryName == "all")
    for (const TableTransformer *X : SC.all())
      if (!Lib.findTable(X->name()))
        Lib.TableTransformers.push_back(X);

  LintReport Report = lintLibrary(Lib, Opts);

  if (!Quiet)
    for (const LintIssue &I : Report.Issues) {
      std::fprintf(stderr, "%s: %s/%s [%s] %s\n",
                   I.IsError ? "error" : "warning", I.Component.c_str(),
                   I.Level == SpecLevel::Spec1 ? "spec1" : "spec2",
                   lintKindName(I.Kind), I.Message.c_str());
      for (const std::string &D : I.Details)
        std::fprintf(stderr, "    %s\n", D.c_str());
    }
  std::printf("analyze: %llu component(s), %llu sat check(s), %llu "
              "scenario(s) (%llu chained), %llu soundness check(s), "
              "%u error(s), %u warning(s)\n",
              (unsigned long long)Report.Stats.Components,
              (unsigned long long)Report.Stats.SatChecks,
              (unsigned long long)Report.Stats.Scenarios,
              (unsigned long long)Report.Stats.ChainScenarios,
              (unsigned long long)Report.Stats.SoundnessChecks,
              Report.errorCount(), Report.warningCount());

  if (!JsonPath.empty()) {
    std::ofstream Out(JsonPath);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", JsonPath.c_str());
      return 2;
    }
    Out << reportToJson(Report) << "\n";
  }

  bool Ok = Report.clean();
  if (SelfCheck) {
    MutantSweepResult Sweep = sweepMutants(Lib, Opts);
    if (!Quiet) {
      for (const std::string &S : Sweep.Survivors)
        std::fprintf(stderr, "self-check: SURVIVED %s\n", S.c_str());
      for (const std::string &S : Sweep.FalseAlarms)
        std::fprintf(stderr, "self-check: FALSE ALARM %s\n", S.c_str());
    }
    std::printf("self-check: %llu mutant(s), %llu expected unsound, "
                "%llu killed, %zu survivor(s), %zu false alarm(s)\n",
                (unsigned long long)Sweep.Total,
                (unsigned long long)Sweep.ExpectedUnsound,
                (unsigned long long)Sweep.Killed, Sweep.Survivors.size(),
                Sweep.FalseAlarms.size());
    Ok = Ok && Sweep.ok();
  }
  return Ok ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  ArgReader Args;
  for (int I = 1; I != argc; ++I)
    Args.Args.push_back(argv[I]);

  if (Args.done())
    return usage();
  std::string Cmd = Args.next();
  if (Cmd == "solve")
    return runSolve(Args);
  if (Cmd == "bench")
    return runBench(Args);
  if (Cmd == "serve")
    return runServe(Args);
  if (Cmd == "worker")
    return runWorker(Args);
  if (Cmd == "replay")
    return runReplay(Args);
  if (Cmd == "analyze")
    return runAnalyze(Args);
  if (Cmd == "--help" || Cmd == "-h" || Cmd == "help")
    return usage();
  return usage(("unknown command '" + Cmd + "'").c_str());
}
