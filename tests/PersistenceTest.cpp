//===- tests/PersistenceTest.cpp - Durable warm state: codec + recovery -------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistence tier under attack: RecordLog framing round-trips, every
/// header-level mismatch (magic, CRC, version, compat key) loads EMPTY and
/// never partially, a torn tail at ANY byte offset yields a clean prefix
/// of intact records, and a crash injected mid-checkpoint (write fault
/// after N bytes) leaves the previously published state untouched. The
/// WarmState round-trip is checked end-to-end through ResultCache and
/// RefutationStore snapshots. Runs in CI under ASan (label: unit).
///
//===----------------------------------------------------------------------===//

#include "io/ProgramIO.h"
#include "io/RecordLog.h"
#include "interp/Components.h"
#include "service/ResultCache.h"
#include "service/WarmState.h"
#include "smt/RefutationStore.h"
#include "suite/Runner.h"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace morpheus;

namespace {

//===----------------------------------------------------------------------===//
// Fixture plumbing
//===----------------------------------------------------------------------===//

/// A scratch directory under the build tree; wiped per fixture so tests
/// never see each other's files.
class PersistenceTest : public ::testing::Test {
protected:
  void SetUp() override {
    Dir = "persistence_test.state";
    ::mkdir(Dir.c_str(), 0777);
    for (const char *F : {"/results.mstate", "/refutations.mstate",
                          "/results.mstate.tmp", "/refutations.mstate.tmp",
                          "/log.mstate"})
      std::remove((Dir + F).c_str());
    setWriteFaultBudget(-1); // no injected faults unless a test asks
  }
  void TearDown() override { setWriteFaultBudget(-1); }

  std::string path(const char *Name) const { return Dir + "/" + Name; }

  std::string Dir;
};

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

void spit(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), std::streamsize(Bytes.size()));
}

constexpr uint64_t Key = 0x1122334455667788ULL;

/// Writes \p Records to \p Path under \p CompatKey; returns true on
/// publish (RecordWriter writes in place here — no tmp dance needed for a
/// fresh file in tests).
bool writeLog(const std::string &Path, uint64_t CompatKey,
              const std::vector<std::string> &Records) {
  RecordWriter W;
  if (!W.open(Path, CompatKey))
    return false;
  for (const std::string &R : Records)
    if (!W.append(R))
      return false;
  return W.close();
}

/// Reads every intact record of \p Path.
std::vector<std::string> readLog(const std::string &Path, uint64_t CompatKey,
                                 RecordLogStatus *StatusOut = nullptr,
                                 bool *TornOut = nullptr) {
  RecordReader R;
  RecordLogStatus St = R.open(Path, CompatKey);
  if (StatusOut)
    *StatusOut = St;
  std::vector<std::string> Out;
  if (St != RecordLogStatus::Ok)
    return Out;
  std::string Payload;
  while (R.next(Payload))
    Out.push_back(Payload);
  if (TornOut)
    *TornOut = R.tornTail();
  return Out;
}

//===----------------------------------------------------------------------===//
// Byte codec
//===----------------------------------------------------------------------===//

TEST(ByteCodec, RoundTripsEveryFieldKind) {
  ByteWriter W;
  W.putU32(0);
  W.putU32(0xffffffffu);
  W.putU64(0);
  W.putU64(0xdeadbeefcafef00dULL);
  W.putF64(0.0);
  W.putF64(-1234.5);
  W.putStr("");
  W.putStr(std::string("nul\0inside", 10));

  ByteReader R(W.bytes());
  uint32_t A, B;
  uint64_t C, D;
  double E, F;
  std::string S1, S2;
  ASSERT_TRUE(R.getU32(A) && R.getU32(B) && R.getU64(C) && R.getU64(D) &&
              R.getF64(E) && R.getF64(F) && R.getStr(S1) && R.getStr(S2));
  EXPECT_EQ(A, 0u);
  EXPECT_EQ(B, 0xffffffffu);
  EXPECT_EQ(C, 0u);
  EXPECT_EQ(D, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(E, 0.0);
  EXPECT_EQ(F, -1234.5);
  EXPECT_EQ(S1, "");
  EXPECT_EQ(S2, std::string("nul\0inside", 10));
  EXPECT_TRUE(R.atEnd());
}

TEST(ByteCodec, TruncatedReadsFailWithoutOverrun) {
  ByteWriter W;
  W.putU64(42);
  W.putStr("hello");
  std::string Full(W.bytes());

  // Every proper prefix must fail cleanly on some field — never read past
  // the end, never fabricate a value AND report atEnd.
  for (size_t Len = 0; Len < Full.size(); ++Len) {
    ByteReader R(std::string_view(Full.data(), Len));
    uint64_t V;
    std::string S;
    bool GotAll = R.getU64(V) && R.getStr(S);
    EXPECT_FALSE(GotAll && R.atEnd()) << "prefix " << Len << " parsed fully";
  }

  // A string whose recorded length exceeds the remaining bytes fails.
  ByteWriter Lying;
  Lying.putU32(1000); // str length prefix with only 3 bytes behind it
  std::string Bytes(Lying.bytes());
  Bytes += "abc";
  ByteReader R(Bytes);
  std::string S;
  EXPECT_FALSE(R.getStr(S));
}

//===----------------------------------------------------------------------===//
// RecordLog: framing, headers, torn tails
//===----------------------------------------------------------------------===//

TEST_F(PersistenceTest, RecordLogRoundTrips) {
  std::vector<std::string> Records = {"", "a", std::string(100000, 'x'),
                                      std::string("\x00\x01\xff", 3)};
  ASSERT_TRUE(writeLog(path("log.mstate"), Key, Records));

  RecordLogStatus St;
  bool Torn = true;
  std::vector<std::string> Back = readLog(path("log.mstate"), Key, &St, &Torn);
  EXPECT_EQ(St, RecordLogStatus::Ok);
  EXPECT_FALSE(Torn);
  EXPECT_EQ(Back, Records);
}

TEST_F(PersistenceTest, MissingFileReportsMissing) {
  RecordLogStatus St;
  readLog(path("log.mstate"), Key, &St);
  EXPECT_EQ(St, RecordLogStatus::Missing);
}

TEST_F(PersistenceTest, HeaderMismatchesLoadEmptyNeverPartially) {
  ASSERT_TRUE(writeLog(path("log.mstate"), Key, {"r0", "r1"}));
  std::string Good = slurp(path("log.mstate"));
  ASSERT_GT(Good.size(), 32u);

  RecordLogStatus St;

  // Wrong magic.
  std::string Bad = Good;
  Bad[0] ^= 0x40;
  spit(path("log.mstate"), Bad);
  EXPECT_TRUE(readLog(path("log.mstate"), Key, &St).empty());
  EXPECT_EQ(St, RecordLogStatus::BadHeader);

  // Flipped version bits: the header CRC catches the damage first — a
  // rewritten-but-valid header with a new version is what VersionMismatch
  // is for, so re-CRC is out of a unit test's reach; corrupt CRC itself:
  Bad = Good;
  Bad[24] ^= 0xff; // header CRC byte
  spit(path("log.mstate"), Bad);
  EXPECT_TRUE(readLog(path("log.mstate"), Key, &St).empty());
  EXPECT_EQ(St, RecordLogStatus::BadHeader);

  // Wrong compat key (a legitimately written file for another config).
  spit(path("log.mstate"), Good);
  EXPECT_TRUE(readLog(path("log.mstate"), Key + 1, &St).empty());
  EXPECT_EQ(St, RecordLogStatus::CompatMismatch);

  // A file shorter than one header is BadHeader, not a crash.
  spit(path("log.mstate"), Good.substr(0, 17));
  EXPECT_TRUE(readLog(path("log.mstate"), Key, &St).empty());
  EXPECT_EQ(St, RecordLogStatus::BadHeader);

  // Untouched file still loads fully (the fixture didn't self-corrupt).
  spit(path("log.mstate"), Good);
  EXPECT_EQ(readLog(path("log.mstate"), Key, &St).size(), 2u);
  EXPECT_EQ(St, RecordLogStatus::Ok);
}

TEST_F(PersistenceTest, VersionMismatchLoadsEmpty) {
  ASSERT_TRUE(writeLog(path("log.mstate"), Key, {"r0"}));
  std::string Good = slurp(path("log.mstate"));

  // Rewrite the version field AND its covering CRC so the header itself
  // is valid — this is exactly the file a future format writes.
  std::string Bad = Good;
  uint32_t NewVersion = RecordLogFormatVersion + 1;
  for (int I = 0; I != 4; ++I)
    Bad[8 + I] = char((NewVersion >> (8 * I)) & 0xff);
  uint32_t Crc = crc32(Bad.data(), 24);
  for (int I = 0; I != 4; ++I)
    Bad[24 + I] = char((Crc >> (8 * I)) & 0xff);
  spit(path("log.mstate"), Bad);

  RecordLogStatus St;
  EXPECT_TRUE(readLog(path("log.mstate"), Key, &St).empty());
  EXPECT_EQ(St, RecordLogStatus::VersionMismatch);
}

TEST_F(PersistenceTest, TornTailAtEveryByteYieldsCleanPrefix) {
  std::vector<std::string> Records;
  for (int I = 0; I != 8; ++I)
    Records.push_back(std::string(size_t(10 + I * 7), char('a' + I)));
  ASSERT_TRUE(writeLog(path("log.mstate"), Key, Records));
  std::string Good = slurp(path("log.mstate"));

  // Where each record's frame ends: only at those byte offsets is the
  // file whole; everywhere else the reader must drop exactly the torn
  // suffix and flag it.
  std::vector<size_t> FrameEnds;
  size_t At = 32; // header
  FrameEnds.push_back(At);
  for (const std::string &R : Records) {
    At += 8 + R.size();
    FrameEnds.push_back(At);
  }
  ASSERT_EQ(At, Good.size());

  for (size_t Len = 32; Len <= Good.size(); ++Len) {
    spit(path("log.mstate"), Good.substr(0, Len));
    RecordLogStatus St;
    bool Torn = false;
    std::vector<std::string> Back =
        readLog(path("log.mstate"), Key, &St, &Torn);
    ASSERT_EQ(St, RecordLogStatus::Ok) << "len " << Len;

    size_t WholeRecords = 0;
    while (WholeRecords + 1 < FrameEnds.size() &&
           FrameEnds[WholeRecords + 1] <= Len)
      ++WholeRecords;
    ASSERT_EQ(Back.size(), WholeRecords) << "len " << Len;
    for (size_t I = 0; I != WholeRecords; ++I)
      EXPECT_EQ(Back[I], Records[I]) << "len " << Len << " record " << I;
    EXPECT_EQ(Torn, Len != FrameEnds[WholeRecords]) << "len " << Len;
  }
}

TEST_F(PersistenceTest, CorruptPayloadEndsStreamAtLastIntactRecord) {
  ASSERT_TRUE(writeLog(path("log.mstate"), Key, {"record0", "record1",
                                                 "record2"}));
  std::string Good = slurp(path("log.mstate"));

  // Flip one byte inside record1's payload (header 32 + frame0 (8+7) +
  // frame1 header 8 => offset 55 is record1's first payload byte).
  std::string Bad = Good;
  Bad[55] ^= 0x01;
  spit(path("log.mstate"), Bad);

  RecordLogStatus St;
  bool Torn = false;
  std::vector<std::string> Back = readLog(path("log.mstate"), Key, &St, &Torn);
  EXPECT_EQ(St, RecordLogStatus::Ok);
  ASSERT_EQ(Back.size(), 1u); // record2 is unreachable past the damage
  EXPECT_EQ(Back[0], "record0");
  EXPECT_TRUE(Torn);
}

//===----------------------------------------------------------------------===//
// Fault injection: a crash mid-checkpoint never loses published state
//===----------------------------------------------------------------------===//

TEST_F(PersistenceTest, WriteFaultMidCheckpointKeepsPreviousState) {
  ComponentLibrary Lib = StandardComponents::get().tidyDplyr();
  SynthesisConfig Cfg = configSpec2(std::chrono::milliseconds(1000));
  uint64_t Compat = warmStateCompatKey(Lib, Cfg);

  // Publish a good generation first.
  Solution S;
  S.Result = Outcome::Timeout;
  S.Seconds = 0.5;
  std::vector<std::pair<uint64_t, Solution>> Results = {{1, S}, {2, S}};
  std::vector<std::pair<uint64_t, std::vector<uint64_t>>> Scopes = {
      {10, {100, 101, 102}}};
  WarmState W(Dir, Compat);
  ASSERT_TRUE(W.checkpoint(Results, Scopes));
  std::string GoodResults = slurp(W.resultsPath());
  std::string GoodRefutations = slurp(W.refutationsPath());

  // Abort the next checkpoint at assorted crash points (mid-header,
  // header boundary, mid-frame — all inside the results file, which is
  // written first): the published files must still be the good
  // generation, and no .tmp litter may survive.
  std::vector<std::pair<uint64_t, Solution>> MoreResults = {
      {1, S}, {2, S}, {3, S}};
  for (int64_t Budget : {int64_t(0), int64_t(1), int64_t(17), int64_t(31),
                         int64_t(32), int64_t(40), int64_t(100)}) {
    setWriteFaultBudget(Budget);
    bool Ok = W.checkpoint(MoreResults, Scopes);
    setWriteFaultBudget(-1);
    EXPECT_FALSE(Ok) << "budget " << Budget;
    EXPECT_EQ(slurp(W.resultsPath()), GoodResults) << "budget " << Budget;
    EXPECT_EQ(slurp(W.refutationsPath()), GoodRefutations)
        << "budget " << Budget;
    struct stat St;
    EXPECT_NE(::stat((W.resultsPath() + ".tmp").c_str(), &St), 0);
    EXPECT_NE(::stat((W.refutationsPath() + ".tmp").c_str(), &St), 0);

    // And the surviving generation still parses back in full.
    ResultCache Cache(16);
    W.loadResults(Cache, Lib);
    EXPECT_EQ(Cache.stats().WarmLoaded, 2u) << "budget " << Budget;
  }

  // With the fault cleared the next checkpoint goes through whole.
  ASSERT_TRUE(W.checkpoint(MoreResults, Scopes));
  ResultCache Cache(16);
  WarmState W2(Dir, Compat);
  W2.loadResults(Cache, Lib);
  EXPECT_EQ(Cache.stats().WarmLoaded, 3u);
}

//===----------------------------------------------------------------------===//
// WarmState end-to-end round trip
//===----------------------------------------------------------------------===//

TEST_F(PersistenceTest, WarmStateRoundTripsCacheAndRefutations) {
  ComponentLibrary Lib = StandardComponents::get().tidyDplyr();
  SynthesisConfig Cfg = configSpec2(std::chrono::milliseconds(1000));
  uint64_t Compat = warmStateCompatKey(Lib, Cfg);

  // One solved entry with a real program, one timeout without.
  Solution Solved;
  Solved.Program =
      parseSexp("(filter (input 0) (> (col age) (num 10)))", Lib);
  ASSERT_TRUE(Solved.Program);
  Solved.Result = Outcome::Solved;
  Solved.Seconds = 1.25;
  Solved.Stats.HypothesesExplored = 77;
  Solved.Stats.Deduce.SolverChecks = 13;
  Solved.Stats.ReusedCompletions = 29;
  Solved.Stats.Deduce.SolverSeconds = 0.875;
  Solved.Stats.Deduce.SignatureSeconds = 0.5;
  Solved.Stats.Deduce.SessionSeconds = 0.25;
  Solved.Stats.Deduce.CheckSeconds = 0.0625;
  Solution TimedOut;
  TimedOut.Result = Outcome::Timeout;
  TimedOut.Seconds = 1.0;
  TimedOut.Stats.TimedOut = true;

  ResultCache Cache(8);
  Cache.insert(111, Solved);
  Cache.insert(222, TimedOut);

  RefutationStore Store;
  Store.recordRefuted(5);
  Store.recordRefuted(3);
  Store.recordRefuted(9);

  WarmState W(Dir, Compat);
  ASSERT_TRUE(W.checkpoint(Cache.snapshot(), {{42, Store.keys()}}));

  // Reload into fresh stores.
  ResultCache Cache2(8);
  WarmState W2(Dir, Compat);
  W2.loadResults(Cache2, Lib);
  EXPECT_EQ(Cache2.stats().WarmLoaded, 2u);
  std::optional<Solution> Back = Cache2.lookup(111);
  ASSERT_TRUE(Back);
  EXPECT_EQ(Back->Result, Outcome::Solved);
  EXPECT_EQ(Back->Seconds, 1.25);
  EXPECT_EQ(Back->Stats.HypothesesExplored, 77u);
  EXPECT_EQ(Back->Stats.Deduce.SolverChecks, 13u);
  EXPECT_EQ(Back->Stats.ReusedCompletions, 29u);
  EXPECT_EQ(Back->Stats.Deduce.SolverSeconds, 0.875);
  EXPECT_EQ(Back->Stats.Deduce.SignatureSeconds, 0.5);
  EXPECT_EQ(Back->Stats.Deduce.SessionSeconds, 0.25);
  EXPECT_EQ(Back->Stats.Deduce.CheckSeconds, 0.0625);
  ASSERT_TRUE(Back->Program);
  EXPECT_EQ(printSexp(Back->Program), printSexp(Solved.Program));
  Back = Cache2.lookup(222);
  ASSERT_TRUE(Back);
  EXPECT_EQ(Back->Result, Outcome::Timeout);
  EXPECT_FALSE(Back->Program);
  EXPECT_TRUE(Back->Stats.TimedOut);

  RefutationStore Store2;
  size_t ScopesSeen = 0;
  W2.loadRefutations([&](uint64_t Fp, std::vector<uint64_t> &&Keys) {
    EXPECT_EQ(Fp, 42u);
    ++ScopesSeen;
    Store2.restoreKeys(Keys);
    return true;
  });
  EXPECT_EQ(ScopesSeen, 1u);
  EXPECT_EQ(Store2.keys(), (std::vector<uint64_t>{3, 5, 9}));
  EXPECT_TRUE(Store2.isRefuted(5));
  EXPECT_FALSE(Store2.isRefuted(6));
  EXPECT_EQ(Store2.stats().Restored, 3u);
  EXPECT_EQ(Store2.stats().Inserts, 0u);

  // A different compat key (changed library/spec/knobs) loads EMPTY.
  ResultCache Cache3(8);
  WarmState W3(Dir, Compat ^ 1);
  W3.loadResults(Cache3, Lib);
  EXPECT_EQ(Cache3.stats().WarmLoaded, 0u);
  EXPECT_EQ(W3.stats().FilesRejected, 1u);
}

TEST_F(PersistenceTest, RestoreNeverDisplacesLiveEntries) {
  Solution S;
  S.Result = Outcome::Timeout;

  // restore() into a full cache is a drop, not an eviction.
  ResultCache Cache(2);
  Cache.insert(1, S);
  Cache.insert(2, S);
  Cache.restore(3, S);
  EXPECT_EQ(Cache.stats().WarmLoaded, 0u);
  EXPECT_TRUE(Cache.lookup(1));
  EXPECT_TRUE(Cache.lookup(2));
  EXPECT_FALSE(Cache.lookup(3));

  // restore() under an existing key keeps the live entry.
  ResultCache Cache2(4);
  Solution Live;
  Live.Result = Outcome::Solved;
  Live.Seconds = 9;
  Cache2.insert(1, Live);
  Cache2.restore(1, S);
  EXPECT_EQ(Cache2.stats().WarmLoaded, 0u);
  std::optional<Solution> Back = Cache2.lookup(1);
  ASSERT_TRUE(Back);
  EXPECT_EQ(Back->Seconds, 9.0);

  // Warm entries rank BELOW later live traffic: a restored entry is the
  // first evicted once real insertions fill the cache.
  ResultCache Cache3(2);
  Cache3.restore(7, S);
  Cache3.insert(8, S);
  Cache3.insert(9, S); // evicts the warm 7, not the live 8
  EXPECT_FALSE(Cache3.lookup(7));
  EXPECT_TRUE(Cache3.lookup(8));
  EXPECT_TRUE(Cache3.lookup(9));
}

TEST_F(PersistenceTest, SnapshotIsMruFirstSoHotEntriesSurviveShrink) {
  Solution S;
  S.Result = Outcome::Timeout;
  ResultCache Cache(4);
  for (uint64_t K = 1; K <= 4; ++K)
    Cache.insert(K, S);
  (void)Cache.lookup(1); // 1 becomes most recently used

  std::vector<std::pair<uint64_t, Solution>> Snap = Cache.snapshot();
  ASSERT_EQ(Snap.size(), 4u);
  EXPECT_EQ(Snap[0].first, 1u); // MRU first

  // Restoring into a SMALLER cache keeps the hottest prefix.
  ResultCache Small(2);
  for (auto &Entry : Snap)
    Small.restore(Entry.first, std::move(Entry.second));
  EXPECT_EQ(Small.stats().WarmLoaded, 2u);
  EXPECT_TRUE(Small.lookup(1));
  EXPECT_TRUE(Small.lookup(4));
  EXPECT_FALSE(Small.lookup(2));
}

TEST_F(PersistenceTest, MalformedResultRecordsAreDroppedIndividually) {
  ComponentLibrary Lib = StandardComponents::get().tidyDplyr();
  SynthesisConfig Cfg = configSpec2(std::chrono::milliseconds(1000));
  uint64_t Compat = warmStateCompatKey(Lib, Cfg);

  // Hand-write a results file whose middle record is garbage: the good
  // records around it must still load (framing survives; only the decode
  // of that one payload fails).
  Solution S;
  S.Result = Outcome::Cancelled;
  WarmState W(Dir, Compat);
  ASSERT_TRUE(W.checkpoint({{1, S}}, {}));
  std::string One = slurp(W.resultsPath());
  std::string GoodRecord = One.substr(32); // frame of the single record

  RecordWriter Out;
  ASSERT_TRUE(Out.open(W.resultsPath(), Compat));
  ByteWriter Enc;
  Enc.putU64(2);
  ASSERT_TRUE(Out.append(Enc.bytes())); // truncated payload: malformed
  ASSERT_TRUE(Out.close());
  // Append the intact frame after the malformed record.
  std::ofstream App(W.resultsPath(), std::ios::binary | std::ios::app);
  App.write(GoodRecord.data(), std::streamsize(GoodRecord.size()));
  App.close();

  ResultCache Cache(8);
  WarmState W2(Dir, Compat);
  W2.loadResults(Cache, Lib);
  EXPECT_EQ(Cache.stats().WarmLoaded, 1u);
  EXPECT_TRUE(Cache.lookup(1));
  WarmStateStats St = W2.stats();
  EXPECT_EQ(St.ResultsLoaded, 1u);
  EXPECT_EQ(St.ResultsDropped, 1u);
}

} // namespace
