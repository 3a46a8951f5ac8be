//===- tests/serve_test.cpp - Serving layer and incremental caches -------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
// The daemon's correctness contract (src/serve/, docs/SERVING.md):
//
//  1. Codecs: submit requests, responses, and the on-disk cache file all
//     round-trip, and a bare submit decodes to the CLI's defaults;
//     corrupted or version-mismatched cache files fail the load cleanly
//     (cold start, never a crash); every kept frame equals a fresh
//     encoding of its entry.
//  2. Daemon loopback: a warm handleSubmit answer is byte-identical to a
//     cold engine run — for identical resubmits, across --jobs values,
//     after editing a method body and after changing the seed list — and
//     warm requests report detection memo hits.  An injected
//     serve.request fault quarantines one request without taking the
//     handler down.
//  3. Saves: the cache file is written after a request that changed the
//     detection memo or a cold start, not after a warm resubmit (also one
//     that returns to a module after its edit), and a failed save is
//     retried by the next one.  The race database file is written after a
//     request that ingested a run, not after a synthesize, and a failed
//     save is retried the same way.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "obs/Metrics.h"
#include "serve/CacheFile.h"
#include "serve/Caches.h"
#include "serve/Daemon.h"
#include "serve/Engine.h"
#include "serve/Protocol.h"
#include "support/FaultInjection.h"
#include "support/Wire.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fcntl.h>
#include <fstream>
#include <iterator>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <utility>
#include <vector>

using namespace narada;
using namespace narada::serve;

namespace {

//===----------------------------------------------------------------------===//
// Protocol codec round trips.
//===----------------------------------------------------------------------===//

TEST(ServeProtocolTest, SubmitRoundTrips) {
  CliArgs Args;
  Args.Command = "detect";
  Args.Input = "corpus:C9";
  Args.Names = {"seedC9", "seedC9b"};
  Args.FocusClass = "CharArrayReader";
  Args.Seed = 7;
  Args.Tests = 21;
  Args.Jobs = 4;
  Args.ReportPath = "/tmp/some.json"; // Becomes the want_report bit.
  Args.Stats = true;
  Args.PolicyName = "pct";
  Args.StaticVerdicts = true;
  Args.StaticRank = true;
  Args.StaticOnly = true;
  Args.GenSeeds = true;
  Args.GenRounds = 3;
  Args.GenBudget = 9;
  Args.Isolate.Enabled = true;
  Args.Isolate.UnitDeadlineSeconds = 12.5;
  Args.Isolate.WorkerCpuLimitSeconds = 17;
  Args.Isolate.WorkerMemLimitMb = 256;
  // Every DetectOptions field the submit record carries, off its default.
  Args.Detect.RandomRuns = 5;
  Args.Detect.ConfirmAttempts = 6;
  Args.Detect.BaseSeed = 99;
  Args.Detect.MaxSteps = 1234;
  Args.Detect.UseHB = false;
  Args.Detect.UseLockSet = false;
  Args.Detect.Mode = ExplorationMode::Systematic;
  Args.Detect.Explore.MaxSchedules = 33;
  Args.Detect.WitnessDir = "witness-out";
  Args.Detect.StepLimitRetries = 5;
  Args.Detect.WallBudgetSeconds = 2.5;

  wire::RecordWriter W;
  encodeSubmit(W, Args, "class A { }\ntest t { }\n");
  Result<SubmitRequest> Decoded = decodeSubmit(wire::RecordReader(W.str()));
  ASSERT_TRUE(Decoded.hasValue()) << Decoded.error().str();

  const CliArgs &Out = Decoded->Args;
  EXPECT_EQ(Decoded->Source, "class A { }\ntest t { }\n");
  EXPECT_TRUE(Decoded->WantReport);
  EXPECT_EQ(Out.Command, "detect");
  EXPECT_EQ(Out.Input, "corpus:C9");
  EXPECT_EQ(Out.Names, Args.Names);
  EXPECT_EQ(Out.FocusClass, "CharArrayReader");
  EXPECT_EQ(Out.Seed, 7u);
  EXPECT_EQ(Out.Tests, 21u);
  EXPECT_EQ(Out.Jobs, 4u);
  EXPECT_TRUE(Out.Stats);
  EXPECT_EQ(Out.PolicyName, "pct");
  EXPECT_TRUE(Out.StaticVerdicts);
  EXPECT_TRUE(Out.StaticRank);
  EXPECT_TRUE(Out.StaticOnly);
  EXPECT_TRUE(Out.GenSeeds);
  EXPECT_EQ(Out.GenRounds, 3u);
  EXPECT_EQ(Out.GenBudget, 9u);
  EXPECT_TRUE(Out.Isolate.Enabled);
  EXPECT_DOUBLE_EQ(Out.Isolate.UnitDeadlineSeconds, 12.5);
  EXPECT_EQ(Out.Isolate.WorkerCpuLimitSeconds, 17u);
  EXPECT_EQ(Out.Isolate.WorkerMemLimitMb, 256u);
  EXPECT_EQ(Out.Detect.RandomRuns, 5u);
  EXPECT_EQ(Out.Detect.ConfirmAttempts, 6u);
  EXPECT_EQ(Out.Detect.BaseSeed, 99u);
  EXPECT_EQ(Out.Detect.MaxSteps, 1234u);
  EXPECT_FALSE(Out.Detect.UseHB);
  EXPECT_FALSE(Out.Detect.UseLockSet);
  EXPECT_EQ(Out.Detect.Mode, ExplorationMode::Systematic);
  EXPECT_EQ(Out.Detect.Explore.MaxSchedules, 33u);
  EXPECT_EQ(Out.Detect.WitnessDir, "witness-out");
  EXPECT_EQ(Out.Detect.StepLimitRetries, 5u);
  EXPECT_DOUBLE_EQ(Out.Detect.WallBudgetSeconds, 2.5);
  // The report path itself never crosses the wire.
  EXPECT_TRUE(Out.ReportPath.empty());
}

TEST(ServeProtocolTest, SubmitWithoutCommandIsRejected) {
  wire::RecordWriter W;
  W.add("verb", std::string_view("submit"));
  W.add("source", std::string_view("class A { }"));
  EXPECT_FALSE(decodeSubmit(wire::RecordReader(W.str())).hasValue());
}

TEST(ServeProtocolTest, BareSubmitDecodesToTheDefaults) {
  // Every key the record omits takes the default a CLI command line
  // without the flag would have.
  wire::RecordWriter W;
  W.add("verb", std::string_view("submit"));
  W.add("command", std::string_view("detect"));
  W.add("source", std::string_view("class A { }"));
  Result<SubmitRequest> Decoded = decodeSubmit(wire::RecordReader(W.str()));
  ASSERT_TRUE(Decoded.hasValue()) << Decoded.error().str();
  EXPECT_EQ(Decoded->Source, "class A { }");
  EXPECT_FALSE(Decoded->WantReport);

  const CliArgs Want;
  const CliArgs &Out = Decoded->Args;
  EXPECT_EQ(Out.Command, "detect");
  EXPECT_EQ(Out.Input, Want.Input);
  EXPECT_EQ(Out.Names, Want.Names);
  EXPECT_EQ(Out.FocusClass, Want.FocusClass);
  EXPECT_EQ(Out.Seed, Want.Seed);
  EXPECT_EQ(Out.Tests, Want.Tests);
  EXPECT_EQ(Out.ReportPath, Want.ReportPath);
  EXPECT_EQ(Out.TracePath, Want.TracePath);
  EXPECT_EQ(Out.Stats, Want.Stats);
  EXPECT_EQ(Out.Jobs, Want.Jobs);
  EXPECT_EQ(Out.PolicyName, Want.PolicyName);
  EXPECT_EQ(Out.ReplayPath, Want.ReplayPath);
  EXPECT_EQ(Out.StaticVerdicts, Want.StaticVerdicts);
  EXPECT_EQ(Out.StaticRank, Want.StaticRank);
  EXPECT_EQ(Out.StaticOnly, Want.StaticOnly);
  EXPECT_EQ(Out.GenSeeds, Want.GenSeeds);
  EXPECT_EQ(Out.GenRounds, Want.GenRounds);
  EXPECT_EQ(Out.GenBudget, Want.GenBudget);
  EXPECT_EQ(Out.Isolate.Enabled, Want.Isolate.Enabled);
  EXPECT_EQ(Out.Isolate.WorkerExe, Want.Isolate.WorkerExe);
  EXPECT_DOUBLE_EQ(Out.Isolate.UnitDeadlineSeconds,
                   Want.Isolate.UnitDeadlineSeconds);
  EXPECT_EQ(Out.Isolate.WorkerCpuLimitSeconds,
            Want.Isolate.WorkerCpuLimitSeconds);
  EXPECT_EQ(Out.Isolate.WorkerMemLimitMb, Want.Isolate.WorkerMemLimitMb);

  const DetectOptions WantDetect;
  const DetectOptions &D = Out.Detect;
  EXPECT_EQ(D.RandomRuns, WantDetect.RandomRuns);
  EXPECT_EQ(D.ConfirmAttempts, WantDetect.ConfirmAttempts);
  EXPECT_EQ(D.BaseSeed, WantDetect.BaseSeed);
  EXPECT_EQ(D.MaxSteps, WantDetect.MaxSteps);
  EXPECT_EQ(D.UseHB, WantDetect.UseHB);
  EXPECT_EQ(D.UseLockSet, WantDetect.UseLockSet);
  EXPECT_EQ(D.Mode, WantDetect.Mode);
  EXPECT_EQ(D.Explore.MaxSchedules, WantDetect.Explore.MaxSchedules);
  EXPECT_EQ(D.Explore.MaxSteps, WantDetect.Explore.MaxSteps);
  EXPECT_EQ(D.Explore.RandSeed, WantDetect.Explore.RandSeed);
  EXPECT_EQ(D.WitnessDir, WantDetect.WitnessDir);
  EXPECT_EQ(D.ReplayTrace, WantDetect.ReplayTrace);
  EXPECT_EQ(D.StepLimitRetries, WantDetect.StepLimitRetries);
  EXPECT_DOUBLE_EQ(D.WallBudgetSeconds, WantDetect.WallBudgetSeconds);
}

TEST(ServeProtocolTest, ResponseRoundTrips) {
  SubmitResponse R;
  R.Ok = true;
  R.Exit = 3;
  R.Stdout = "line one\nline two\n";
  R.Stderr = "warn: x\n";
  R.Report = "{\"tool\":\"narada-cli\"}";
  wire::RecordWriter W;
  encodeResponse(W, R);
  SubmitResponse Out = decodeResponse(wire::RecordReader(W.str()));
  EXPECT_TRUE(Out.Ok);
  EXPECT_EQ(Out.Exit, 3);
  EXPECT_EQ(Out.Stdout, R.Stdout);
  EXPECT_EQ(Out.Stderr, R.Stderr);
  EXPECT_EQ(Out.Report, R.Report);
  EXPECT_TRUE(Out.ErrorMessage.empty());
}

//===----------------------------------------------------------------------===//
// Cache file persistence.
//===----------------------------------------------------------------------===//

std::string tempPath(const char *Tag) {
  std::string Path = ::testing::TempDir() + "serve_test_" + Tag + "_" +
                     std::to_string(::getpid());
  ::unlink(Path.c_str());
  return Path;
}

/// A detection result that sets a little of everything a memo frame
/// carries.
TestDetectionResult sampleResult(const std::string &Field) {
  RaceReport Report;
  Report.Detector = "hb";
  Report.ClassName = "Box";
  Report.Field = Field;
  Report.FirstLabel = "Box.set:3";
  Report.SecondLabel = "Box.get:1";
  Report.FirstIsWrite = true;
  TestDetectionResult R;
  R.Detected.push_back(Report);
  ConfirmedRace Race;
  Race.Report = Report;
  Race.Reproduced = true;
  Race.Harmful = true;
  Race.HashFirstOrder = 11;
  Race.HashSecondOrder = 12;
  R.Races.push_back(Race);
  R.SawStepLimit = true;
  R.SchedulesRun = 12;
  return R;
}

/// Adds a memo entry to \p Snapshot at the back of its FIFO order.
void addEntry(CacheSnapshot &Snapshot, uint64_t Key,
              std::vector<TestDetectionResult> Results) {
  Snapshot.DetectMemo.emplace(
      Key, CacheSnapshot::DetectEntry(Key, std::move(Results)));
  Snapshot.DetectOrder.push_back(Key);
}

TEST(CacheFileTest, SnapshotRoundTrips) {
  // Inserted out of key order, so the FIFO order is not the map's.
  CacheSnapshot Snapshot;
  addEntry(Snapshot, 9, {sampleResult("v"), sampleResult("w")});
  addEntry(Snapshot, 3, {sampleResult("x")});

  const std::string Path = tempPath("roundtrip");
  ASSERT_TRUE(saveCacheFile(Path, Snapshot));
  Result<CacheSnapshot> Loaded = loadCacheFile(Path);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.error().str();

  EXPECT_EQ(Loaded->DetectOrder, Snapshot.DetectOrder);
  ASSERT_EQ(Loaded->DetectMemo.size(), 2u);
  for (const auto &[Key, Entry] : Snapshot.DetectMemo) {
    auto It = Loaded->DetectMemo.find(Key);
    ASSERT_NE(It, Loaded->DetectMemo.end()) << Key;
    const std::vector<TestDetectionResult> &Got = It->second.Results;
    ASSERT_EQ(Got.size(), Entry.Results.size()) << Key;
    for (size_t I = 0; I < Got.size(); ++I) {
      const TestDetectionResult &Want = Entry.Results[I];
      ASSERT_EQ(Got[I].Detected.size(), 1u);
      EXPECT_EQ(Got[I].Detected[0].key(), Want.Detected[0].key());
      ASSERT_EQ(Got[I].Races.size(), 1u);
      EXPECT_TRUE(Got[I].Races[0].Harmful);
      EXPECT_EQ(Got[I].Races[0].HashSecondOrder, 12u);
      EXPECT_TRUE(Got[I].SawStepLimit);
      EXPECT_EQ(Got[I].SchedulesRun, 12u);
    }
    // The decoded results encode to the frame they were saved from.
    EXPECT_EQ(CacheSnapshot::DetectEntry(Key, Got).Frame, Entry.Frame);
  }
  ::unlink(Path.c_str());
}

TEST(CacheFileTest, CorruptFileFailsTheLoadCleanly) {
  const std::string Path = tempPath("corrupt");
  {
    // An oversized length prefix: the first frame read must fail.
    int Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(Fd, 0);
    const unsigned char Junk[] = {0xff, 0xff, 0xff, 0xff, 'x', 'y'};
    ASSERT_EQ(::write(Fd, Junk, sizeof(Junk)),
              static_cast<ssize_t>(sizeof(Junk)));
    ::close(Fd);
  }
  EXPECT_FALSE(loadCacheFile(Path).hasValue());

  // The caches layer turns that into a cold start, not a crash.
  ServeCaches Caches(Path);
  EXPECT_FALSE(Caches.loadedFromDisk());
  EXPECT_EQ(Caches.detectMemoCount(), 0u);
  ::unlink(Path.c_str());
}

TEST(CacheFileTest, VersionMismatchFailsTheLoad) {
  const std::string Path = tempPath("version");
  {
    int Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(Fd, 0);
    wire::RecordWriter Header;
    Header.add("magic", std::string_view("narada.serve_cache"));
    Header.add("version", static_cast<uint64_t>(99));
    ASSERT_TRUE(wire::writeFrame(Fd, Header.str()));
    ::close(Fd);
  }
  Result<CacheSnapshot> Loaded = loadCacheFile(Path);
  ASSERT_FALSE(Loaded.hasValue());
  EXPECT_NE(Loaded.error().str().find("version"), std::string::npos);
  ServeCaches Caches(Path);
  EXPECT_FALSE(Caches.loadedFromDisk());
  ::unlink(Path.c_str());
}

TEST(CacheFileTest, TruncatedEntryFrameFailsTheLoad) {
  const std::string Path = tempPath("truncated");
  {
    int Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(Fd, 0);
    wire::RecordWriter Header;
    Header.add("magic", std::string_view("narada.serve_cache"));
    Header.add("version", static_cast<uint64_t>(4));
    ASSERT_TRUE(wire::writeFrame(Fd, Header.str()));
    // A frame that promises more bytes than the file holds.
    const unsigned char Partial[] = {0x40, 0x00, 0x00, 0x00, 'k'};
    ASSERT_EQ(::write(Fd, Partial, sizeof(Partial)),
              static_cast<ssize_t>(sizeof(Partial)));
    ::close(Fd);
  }
  Result<CacheSnapshot> Loaded = loadCacheFile(Path);
  ASSERT_FALSE(Loaded.hasValue());
  EXPECT_NE(Loaded.error().str().find("truncated"), std::string::npos)
      << Loaded.error().str();
  ::unlink(Path.c_str());
}

std::string fileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In), {});
}

TEST(CacheFileTest, FailedSaveKeepsThePreviousFile) {
  CacheSnapshot Snapshot;
  addEntry(Snapshot, 42, {sampleResult("x")});
  const std::string Path = tempPath("durable");
  const std::string TempPath = Path + ".tmp";
  ASSERT_TRUE(saveCacheFile(Path, Snapshot));
  EXPECT_NE(::access(TempPath.c_str(), F_OK), 0)
      << "a successful save leaves no temp file";
  const std::string Before = fileBytes(Path);

  // A directory in the temp file's place: the save cannot even begin.
  ASSERT_EQ(::mkdir(TempPath.c_str(), 0755), 0);
  addEntry(Snapshot, 7, {});
  EXPECT_FALSE(saveCacheFile(Path, Snapshot));
  ::rmdir(TempPath.c_str());

  EXPECT_EQ(fileBytes(Path), Before);
  Result<CacheSnapshot> Loaded = loadCacheFile(Path);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.error().str();
  EXPECT_EQ(Loaded->DetectMemo.size(), 1u);
  ::unlink(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Daemon loopback: warm-equals-cold byte identity, fault quarantine.
//===----------------------------------------------------------------------===//

SubmitRequest c9Request(unsigned Jobs) {
  const CorpusEntry *Entry = findCorpusEntry("C9");
  EXPECT_NE(Entry, nullptr);
  SubmitRequest Req;
  Req.Args.Command = "detect";
  Req.Args.Input = "corpus:C9";
  Req.Args.Names = Entry->SeedNames;
  Req.Args.FocusClass = Entry->ClassName;
  Req.Args.StaticRank = true;
  Req.Args.Jobs = Jobs;
  Req.Source = Entry->Source;
  return Req;
}

/// A cold engine run of \p Req with no hooks — byte-for-byte what the
/// single-shot CLI would print.
std::string coldStdout(SubmitRequest Req) {
  obs::MetricsRegistry::global().reset();
  std::string Out, Err;
  captureRun(
      [&] {
        return runCommandAndReport(Req.Args, std::move(Req.Source), nullptr);
      },
      Out, Err);
  return Out;
}

TEST(DaemonLoopbackTest, WarmSubmitsAreByteIdenticalToCold) {
  const std::string Cold = coldStdout(c9Request(1));
  ASSERT_FALSE(Cold.empty());

  ServeCaches Caches("");
  SubmitResponse First = handleSubmit(c9Request(1), &Caches, "", 0);
  ASSERT_TRUE(First.Ok) << First.ErrorMessage;
  EXPECT_EQ(First.Stdout, Cold);

  SubmitResponse Second = handleSubmit(c9Request(1), &Caches, "", 1);
  ASSERT_TRUE(Second.Ok);
  EXPECT_EQ(Second.Stdout, Cold);
  // The second request's counters (registry was reset at its start) must
  // show the detection-stage memo hitting.
  EXPECT_GE(obs::MetricsRegistry::global()
                .counter("serve.cache.detect.hits")
                .value(),
            1u);

  // Determinism contract: a warm jobs-4 submit reuses the jobs-1 cache
  // entries and still prints the identical bytes.
  SubmitResponse Wide = handleSubmit(c9Request(4), &Caches, "", 2);
  ASSERT_TRUE(Wide.Ok);
  EXPECT_EQ(Wide.Stdout, Cold);
}

TEST(DaemonLoopbackTest, DetectMemoSurvivesARestart) {
  const std::string Path = tempPath("detectmemo");
  const std::string Cold = coldStdout(c9Request(1));

  {
    ServeCaches Caches(Path);
    ASSERT_TRUE(handleSubmit(c9Request(1), &Caches, "", 0).Ok);
    EXPECT_GE(Caches.detectMemoCount(), 1u);
    ASSERT_TRUE(Caches.save());
  }

  // A fresh daemon over the same cache file must come up with the detect
  // memo warm: the first request hits without ever running detection.
  ServeCaches Restarted(Path);
  EXPECT_TRUE(Restarted.loadedFromDisk());
  EXPECT_GE(Restarted.detectMemoCount(), 1u);
  SubmitResponse Warm = handleSubmit(c9Request(1), &Restarted, "", 0);
  ASSERT_TRUE(Warm.Ok) << Warm.ErrorMessage;
  EXPECT_EQ(Warm.Stdout, Cold);
  EXPECT_GE(obs::MetricsRegistry::global()
                .counter("serve.cache.detect.hits")
                .value(),
            1u);
  ::unlink(Path.c_str());
}

/// c9Request(1) with one method body edited.
SubmitRequest editedC9Request() {
  SubmitRequest Edited = c9Request(1);
  const std::string From = "method mark() { this.markedPos = this.pos; }";
  size_t At = Edited.Source.find(From);
  EXPECT_NE(At, std::string::npos);
  if (At != std::string::npos)
    Edited.Source.replace(At, From.size(),
                          "method mark() { var p: int = this.pos; "
                          "this.markedPos = p; }");
  return Edited;
}

TEST(DaemonLoopbackTest, EditedModuleWarmEqualsItsOwnCold) {
  ServeCaches Caches("");
  ASSERT_TRUE(handleSubmit(c9Request(1), &Caches, "", 0).Ok);

  // Edit one method body; the warm answer must match a cold run of the
  // *edited* source, not resurrect stale cached results.
  SubmitRequest Edited = editedC9Request();
  ASSERT_NE(Edited.Source, c9Request(1).Source);
  const std::string ColdEdited = coldStdout(Edited);

  SubmitResponse Warm = handleSubmit(Edited, &Caches, "", 1);
  ASSERT_TRUE(Warm.Ok) << Warm.ErrorMessage;
  EXPECT_EQ(Warm.Stdout, ColdEdited);
}

//===----------------------------------------------------------------------===//
// When the cache file is written: after a request that changed the memo.
//===----------------------------------------------------------------------===//

ino_t inodeOf(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 ? St.st_ino : 0;
}

uint64_t counterValue(const char *Name) {
  return obs::MetricsRegistry::global().counter(Name).value();
}

TEST(CacheSaveTest, WarmResubmitLeavesTheFileAlone) {
  const std::string Path = tempPath("warmsave");
  ServeCaches Caches(Path);
  ASSERT_TRUE(handleSubmit(c9Request(1), &Caches, "", 0).Ok);
  ASSERT_TRUE(Caches.save());
  const ino_t Inode = inodeOf(Path);
  const std::string Bytes = fileBytes(Path);
  ASSERT_NE(Inode, 0u);

  // The memo hits, so nothing changed and the save writes nothing (a
  // rewrite renames a new inode into place).
  ASSERT_TRUE(handleSubmit(c9Request(1), &Caches, "", 1).Ok);
  EXPECT_GE(counterValue("serve.cache.detect.hits"), 1u);
  ASSERT_TRUE(Caches.save());
  EXPECT_EQ(inodeOf(Path), Inode);
  EXPECT_EQ(fileBytes(Path), Bytes);
  ::unlink(Path.c_str());
}

TEST(CacheSaveTest, EditedResubmitReplacesTheFile) {
  const std::string Path = tempPath("editsave");
  std::vector<std::string> Answers;
  {
    ServeCaches Caches(Path);
    SubmitResponse First = handleSubmit(c9Request(1), &Caches, "", 0);
    ASSERT_TRUE(First.Ok) << First.ErrorMessage;
    ASSERT_TRUE(Caches.save());
    const ino_t Inode = inodeOf(Path);
    const std::string Bytes = fileBytes(Path);

    SubmitResponse Edited = handleSubmit(editedC9Request(), &Caches, "", 1);
    ASSERT_TRUE(Edited.Ok) << Edited.ErrorMessage;
    ASSERT_TRUE(Caches.save());
    EXPECT_NE(inodeOf(Path), Inode);
    EXPECT_NE(fileBytes(Path), Bytes);
    Answers = {First.Stdout, Edited.Stdout};
  }

  // A restart on the replaced file hits the memo for both sources.
  ServeCaches Restarted(Path);
  ASSERT_TRUE(Restarted.loadedFromDisk());
  const std::vector<SubmitRequest> Requests = {c9Request(1),
                                               editedC9Request()};
  for (size_t I = 0; I < Requests.size(); ++I) {
    SubmitResponse Warm = handleSubmit(Requests[I], &Restarted, "", I);
    ASSERT_TRUE(Warm.Ok) << Warm.ErrorMessage;
    EXPECT_EQ(Warm.Stdout, Answers[I]) << "request " << I;
    EXPECT_GE(counterValue("serve.cache.detect.hits"), 1u) << "request " << I;
  }
  ::unlink(Path.c_str());
}

TEST(CacheSaveTest, WarmResubmitAfterAnEditLeavesTheFileAlone) {
  // Returning to a module after serving its edit: both detection stages
  // are in the memo, so nothing changed and the save writes nothing.
  const std::string Path = tempPath("backsave");
  ServeCaches Caches(Path);
  ASSERT_TRUE(handleSubmit(c9Request(1), &Caches, "", 0).Ok);
  ASSERT_TRUE(Caches.save());
  ASSERT_TRUE(handleSubmit(editedC9Request(), &Caches, "", 1).Ok);
  ASSERT_TRUE(Caches.save());
  const ino_t Inode = inodeOf(Path);
  const std::string Bytes = fileBytes(Path);
  ASSERT_NE(Inode, 0u);

  ASSERT_TRUE(handleSubmit(c9Request(1), &Caches, "", 2).Ok);
  EXPECT_GE(counterValue("serve.cache.detect.hits"), 1u);
  ASSERT_TRUE(Caches.save());
  EXPECT_EQ(inodeOf(Path), Inode);
  EXPECT_EQ(fileBytes(Path), Bytes);
  ::unlink(Path.c_str());
}

TEST(CacheSaveTest, DetectMemoInsertAloneReplacesTheFile) {
  const std::string Path = tempPath("memosave");
  ServeCaches Caches(Path);
  ASSERT_TRUE(handleSubmit(c9Request(1), &Caches, "", 0).Ok);
  ASSERT_TRUE(Caches.save());
  const ino_t Inode = inodeOf(Path);

  // Another detect seed: the same source, but the detection stage is new,
  // so its memo entry alone must reach the file.
  SubmitRequest Reseeded = c9Request(1);
  Reseeded.Args.Detect.BaseSeed += 1;
  ASSERT_TRUE(handleSubmit(Reseeded, &Caches, "", 1).Ok);
  EXPECT_EQ(counterValue("serve.cache.detect.misses"), 1u);
  ASSERT_TRUE(Caches.save());
  EXPECT_NE(inodeOf(Path), Inode);
  Result<CacheSnapshot> Loaded = loadCacheFile(Path);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.error().str();
  EXPECT_EQ(Loaded->DetectMemo.size(), 2u);
  ::unlink(Path.c_str());
}

TEST(CacheSaveTest, FailedSaveIsRetriedAfterARequestThatChangesNothing) {
  const std::string Path = tempPath("retrysave");
  const std::string TempPath = Path + ".tmp";
  ServeCaches Caches(Path);
  ASSERT_TRUE(handleSubmit(c9Request(1), &Caches, "", 0).Ok);
  ASSERT_GT(Caches.detectMemoCount(), 0u);

  // A directory in the temp file's place: the save cannot even begin.
  ASSERT_EQ(::mkdir(TempPath.c_str(), 0755), 0);
  EXPECT_FALSE(Caches.save());
  ::rmdir(TempPath.c_str());
  EXPECT_NE(::access(Path.c_str(), F_OK), 0);

  // The warm resubmit changes nothing; its save still owes the entry.
  ASSERT_TRUE(handleSubmit(c9Request(1), &Caches, "", 1).Ok);
  ASSERT_TRUE(Caches.save());
  Result<CacheSnapshot> Loaded = loadCacheFile(Path);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.error().str();
  EXPECT_EQ(Loaded->DetectMemo.size(), Caches.detectMemoCount());
  ::unlink(Path.c_str());
}

TEST(CacheSaveTest, ColdStartWritesTheFileAtTheFirstSave) {
  // No file yet: the first save creates one.
  const std::string Missing = tempPath("missing");
  {
    ServeCaches Caches(Missing);
    EXPECT_FALSE(Caches.loadedFromDisk());
    ASSERT_TRUE(Caches.save());
  }
  EXPECT_TRUE(loadCacheFile(Missing).hasValue());
  ::unlink(Missing.c_str());

  // A version-3 file (it held static summaries) is refused, and the first
  // save replaces it.
  const std::string Old = tempPath("version3");
  {
    int Fd = ::open(Old.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(Fd, 0);
    wire::RecordWriter Header;
    Header.add("magic", std::string_view("narada.serve_cache"));
    Header.add("version", static_cast<uint64_t>(3));
    ASSERT_TRUE(wire::writeFrame(Fd, Header.str()));
    ::close(Fd);
  }
  ASSERT_FALSE(loadCacheFile(Old).hasValue());
  {
    ServeCaches Caches(Old);
    EXPECT_FALSE(Caches.loadedFromDisk());
    ASSERT_TRUE(Caches.save());
  }
  Result<CacheSnapshot> Loaded = loadCacheFile(Old);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.error().str();
  EXPECT_TRUE(Loaded->DetectMemo.empty());
  EXPECT_TRUE(ServeCaches(Old).loadedFromDisk());
  ::unlink(Old.c_str());
}

TEST(CacheSaveTest, RefusedFileAndFailedSaveWarnOnStderr) {
  // A version-3 file is refused with a line on stderr, at the default log
  // level.
  const std::string Old = tempPath("warn_version3");
  {
    int Fd = ::open(Old.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(Fd, 0);
    wire::RecordWriter Header;
    Header.add("magic", std::string_view("narada.serve_cache"));
    Header.add("version", static_cast<uint64_t>(3));
    ASSERT_TRUE(wire::writeFrame(Fd, Header.str()));
    ::close(Fd);
  }
  ::testing::internal::CaptureStderr();
  {
    ServeCaches Caches(Old);
    EXPECT_FALSE(Caches.loadedFromDisk());
  }
  std::string Err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(Err.rfind("serve: starting cold: ", 0), 0u) << Err;
  EXPECT_NE(Err.find("version"), std::string::npos) << Err;
  ::unlink(Old.c_str());

  // A missing file is a normal cold start, and silent.
  ::testing::internal::CaptureStderr();
  { ServeCaches Caches(tempPath("warn_missing")); }
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");

  // A save into a directory that does not exist fails, and says so.
  const std::string Unwritable = tempPath("warn_nodir") + "/cache";
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(saveCacheFile(Unwritable, CacheSnapshot()));
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "serve: failed to persist cache file '" + Unwritable + "'\n");
}

//===----------------------------------------------------------------------===//
// When the race database file is written: after a request that ingested.
//===----------------------------------------------------------------------===//

SubmitRequest c9SynthesizeRequest() {
  SubmitRequest Req = c9Request(1);
  Req.Args.Command = "synthesize";
  Req.Args.StaticRank = false;
  return Req;
}

TEST(RaceDbSaveTest, SynthesizeAfterDetectLeavesTheFileAlone) {
  const std::string Path = tempPath("racedbsave");
  RaceDbFile Db(Path, {});
  // Nothing ingested yet: no file until the first detection.
  ASSERT_TRUE(Db.save());
  EXPECT_NE(::access(Path.c_str(), F_OK), 0);

  ASSERT_TRUE(handleSubmit(c9Request(1), nullptr, "", 0, &Db.db()).Ok);
  EXPECT_TRUE(Db.pending());
  ASSERT_TRUE(Db.save());
  EXPECT_FALSE(Db.pending());
  const ino_t Inode = inodeOf(Path);
  const std::string Bytes = fileBytes(Path);
  ASSERT_NE(Inode, 0u);

  // A synthesize runs no detection, so it ingests nothing and the save
  // writes nothing (a rewrite renames a new inode into place).
  SubmitResponse Synth = handleSubmit(c9SynthesizeRequest(), nullptr, "", 1,
                                      &Db.db());
  ASSERT_TRUE(Synth.Ok) << Synth.ErrorMessage;
  EXPECT_EQ(Synth.Exit, 0);
  EXPECT_FALSE(Db.pending());
  ASSERT_TRUE(Db.save());
  EXPECT_EQ(inodeOf(Path), Inode);
  EXPECT_EQ(fileBytes(Path), Bytes);

  // The next detection is a new run: the file is replaced.
  ASSERT_TRUE(handleSubmit(c9Request(1), nullptr, "", 2, &Db.db()).Ok);
  ASSERT_TRUE(Db.save());
  EXPECT_NE(inodeOf(Path), Inode);
  Result<racedb::RaceDb> Loaded = racedb::loadRaceDb(Path);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.error().str();
  EXPECT_EQ(Loaded->NextRunId, 3u);
  ::unlink(Path.c_str());
}

TEST(RaceDbSaveTest, FailedSaveIsRetriedAfterARequestThatIngestsNothing) {
  const std::string Path = tempPath("racedbretry");
  const std::string TempPath = Path + ".tmp";
  RaceDbFile Db(Path, {});
  ASSERT_TRUE(handleSubmit(c9Request(1), nullptr, "", 0, &Db.db()).Ok);
  ASSERT_FALSE(Db.db().Races.empty());

  // A directory in the temp file's place: the save cannot even begin.
  ASSERT_EQ(::mkdir(TempPath.c_str(), 0755), 0);
  EXPECT_FALSE(Db.save());
  ::rmdir(TempPath.c_str());
  EXPECT_NE(::access(Path.c_str(), F_OK), 0);
  EXPECT_TRUE(Db.pending());

  // The synthesize ingests nothing; its save still owes the detection.
  ASSERT_TRUE(handleSubmit(c9SynthesizeRequest(), nullptr, "", 1, &Db.db()).Ok);
  ASSERT_TRUE(Db.save());
  EXPECT_FALSE(Db.pending());
  Result<racedb::RaceDb> Loaded = racedb::loadRaceDb(Path);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.error().str();
  EXPECT_EQ(Loaded->NextRunId, 2u);
  EXPECT_EQ(Loaded->Races.size(), Db.db().Races.size());
  ::unlink(Path.c_str());
}

/// The payloads of the frames in \p Path, header first.
std::vector<std::string> framesOf(const std::string &Path) {
  std::vector<std::string> Frames;
  int Fd = ::open(Path.c_str(), O_RDONLY);
  EXPECT_GE(Fd, 0);
  std::string Payload;
  while (Fd >= 0 && wire::readFrame(Fd, Payload) == wire::ReadStatus::Ok)
    Frames.push_back(Payload);
  if (Fd >= 0)
    ::close(Fd);
  return Frames;
}

TEST(CacheFileTest, KeptFramesEqualAFreshEncoding) {
  const std::string Path = tempPath("frames");
  {
    ServeCaches Caches(Path);
    ASSERT_TRUE(handleSubmit(c9Request(1), &Caches, "", 0).Ok);
    ASSERT_TRUE(handleSubmit(editedC9Request(), &Caches, "", 1).Ok);
    ASSERT_TRUE(Caches.save());
  }
  Result<CacheSnapshot> Loaded = loadCacheFile(Path);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.error().str();
  ASSERT_EQ(Loaded->DetectOrder.size(), 2u);

  // After the header: the memo in FIFO order, each frame what encoding
  // its decoded entry afresh produces.
  std::vector<std::string> Fresh;
  for (uint64_t Key : Loaded->DetectOrder)
    Fresh.push_back(
        CacheSnapshot::DetectEntry(Key, Loaded->DetectMemo.at(Key).Results)
            .Frame);
  const std::vector<std::string> Frames = framesOf(Path);
  ASSERT_EQ(Frames.size(), Fresh.size() + 1);
  for (size_t I = 0; I < Fresh.size(); ++I)
    EXPECT_EQ(Frames[I + 1], Fresh[I]) << "frame " << I + 1;

  // Loading the file and saving it again reproduces it byte for byte.
  const std::string Copy = tempPath("frames_copy");
  ASSERT_TRUE(saveCacheFile(Copy, *Loaded));
  EXPECT_EQ(fileBytes(Copy), fileBytes(Path));
  ::unlink(Copy.c_str());
  ::unlink(Path.c_str());
}

/// C1 plus a factory that wires a fresh queue into a wrapper, and a seed
/// that gets its wrapper from it.  The setter and factory databases, and
/// so the derived contexts, depend on whether seedB is in the seed list.
SubmitRequest seedListRequest(std::vector<std::string> Seeds) {
  const CorpusEntry *Entry = findCorpusEntry("C1");
  EXPECT_NE(Entry, nullptr);
  SubmitRequest Req;
  Req.Args.Command = "synthesize";
  Req.Args.Input = "lib.mj";
  Req.Args.Names = std::move(Seeds);
  Req.Source = Entry->Source + R"(
class Holder {
  method make(): SynchronizedWriteBehindQueue {
    return new SynchronizedWriteBehindQueue(new CoalescedWriteBehindQueue);
  }
}

test seedB {
  var h: Holder = new Holder;
  var w: SynchronizedWriteBehindQueue = h.make();
  w.clear();
  w.addFirst(new DelayedEntry);
  w.addLast(new DelayedEntry);
  var p: DelayedEntry = w.peekFirst();
  var r: DelayedEntry = w.removeFirst();
  var n: int = w.size();
  var b: bool = w.isEmpty();
}
)";
  return Req;
}

/// \p Out without the stage times in synthesize's first line: they are
/// wall-clock readings, not output.
std::string maskTimes(std::string Out) {
  size_t Open = Out.find(" (analysis ");
  size_t Close = Out.find(")\n", Open);
  if (Open != std::string::npos && Close != std::string::npos)
    Out.erase(Open, Close + 1 - Open);
  return Out;
}

TEST(DaemonLoopbackTest, SeedListChangeWarmEqualsItsOwnCold) {
  // Same source, different seed lists: each warm answer must match a cold
  // run of its own request, whichever list the daemon served first.
  const std::vector<std::vector<std::string>> Lists = {{"seedC1", "seedB"},
                                                       {"seedB"}};
  std::vector<std::string> Cold;
  for (const auto &Seeds : Lists)
    Cold.push_back(maskTimes(coldStdout(seedListRequest(Seeds))));
  ASSERT_NE(Cold[0], Cold[1]);

  for (const std::vector<size_t> &Order :
       {std::vector<size_t>{0, 1}, std::vector<size_t>{1, 0}}) {
    ServeCaches Caches("");
    for (size_t Unit = 0; Unit < Order.size(); ++Unit) {
      size_t I = Order[Unit];
      SubmitResponse Warm =
          handleSubmit(seedListRequest(Lists[I]), &Caches, "", Unit);
      ASSERT_TRUE(Warm.Ok) << Warm.ErrorMessage;
      EXPECT_EQ(maskTimes(Warm.Stdout), Cold[I])
          << "seed list " << I << " served after list " << Order[0];
    }
  }
}

TEST(DaemonLoopbackTest, TooDeepSourceGetsAnErrorReplyAndTheDaemonServesOn) {
  // Parsed in the daemon's own process: without the parser's nesting
  // bound this overflows its stack and drops every client.
  SubmitRequest Deep = c9Request(1);
  Deep.Source += "class Deep { method m(): int { return " +
                 std::string(10'000, '(') + "1" + std::string(10'000, ')') +
                 "; } }\n";
  SubmitResponse Refused = handleSubmit(Deep, nullptr, "", 0);
  ASSERT_TRUE(Refused.Ok) << Refused.ErrorMessage;
  EXPECT_EQ(Refused.Exit, 1);
  EXPECT_TRUE(Refused.Stdout.empty());
  EXPECT_NE(Refused.Stderr.find("nesting deeper than 256 levels"),
            std::string::npos)
      << Refused.Stderr;

  SubmitResponse Next = handleSubmit(c9Request(1), nullptr, "", 1);
  ASSERT_TRUE(Next.Ok) << Next.ErrorMessage;
  EXPECT_EQ(Next.Exit, 0);
  EXPECT_EQ(Next.Stdout, coldStdout(c9Request(1)));
}

TEST(DaemonLoopbackTest, InjectedFaultQuarantinesOneRequest) {
  fault::arm("serve.request", 0, fault::Mode::Throw);
  SubmitResponse Faulted = handleSubmit(c9Request(1), nullptr, "", 0);
  fault::disarm();
  EXPECT_FALSE(Faulted.Ok);
  EXPECT_NE(Faulted.ErrorMessage.find("quarantined"), std::string::npos)
      << Faulted.ErrorMessage;

  // The handler survives: the next request (different unit) runs clean.
  SubmitResponse Clean = handleSubmit(c9Request(1), nullptr, "", 1);
  EXPECT_TRUE(Clean.Ok) << Clean.ErrorMessage;
  EXPECT_EQ(Clean.Stdout, coldStdout(c9Request(1)));
}

} // namespace
