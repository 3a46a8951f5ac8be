//===- tests/explore_resume_test.cpp - Checkpointed systematic search -----===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
// A systematic search resumes each schedule from the checkpoint its
// decision point left, when the visitor can copy its observer, and
// re-executes it from step 0 otherwise.  The differential tests run both
// over every synthesized C1-C9 test and require the same schedules, run
// results, events, detector records and counters.  The pins record what
// the search of every synthesized test does, so a resume one step late
// fails here.  The checkpoint accounting tests count the copies alive.
//
//===----------------------------------------------------------------------===//

#include "EventDigest.h"
#include "corpus/Corpus.h"
#include "detect/HBDetector.h"
#include "detect/LockSetDetector.h"
#include "explore/Explorer.h"
#include "obs/Metrics.h"
#include "support/Digest.h"
#include "support/StringUtils.h"
#include "synth/Narada.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <type_traits>

using namespace narada;

namespace {

NaradaResult synthesize(const std::string &Class) {
  const CorpusEntry &Entry = *findCorpusEntry(Class);
  NaradaOptions Options;
  Options.FocusClass = Entry.ClassName;
  Result<NaradaResult> R = runNarada(Entry.Source, Entry.SeedNames, Options);
  EXPECT_TRUE(R.hasValue()) << (R ? "" : R.error().str());
  return R ? R.take() : NaradaResult{};
}

/// HB, LockSet and an event digest over one schedule, built fresh or from
/// a copy of another set's state.
class ScheduleObserver final : public ExecutionObserver {
public:
  struct State {
    HBDetector::State HB;
    LockSetDetector::State LockSet;
    EventDigest Events;
  };

  explicit ScheduleObserver(State From = {})
      : HB(std::move(From.HB)), LockSet(std::move(From.LockSet)),
        Events(From.Events) {}

  void onEvent(const TraceEvent &Event) override {
    HB.onEvent(Event);
    LockSet.onEvent(Event);
    Events.onEvent(Event);
  }
  State state() const { return {HB.state(), LockSet.state(), Events}; }

  HBDetector HB;
  LockSetDetector LockSet;
  EventDigest Events;
};

/// Everything one schedule produced.
struct ScheduleRecord {
  std::string Trace; ///< Serialized ScheduleTrace.
  std::string Run;   ///< RunResult rendered.
  std::string Events;
  std::string Races; ///< Both detectors' records and counts.
  bool operator==(const ScheduleRecord &) const = default;
};

std::string render(const RunResult &R) {
  std::string Out = formatString("steps=%llu deadlocked=%d faulted=%d "
                                 "limit=%d",
                                 static_cast<unsigned long long>(R.Steps),
                                 R.Deadlocked, R.Faulted, R.HitStepLimit);
  for (const std::string &Message : R.FaultMessages)
    Out += " fault=" + Message;
  return Out;
}

std::string render(const std::vector<CompactRace> &Records,
                   const char *Detector) {
  std::string Out;
  for (const RaceReport &R : renderRaces(Records, Detector))
    Out += formatString("%s obj=%u elem=%u threads=%u,%u\n", R.str().c_str(),
                        R.Obj, R.ElemIndex, R.FirstThread, R.SecondThread);
  return Out;
}

/// Records every schedule of a search; re-executes each from step 0.
class RecordingVisitor : public explore::ScheduleVisitor {
public:
  ExecutionObserver *beginSchedule(unsigned) override {
    Observer.emplace();
    return &*Observer;
  }
  bool endSchedule(const explore::ScheduleTrace &Trace,
                   const TestRun &Run) override {
    const HBDetector::State &HB = Observer->HB.state();
    const LockSetDetector::State &LockSet = Observer->LockSet.state();
    Schedules.push_back(
        {Trace.serialize(), render(Run.Result),
         formatString("events=%llu digest=%016llx",
                      static_cast<unsigned long long>(Observer->Events.Events),
                      static_cast<unsigned long long>(Observer->Events.Hash)),
         render(HB.Records, "hb") + render(LockSet.Records, "lockset") +
             formatString("hb instances=%llu joins=%llu compares=%llu "
                          "allocs=%llu lockset intersections=%llu",
                          static_cast<unsigned long long>(HB.InstanceCount),
                          static_cast<unsigned long long>(HB.JoinCount),
                          static_cast<unsigned long long>(HB.CompareCount),
                          static_cast<unsigned long long>(HB.AllocCount),
                          static_cast<unsigned long long>(
                              LockSet.IntersectionCount))});
    for (const RaceReport &R : Observer->HB.races())
      RaceKeys.insert(R.key());
    for (const RaceReport &R : Observer->LockSet.races())
      RaceKeys.insert(R.key());
    return true;
  }

  std::vector<ScheduleRecord> Schedules;
  std::set<std::string> RaceKeys;

protected:
  std::optional<ScheduleObserver> Observer;
};

/// The same visitor with the checkpoint hooks: schedules resume.
class ResumingVisitor final : public RecordingVisitor {
public:
  struct Checkpoint final : explore::ObserverCheckpoint {
    ScheduleObserver::State State;
    explicit Checkpoint(ScheduleObserver::State State)
        : State(std::move(State)) {}
    std::unique_ptr<explore::ObserverCheckpoint> copy() const override {
      return std::make_unique<Checkpoint>(State);
    }
  };

  std::unique_ptr<explore::ObserverCheckpoint> checkpointObserver() override {
    return std::make_unique<Checkpoint>(Observer->state());
  }
  ExecutionObserver *
  resumeSchedule(unsigned,
                 std::unique_ptr<explore::ObserverCheckpoint> From) override {
    ++Resumed;
    Observer.emplace(std::move(static_cast<Checkpoint &>(*From).State));
    return &*Observer;
  }

  unsigned Resumed = 0;
};

std::string render(const explore::ExploreOutcome &O) {
  return formatString("schedules=%u pruned=%llu exhausted=%d budget=%d "
                      "stopped=%d",
                      O.SchedulesRun, static_cast<unsigned long long>(O.Pruned),
                      O.Exhausted, O.HitScheduleBudget, O.Stopped);
}

/// One search of \p Test by a fresh \p VisitorT: its outcome, schedules,
/// and what it added to every counter and histogram but
/// explore.steps_resumed.  The visitor is gone, and so its detectors have
/// flushed, when the counters are read.
struct Search {
  std::string Outcome;
  std::vector<ScheduleRecord> Schedules;
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, std::vector<uint64_t>> Histograms;
  unsigned Resumed = 0;
  uint64_t StepsResumed = 0;
};

template <typename VisitorT>
Search search(const IRModule &M, const std::string &Test) {
  obs::MetricsRegistry &Metrics = obs::MetricsRegistry::global();
  obs::MetricsSnapshot Before = Metrics.snapshot();
  Search Out;
  {
    VisitorT V;
    Result<explore::ExploreOutcome> Outcome =
        explore::exploreSchedules(M, Test, explore::ExploreOptions(), V);
    EXPECT_TRUE(Outcome.hasValue()) << Test;
    if (Outcome)
      Out.Outcome = render(*Outcome);
    Out.Schedules = std::move(V.Schedules);
    if constexpr (std::is_same_v<VisitorT, ResumingVisitor>)
      Out.Resumed = V.Resumed;
  }
  obs::MetricsSnapshot After = Metrics.snapshot();
  for (const auto &[Name, Value] : After.Counters) {
    uint64_t Delta = Value - Before.counter(Name);
    if (Name == "explore.steps_resumed")
      Out.StepsResumed = Delta;
    else if (Delta)
      Out.Counters[Name] = Delta;
  }
  for (const auto &[Name, H] : After.Histograms) {
    std::vector<uint64_t> Delta = H.BucketCounts;
    auto It = Before.Histograms.find(Name);
    for (size_t I = 0; It != Before.Histograms.end() && I < Delta.size(); ++I)
      Delta[I] -= It->second.BucketCounts[I];
    Out.Histograms[Name] = Delta;
  }
  return Out;
}

class ExplorerCheckpointTest : public ::testing::TestWithParam<std::string> {
};

} // namespace

TEST_P(ExplorerCheckpointTest, ResumedSchedulesEqualFullReplays) {
  NaradaResult R = synthesize(GetParam());
  ASSERT_FALSE(R.Tests.empty());
  const IRModule &M = *R.Program.Module;
  uint64_t Schedules = 0, Resumed = 0;
  for (const SynthesizedTestInfo &Info : R.Tests) {
    SCOPED_TRACE(Info.Name);
    Search Replayed = search<RecordingVisitor>(M, Info.Name);
    Search Resuming = search<ResumingVisitor>(M, Info.Name);
    EXPECT_EQ(Resuming.Outcome, Replayed.Outcome);
    ASSERT_EQ(Resuming.Schedules.size(), Replayed.Schedules.size());
    for (size_t I = 0; I != Replayed.Schedules.size(); ++I) {
      SCOPED_TRACE(formatString("schedule %zu", I));
      const ScheduleRecord &A = Replayed.Schedules[I];
      const ScheduleRecord &B = Resuming.Schedules[I];
      EXPECT_EQ(B.Trace, A.Trace);
      EXPECT_EQ(B.Run, A.Run);
      EXPECT_EQ(B.Events, A.Events);
      EXPECT_EQ(B.Races, A.Races);
      if (B != A)
        break;
    }
    // Whole-schedule counting: the runtime, VM and detector counters and
    // the steps-per-run histogram read the same either way.
    EXPECT_EQ(Resuming.Counters, Replayed.Counters);
    EXPECT_EQ(Resuming.Histograms, Replayed.Histograms);
    // Every schedule but the first resumes, and skips its shared prefix.
    EXPECT_EQ(Resuming.Resumed + 1, Resuming.Schedules.size());
    EXPECT_EQ(Replayed.StepsResumed, 0u);
    EXPECT_EQ(Resuming.StepsResumed > 0, Resuming.Resumed > 0);
    Schedules += Resuming.Schedules.size();
    Resumed += Resuming.Resumed;
  }
  EXPECT_GT(Resumed, 0u);
  EXPECT_GT(Schedules, R.Tests.size());
}

// Recorded with the explorer that re-executed every schedule from step 0,
// before schedules resumed from checkpoints.  Per class, summed over its
// synthesized tests in order: schedules run and pruned, tests whose
// bounded space was covered, one digest over every schedule's serialized
// trace and steps, and the distinct race keys HB and LockSet reported
// over all schedules.
TEST_P(ExplorerCheckpointTest, SearchMatchesPin) {
  static const std::map<std::string, std::string> Want = {
      {"C1", "tests=89 schedules=3770 pruned=169185 exhausted=89 "
             "traces=78b96d139d0eca66 races=85 keys=414a7e5bbb41cdaf"},
      {"C2", "tests=33 schedules=968 pruned=40471 exhausted=33 "
             "traces=dfb088561d64e6ab races=48 keys=168a51d8c9b6bab4"},
      {"C3", "tests=26 schedules=1642 pruned=98505 exhausted=25 "
             "traces=be792dc506312ba1 races=21 keys=b28130e9703c1174"},
      {"C4", "tests=97 schedules=6153 pruned=256001 exhausted=96 "
             "traces=8faf53d75fbe35ae races=94 keys=e7162b502472c14f"},
      {"C5", "tests=179 schedules=8423 pruned=241967 exhausted=178 "
             "traces=eb747a51384de4f6 races=85 keys=7a6b31c1037ec868"},
      {"C6", "tests=98 schedules=7793 pruned=486463 exhausted=79 "
             "traces=b993fe887f671b4d races=401 keys=a91222e211e4e837"},
      {"C7", "tests=15 schedules=229 pruned=4100 exhausted=15 "
             "traces=6c7d2a9ffeb674b7 races=13 keys=f36d5fe0070a43a1"},
      {"C8", "tests=16 schedules=133 pruned=700 exhausted=16 "
             "traces=258fb479c4ba70b1 races=21 keys=ddc3c97377c2bd89"},
      {"C9", "tests=8 schedules=87 pruned=666 exhausted=8 "
             "traces=89d9a453ce202571 races=11 keys=a5dc772dcf6d2aaa"},
  };
  NaradaResult R = synthesize(GetParam());
  ASSERT_FALSE(R.Tests.empty());
  uint64_t Schedules = 0, Pruned = 0, Exhausted = 0;
  uint64_t TraceDigest = digest::Fnv1aBasis;
  ResumingVisitor V;
  for (const SynthesizedTestInfo &Info : R.Tests) {
    size_t First = V.Schedules.size();
    Result<explore::ExploreOutcome> Outcome = explore::exploreSchedules(
        *R.Program.Module, Info.Name, explore::ExploreOptions(), V);
    ASSERT_TRUE(Outcome.hasValue()) << Info.Name;
    Schedules += Outcome->SchedulesRun;
    Pruned += Outcome->Pruned;
    Exhausted += Outcome->Exhausted;
    // The trace and the run's steps, as the search reported them.
    for (size_t I = First; I != V.Schedules.size(); ++I) {
      const ScheduleRecord &S = V.Schedules[I];
      uint64_t Steps = std::stoull(S.Run.substr(S.Run.find('=') + 1));
      TraceDigest = digest::update(TraceDigest, S.Trace);
      TraceDigest = digest::updateU64(TraceDigest, Steps);
    }
  }
  EXPECT_GT(V.Resumed, 0u);
  uint64_t KeyDigest = digest::Fnv1aBasis;
  for (const std::string &Key : V.RaceKeys)
    KeyDigest = digest::update(KeyDigest, Key);
  EXPECT_EQ(formatString("tests=%zu schedules=%llu pruned=%llu "
                         "exhausted=%llu traces=%016llx races=%zu "
                         "keys=%016llx",
                         R.Tests.size(),
                         static_cast<unsigned long long>(Schedules),
                         static_cast<unsigned long long>(Pruned),
                         static_cast<unsigned long long>(Exhausted),
                         static_cast<unsigned long long>(TraceDigest),
                         V.RaceKeys.size(),
                         static_cast<unsigned long long>(KeyDigest)),
            Want.at(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Classes, ExplorerCheckpointTest,
                         ::testing::Values("C1", "C2", "C3", "C4", "C5", "C6",
                                           "C7", "C8", "C9"),
                         [](const auto &Info) { return Info.param; });

namespace {

/// Three threads racing on one counter: decision points nest, so the DFS
/// stack holds several checkpoints at once.
constexpr const char *ThreeCounters =
    "class Counter { field count: int;\n"
    "  method inc() { this.count = this.count + 1; } }\n"
    "test racy {\n"
    "  var c: Counter = new Counter;\n"
    "  spawn { c.inc(); }\n"
    "  spawn { c.inc(); }\n"
    "  spawn { c.inc(); }\n"
    "}\n";

/// Counts the events of each schedule, and every checkpoint alive: the
/// ones the search made (originals) and the copies it handed out.
class CountingVisitor final : public explore::ScheduleVisitor {
public:
  class Counted final : public explore::ObserverCheckpoint {
  public:
    Counted(CountingVisitor &V, unsigned Id, uint64_t Events, bool Original)
        : V(V), Id(Id), Events(Events), Original(Original) {
      ++V.Live;
    }
    ~Counted() override {
      --V.Live;
      // The search frees an original only after its branch's last
      // alternative took it, or when the search ends.
      if (Original && !V.Taken.count(Id) && !V.Ending)
        ++V.FreedEarly;
    }
    std::unique_ptr<explore::ObserverCheckpoint> copy() const override {
      ++V.Copies;
      return std::make_unique<Counted>(V, Id, Events, /*Original=*/false);
    }

    CountingVisitor &V;
    unsigned Id;
    uint64_t Events;
    bool Original;
  };

  ExecutionObserver *beginSchedule(unsigned) override {
    ++Fresh;
    Counter = EventCounter();
    return &Counter;
  }
  bool endSchedule(const explore::ScheduleTrace &, const TestRun &) override {
    EventsPerSchedule.push_back(Counter.Events);
    // The gauge is the deepest the DFS stack has been, and the search
    // keeps one checkpoint per decision with alternatives left.
    int64_t Depth = obs::MetricsRegistry::global()
                        .gauge("explore.frontier_peak")
                        .value();
    if (static_cast<int64_t>(PeakLive) > Depth)
      ++OverDepth;
    return true;
  }
  std::unique_ptr<explore::ObserverCheckpoint> checkpointObserver() override {
    auto C = std::make_unique<Counted>(*this, Made++, Counter.Events,
                                       /*Original=*/true);
    PeakLive = std::max(PeakLive, Live);
    return C;
  }
  ExecutionObserver *
  resumeSchedule(unsigned,
                 std::unique_ptr<explore::ObserverCheckpoint> From) override {
    auto &C = static_cast<Counted &>(*From);
    if (C.Original && !Taken.insert(C.Id).second)
      ++TakenTwice;
    Counter.Events = C.Events;
    return &Counter;
  }

  struct EventCounter final : ExecutionObserver {
    void onEvent(const TraceEvent &) override { ++Events; }
    uint64_t Events = 0;
  } Counter;

  unsigned Live = 0, PeakLive = 0, Made = 0, Copies = 0, Fresh = 0;
  unsigned FreedEarly = 0, OverDepth = 0, TakenTwice = 0;
  bool Ending = false;
  std::set<unsigned> Taken;
  std::vector<uint64_t> EventsPerSchedule;
};

/// The event counts of every schedule when each re-executes from step 0.
std::vector<uint64_t> replayedEventCounts(const IRModule &M,
                                          const std::string &Test,
                                          const explore::ExploreOptions &O) {
  struct Replaying final : explore::ScheduleVisitor {
    EventDigest Digest;
    std::vector<uint64_t> Events;
    ExecutionObserver *beginSchedule(unsigned) override {
      Digest = EventDigest();
      return &Digest;
    }
    bool endSchedule(const explore::ScheduleTrace &,
                     const TestRun &) override {
      Events.push_back(Digest.Events);
      return true;
    }
  } V;
  EXPECT_TRUE(explore::exploreSchedules(M, Test, O, V).hasValue());
  return V.Events;
}

} // namespace

TEST(ExplorerCheckpointAccountingTest, LiveCheckpointsStayWithinStackDepth) {
  Result<CompiledProgram> P = compileProgram(ThreeCounters);
  ASSERT_TRUE(P.hasValue()) << P.error().str();
  obs::MetricsRegistry::global().gauge("explore.frontier_peak").reset();
  CountingVisitor V;
  Result<explore::ExploreOutcome> Outcome = explore::exploreSchedules(
      *P->Module, "racy", explore::ExploreOptions(), V);
  ASSERT_TRUE(Outcome.hasValue());
  V.Ending = true;
  ASSERT_TRUE(Outcome->Exhausted);
  ASSERT_GT(Outcome->SchedulesRun, 3u);

  // Only the first schedule starts from step 0.
  EXPECT_EQ(V.Fresh, 1u);
  // Several decisions were open at once, never more than the stack held.
  EXPECT_GT(V.PeakLive, 1u);
  EXPECT_EQ(V.OverDepth, 0u);
  // Each original went to its branch's last alternative, exactly once and
  // never earlier; the other alternatives resumed from copies.
  EXPECT_EQ(V.Taken.size(), V.Made);
  EXPECT_EQ(V.TakenTwice, 0u);
  EXPECT_EQ(V.FreedEarly, 0u);
  EXPECT_EQ(V.Made + V.Copies + 1, Outcome->SchedulesRun);
  // A covered space leaves no checkpoint behind.
  EXPECT_EQ(V.Live, 0u);
  // A resumed schedule's observer saw the prefix through its checkpoint.
  EXPECT_EQ(V.EventsPerSchedule,
            replayedEventCounts(*P->Module, "racy",
                                explore::ExploreOptions()));
}

TEST(ExplorerCheckpointAccountingTest, StoppedSearchFreesItsCheckpoints) {
  Result<CompiledProgram> P = compileProgram(ThreeCounters);
  ASSERT_TRUE(P.hasValue()) << P.error().str();
  explore::ExploreOptions Options;
  Options.MaxSchedules = 3;
  CountingVisitor V;
  V.Ending = true; // Originals still on the stack are freed with it.
  Result<explore::ExploreOutcome> Outcome =
      explore::exploreSchedules(*P->Module, "racy", Options, V);
  ASSERT_TRUE(Outcome.hasValue());
  EXPECT_TRUE(Outcome->HitScheduleBudget);
  EXPECT_GT(V.Made, V.Taken.size());
  EXPECT_EQ(V.Live, 0u);
  EXPECT_EQ(V.EventsPerSchedule,
            replayedEventCounts(*P->Module, "racy", Options));
}
