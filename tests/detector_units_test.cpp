//===- tests/detector_units_test.cpp - Detector state-machine unit tests -------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
// Feeds hand-built event streams to the passive detectors to pin down
// their state machines precisely: FastTrack's epoch/read-map transitions
// and Eraser's Virgin -> Exclusive -> Shared(-Modified) phases with
// candidate-set refinement.
//
//===----------------------------------------------------------------------===//

#include "EventNames.h"
#include "detect/HBDetector.h"
#include "detect/LockSetDetector.h"
#include "obs/Metrics.h"

#include <gtest/gtest.h>

using namespace narada;

namespace {

/// A tiny event-stream builder over one fake object universe.
class Stream {
public:
  Stream &start(ThreadId T, ThreadId Parent = NoThread) {
    TraceEvent E = base(EventKind::ThreadStart, T);
    E.ParentThread = Parent;
    Events.push_back(E);
    return *this;
  }
  Stream &read(ThreadId T, ObjectId Obj, unsigned Field = 0) {
    TraceEvent E = base(EventKind::ReadField, T);
    E.Obj = Obj;
    E.FieldIndex = Field;
    E.Member = Names("f" + std::to_string(Field));
    E.ClassName = Names("C");
    Events.push_back(E);
    return *this;
  }
  Stream &write(ThreadId T, ObjectId Obj, unsigned Field = 0) {
    TraceEvent E = base(EventKind::WriteField, T);
    E.Obj = Obj;
    E.FieldIndex = Field;
    E.Member = Names("f" + std::to_string(Field));
    E.ClassName = Names("C");
    Events.push_back(E);
    return *this;
  }
  Stream &readElem(ThreadId T, ObjectId Obj, unsigned Index) {
    TraceEvent E = base(EventKind::ReadElem, T);
    E.Obj = Obj;
    E.FieldIndex = Index;
    E.ClassName = Names("IntArray");
    Events.push_back(E);
    return *this;
  }
  Stream &writeElem(ThreadId T, ObjectId Obj, unsigned Index) {
    TraceEvent E = base(EventKind::WriteElem, T);
    E.Obj = Obj;
    E.FieldIndex = Index;
    E.ClassName = Names("IntArray");
    Events.push_back(E);
    return *this;
  }
  Stream &lock(ThreadId T, ObjectId Obj) {
    TraceEvent E = base(EventKind::Lock, T);
    E.Obj = Obj;
    Events.push_back(E);
    return *this;
  }
  Stream &unlock(ThreadId T, ObjectId Obj) {
    TraceEvent E = base(EventKind::Unlock, T);
    E.Obj = Obj;
    Events.push_back(E);
    return *this;
  }
  /// Places the last event at static point \p Func : \p Pc.
  Stream &at(const IRFunction *Func, uint32_t Pc) {
    Events.back().Func = Func;
    Events.back().Pc = Pc;
    return *this;
  }

  void feed(ExecutionObserver &Observer) const {
    for (const TraceEvent &E : Events)
      Observer.onEvent(E);
  }

private:
  TraceEvent base(EventKind Kind, ThreadId T) {
    TraceEvent E;
    E.Kind = Kind;
    E.Thread = T;
    E.Label = ++Label;
    return E;
  }

  EventNames Names;
  std::vector<TraceEvent> Events;
  uint64_t Label = 0;
};

} // namespace

//===----------------------------------------------------------------------===//
// HBDetector
//===----------------------------------------------------------------------===//

TEST(HBUnitTest, UnorderedWritesRace) {
  Stream S;
  S.start(0).start(1).write(0, 5).write(1, 5);
  HBDetector HB;
  S.feed(HB);
  ASSERT_EQ(HB.races().size(), 1u);
  EXPECT_TRUE(HB.races()[0].FirstIsWrite);
  EXPECT_TRUE(HB.races()[0].SecondIsWrite);
}

TEST(HBUnitTest, SpawnEdgeOrdersParentChildAccesses) {
  Stream S;
  S.start(0).write(0, 5).start(1, /*Parent=*/0).read(1, 5);
  HBDetector HB;
  S.feed(HB);
  EXPECT_TRUE(HB.races().empty());
}

TEST(HBUnitTest, LockHandoffOrdersAccesses) {
  // t0 writes under lock 9, releases; t1 acquires 9 then reads: ordered.
  Stream S;
  S.start(0).start(1);
  S.lock(0, 9).write(0, 5).unlock(0, 9);
  S.lock(1, 9).read(1, 5).unlock(1, 9);
  HBDetector HB;
  S.feed(HB);
  EXPECT_TRUE(HB.races().empty());
}

TEST(HBUnitTest, DifferentLocksDoNotOrder) {
  Stream S;
  S.start(0).start(1);
  S.lock(0, 9).write(0, 5).unlock(0, 9);
  S.lock(1, 8).write(1, 5).unlock(1, 8);
  HBDetector HB;
  S.feed(HB);
  EXPECT_EQ(HB.races().size(), 1u);
}

TEST(HBUnitTest, ConcurrentReadsDoNotRaceButBothRaceALaterWrite) {
  // Reads by t1 and t2 are concurrent (read map inflates); an unordered
  // write by t0 then races against both recorded reads.
  Stream S;
  S.start(0).start(1).start(2);
  S.read(1, 5).read(2, 5);
  S.write(0, 5);
  HBDetector HB;
  S.feed(HB);
  // No read-read race; two read-write races (one per reader).
  ASSERT_EQ(HB.races().size(), 2u);
  for (const RaceReport &R : HB.races()) {
    EXPECT_FALSE(R.FirstIsWrite);
    EXPECT_TRUE(R.SecondIsWrite);
  }
}

TEST(HBUnitTest, RepeatedRaceIsReportedOnceAndCountedPerInstance) {
  // One unordered write/write pair, repeated on 1000 fresh objects: races()
  // keeps the first instance only, detect.hb_reports counts all of them.
  IRFunction Put("C.put", IRFunction::Kind::Method);
  IRFunction Clear("C.clear", IRFunction::Kind::Method);
  Stream S;
  S.start(0).start(1);
  for (ObjectId Obj = 1; Obj <= 1000; ++Obj)
    S.write(0, Obj).at(&Put, 3).write(1, Obj).at(&Clear, 7);
  obs::Counter &Reports =
      obs::MetricsRegistry::global().counter("detect.hb_reports");
  uint64_t Before = Reports.value();
  {
    HBDetector HB;
    S.feed(HB);
    ASSERT_EQ(HB.races().size(), 1u);
    const RaceReport &R = HB.races()[0];
    EXPECT_EQ(R.Obj, 1u);
    EXPECT_EQ(R.FirstThread, 0u);
    EXPECT_EQ(R.SecondThread, 1u);
    EXPECT_EQ(R.FirstLabel, "C.put:3");
    EXPECT_EQ(R.SecondLabel, "C.clear:7");
    EXPECT_TRUE(R.FirstIsWrite);
    EXPECT_TRUE(R.SecondIsWrite);
  }
  EXPECT_EQ(Reports.value() - Before, 1000u);
}

TEST(HBUnitTest, SameThreadNeverRaces) {
  Stream S;
  S.start(0).write(0, 5).read(0, 5).write(0, 5);
  HBDetector HB;
  S.feed(HB);
  EXPECT_TRUE(HB.races().empty());
}

TEST(HBUnitTest, DistinctFieldsAreIndependent) {
  Stream Fields;
  Fields.start(0).start(1).write(0, 5, 0).write(1, 5, 1);
  // Field slot 3 and element 3 of one object are distinct locations.
  Stream FieldAndElem;
  FieldAndElem.start(0).start(1).write(0, 5, 3).writeElem(1, 5, 3);
  FieldAndElem.readElem(0, 5, 2).writeElem(1, 5, 7);
  for (const Stream *S : {&Fields, &FieldAndElem}) {
    HBDetector HB;
    S->feed(HB);
    EXPECT_TRUE(HB.races().empty());
  }
}

TEST(HBUnitTest, DistinctObjectsAreIndependent) {
  // Object 6 first touched after a much higher id, and before one.
  for (ObjectId Other : {5u, 4000u}) {
    Stream S;
    S.start(0).start(1).write(0, Other).write(1, 6).write(0, Other + 10);
    HBDetector HB;
    S.feed(HB);
    EXPECT_TRUE(HB.races().empty()) << Other;
  }
}

//===----------------------------------------------------------------------===//
// LockSetDetector
//===----------------------------------------------------------------------===//

TEST(LockSetUnitTest, ExclusivePhaseIsExempt) {
  // One thread hammering a variable without locks: Eraser's first-thread
  // exemption keeps it silent.
  Stream S;
  S.start(0).write(0, 5).write(0, 5).read(0, 5);
  LockSetDetector LS;
  S.feed(LS);
  EXPECT_TRUE(LS.races().empty());
}

TEST(LockSetUnitTest, SharedModifiedWithNoCommonLockReports) {
  // Eraser initializes C(v) at the access that makes the variable shared
  // (t1's write under {8}); t0's next write under {9} empties it.
  Stream S;
  S.start(0).start(1);
  S.lock(0, 9).write(0, 5).unlock(0, 9);
  S.lock(1, 8).write(1, 5).unlock(1, 8);
  S.lock(0, 9).write(0, 5).unlock(0, 9);
  LockSetDetector LS;
  S.feed(LS);
  ASSERT_EQ(LS.races().size(), 1u);
  EXPECT_EQ(LS.races()[0].Detector, "lockset");
}

TEST(LockSetUnitTest, ExclusiveInitializationWithoutLocksIsExempt) {
  // A constructor-style unlocked initialization by one thread must not
  // poison C(v): later consistently-locked sharing stays silent.  This is
  // the Eraser initialization exemption the C4 corpus class relies on.
  Stream S;
  S.start(0).start(1);
  S.write(0, 5); // init, no locks, Exclusive.
  S.lock(1, 9).write(1, 5).unlock(1, 9);
  S.lock(0, 9).write(0, 5).unlock(0, 9);
  LockSetDetector LS;
  S.feed(LS);
  EXPECT_TRUE(LS.races().empty());
}

TEST(LockSetUnitTest, CommonLockStaysSilent) {
  Stream S;
  S.start(0).start(1);
  S.lock(0, 9).write(0, 5).unlock(0, 9);
  S.lock(1, 9).write(1, 5).unlock(1, 9);
  LockSetDetector LS;
  S.feed(LS);
  EXPECT_TRUE(LS.races().empty());
}

TEST(LockSetUnitTest, ReadSharingWithoutWritesStaysSilent) {
  Stream S;
  S.start(0).start(1);
  S.write(0, 5); // Exclusive initialization.
  S.read(1, 5).read(0, 5); // Shared, read-only afterwards.
  LockSetDetector LS;
  S.feed(LS);
  EXPECT_TRUE(LS.races().empty());
}

TEST(LockSetUnitTest, CandidateSetRefinesAcrossLocks) {
  // Accesses under {9, 8}, then {9}: candidate set stays {9} — no report;
  // a final access under {8} empties it — report.
  Stream S;
  S.start(0).start(1);
  S.lock(0, 9).lock(0, 8).write(0, 5).unlock(0, 8).unlock(0, 9);
  S.lock(1, 9).write(1, 5).unlock(1, 9);
  LockSetDetector LS1;
  S.feed(LS1);
  EXPECT_TRUE(LS1.races().empty());

  S.lock(1, 8).write(1, 5).unlock(1, 8);
  LockSetDetector LS2;
  S.feed(LS2);
  EXPECT_EQ(LS2.races().size(), 1u);
}

TEST(LockSetUnitTest, ScheduleInsensitivity) {
  // Even when the schedule serializes the critical sections, lockset
  // predicts the race from the locking discipline alone.
  Stream S;
  S.start(0).start(1);
  S.lock(0, 9).write(0, 5).unlock(0, 9);
  S.lock(1, 8).write(1, 5).unlock(1, 8);
  S.lock(0, 9).write(0, 5).unlock(0, 9);
  LockSetDetector LS;
  HBDetector HB;
  S.feed(LS);
  S.feed(HB);
  EXPECT_EQ(LS.races().size(), 1u) << "lockset predicts";
  EXPECT_GE(HB.races().size(), 1u)
      << "HB also reports here because no release->acquire edge links the "
         "sections (different locks)";
}

TEST(LockSetUnitTest, DistinctFieldsAreIndependent) {
  // Field slot 3 and element 3 of one object are distinct locations, each
  // touched by one thread only: both stay Exclusive.
  Stream S;
  S.start(0).start(1).write(0, 5, 3).writeElem(1, 5, 3);
  S.write(0, 5, 3).readElem(1, 5, 3).writeElem(1, 5, 3);
  LockSetDetector LS;
  S.feed(LS);
  EXPECT_TRUE(LS.races().empty());
}

TEST(LockSetUnitTest, DistinctObjectsAreIndependent) {
  // Object 6 first touched after a much higher id, and before one.
  for (ObjectId Other : {5u, 4000u}) {
    Stream S;
    S.start(0).start(1).write(0, Other).write(1, 6).write(0, Other);
    S.write(1, 6).write(0, Other + 10).write(1, 6);
    LockSetDetector LS;
    S.feed(LS);
    EXPECT_TRUE(LS.races().empty()) << Other;
  }
}

TEST(LockSetUnitTest, OneReportPerVariable) {
  Stream S;
  S.start(0).start(1);
  S.write(0, 5).write(1, 5).write(0, 5).write(1, 5);
  LockSetDetector LS;
  S.feed(LS);
  EXPECT_EQ(LS.races().size(), 1u) << "Eraser reports a variable once";
}
