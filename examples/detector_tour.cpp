//===- examples/detector_tour.cpp - Using the detectors directly ----------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
// The detector stack works on any multithreaded MiniJava test, not just
// synthesized ones.  This example hand-writes a racy test, runs it under a
// seeded scheduler with the FastTrack-style happens-before detector and
// the Eraser-style lockset detector attached, prints a slice of the
// execution trace, and finishes with a RaceFuzzer-style confirmation that
// classifies each race as harmful or benign.
//
// Build & run:  ./build/examples/detector_tour
//
//===----------------------------------------------------------------------===//

#include "detect/Detection.h"
#include "detect/HBDetector.h"
#include "detect/LockSetDetector.h"
#include "runtime/Execution.h"
#include "trace/Trace.h"

#include <cstdio>

using namespace narada;

static const char *TourSource = R"(
class Stats {
  field hits: int;
  field misses: int;
  field sessions: int;

  // Properly guarded.
  method recordHit() synchronized { this.hits = this.hits + 1; }

  // Unsynchronized read-modify-write: the classic lost update.
  method recordMiss() { this.misses = this.misses + 1; }

  // Racy, but both threads write the same constant: benign.
  method startSession() { this.sessions = 1; }
}

test tour {
  var s: Stats = new Stats;
  spawn {
    s.recordHit();
    s.recordMiss();
    s.startSession();
  }
  spawn {
    s.recordHit();
    s.recordMiss();
    s.startSession();
  }
}
)";

int main() {
  Result<CompiledProgram> P = compileProgram(TourSource);
  if (!P) {
    std::fprintf(stderr, "compile error: %s\n", P.error().str().c_str());
    return 1;
  }

  // One seeded execution with both passive detectors attached, plus a
  // recorder: runTest() itself keeps no trace.
  HBDetector HB;
  LockSetDetector LockSet;
  Trace Events;
  TraceRecorder Recorder(Events);
  ObserverMux Mux;
  Mux.add(&HB);
  Mux.add(&LockSet);
  Mux.add(&Recorder);
  RandomPolicy Policy(7);
  Result<TestRun> Run = runTest(*P->Module, "tour", Policy, 1, &Mux);
  if (!Run) {
    std::fprintf(stderr, "run error: %s\n", Run.error().str().c_str());
    return 1;
  }

  std::printf("== A slice of the execution trace ==\n");
  size_t Shown = 0;
  for (const TraceEvent &Event : Events) {
    if (!Event.isAccess() && Event.Kind != EventKind::Lock &&
        Event.Kind != EventKind::Unlock)
      continue;
    std::printf("%s\n", printEvent(Event).c_str());
    if (++Shown == 14)
      break;
  }

  std::printf("\n== Passive detectors (seed 7) ==\n");
  for (const RaceReport &R : HB.races())
    std::printf("  %s\n", R.str().c_str());
  for (const RaceReport &R : LockSet.races())
    std::printf("  %s\n", R.str().c_str());
  if (HB.races().empty() && LockSet.races().empty())
    std::printf("  (this schedule exposed nothing; the full protocol "
                "samples many)\n");

  std::printf("\n== Full protocol: sample schedules + confirmation + "
              "triage ==\n");
  Result<TestDetectionResult> D = detectRacesInTest(*P->Module, "tour");
  if (!D) {
    std::fprintf(stderr, "detection error: %s\n", D.error().str().c_str());
    return 1;
  }
  for (const ConfirmedRace &C : D->Races) {
    if (!C.Reproduced)
      continue;
    std::printf("  %s\n    -> %s\n", C.Report.str().c_str(),
                C.Harmful ? "HARMFUL: order changes the final state"
                          : "benign: both orders leave identical state");
  }
  std::printf("\nExpected: hits is clean (synchronized), misses is a "
              "harmful race (lost update), sessions is a benign race "
              "(same constant written twice).\n");
  return 0;
}
