//===- bench/ablation_static.cpp - Static verdicts ablation ---------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
// Measures what the static race pre-analysis costs the dynamic pipeline on
// C1–C9: the static-analysis time itself, end-to-end pipeline time with
// and without --static-verdicts, and — the soundness column — whether the
// reproduced race set is unchanged.  The verdicts annotate and filter
// nothing (see docs/STATIC.md), so the "same" column must read yes on
// every class; the time columns price the annotations.  Results are
// recorded in EXPERIMENTS.md.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace narada;
using namespace narada::bench;

namespace {

std::string seconds(double S) { return formatString("%.3f", S); }

} // namespace

int main(int Argc, char **Argv) {
  BenchReporter Reporter("ablation_static", Argc, Argv);
  Reporter.Meta.addOption("static_verdicts", "ablation");
  std::printf("Ablation: static must-lockset verdicts OFF vs ON\n"
              "(pairs generated, pipeline seconds, reproduced races "
              "unchanged)\n\n");
  const std::vector<int> Widths = {-4, 6, 9, 8, 9, 10, 5};
  printRow({"Id", "pairs", "off:time", "on:time", "static_s", "on:races",
            "same"},
           Widths);
  printRule(Widths);

  unsigned Mismatches = 0;
  double TotalOff = 0.0, TotalOn = 0.0;
  for (const CorpusEntry &Entry : corpus()) {
    DetectOptions Detect = defaultDetectOptions();

    ClassRun Off = runSynthesis(Entry);
    runDetection(Off, Detect);

    NaradaOptions WithStatic;
    WithStatic.StaticVerdicts = true;
    ClassRun On = runSynthesis(Entry, WithStatic);
    runDetection(On, Detect);

    bool Same = Off.Reproduced == On.Reproduced;
    if (!Same)
      ++Mismatches;
    TotalOff += Off.SynthesisSecondsTotal;
    TotalOn += On.SynthesisSecondsTotal;
    printRow({Entry.Id, std::to_string(Off.Narada.Pairs.size()),
              seconds(Off.SynthesisSecondsTotal),
              seconds(On.SynthesisSecondsTotal),
              seconds(On.Narada.Stages.StaticRaceSeconds),
              std::to_string(On.Reproduced.size()),
              Same ? "yes" : "NO"},
             Widths);
  }
  printRule(Widths);
  printRow({"Tot", "", seconds(TotalOff), seconds(TotalOn), "", "",
            Mismatches ? "NO" : "yes"},
           Widths);

  std::printf("\n'same' compares reproduced race keys between the two "
              "configurations; the generated pair set is the same in both.\n");
  return Mismatches ? 1 : 0;
}
