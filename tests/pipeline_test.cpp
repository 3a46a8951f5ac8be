//===- tests/pipeline_test.cpp - Narada facade robustness ---------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
// Error paths and behavioral contracts of the end-to-end pipeline: bad
// inputs fail with actionable messages, multi-seed suites merge, and the
// bookkeeping (covered pairs, skip accounting, naming) stays consistent.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "detect/Detection.h"
#include "lang/Parser.h"
#include "obs/Json.h"
#include "obs/RunReport.h"
#include "synth/Narada.h"

#include <gtest/gtest.h>

#include <set>

using namespace narada;

namespace {

constexpr const char *TwoClassLib =
    "class Inner { field v: int;\n"
    "  method poke() { this.v = this.v + 1; } }\n"
    "class Outer { field i: Inner;\n"
    "  method set(i: Inner) synchronized { this.i = i; }\n"
    "  method go() synchronized { this.i.poke(); } }\n"
    "test seedInner { var i: Inner = new Inner; i.poke(); }\n"
    "test seedOuter {\n"
    "  var i: Inner = new Inner;\n"
    "  var o: Outer = new Outer;\n"
    "  o.set(i);\n"
    "  o.go();\n"
    "}\n";

} // namespace

TEST(PipelineTest, UnknownSeedNameFails) {
  Result<NaradaResult> R = runNarada(TwoClassLib, {"missing"});
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().message().find("missing"), std::string::npos);
}

TEST(PipelineTest, SyntaxErrorSurfacesLocation) {
  Result<NaradaResult> R = runNarada("class A { field }", {"seed"});
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().str().find(":"), std::string::npos);
}

TEST(PipelineTest, TypeErrorSurfaces) {
  Result<NaradaResult> R =
      runNarada("class A { method m() { this.x = 1; } }\n"
                "test seed { var a: A = new A; a.m(); }\n",
                {"seed"});
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().message().find("no field"), std::string::npos);
}

TEST(PipelineTest, FaultingSeedIsRejected) {
  Result<NaradaResult> R = runNarada(
      "class A { field next: A; field v: int;\n"
      "  method boom() { this.next.v = 1; } }\n"
      "test seed { var a: A = new A; a.boom(); }\n",
      {"seed"});
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().message().find("faulted"), std::string::npos);
}

TEST(PipelineTest, LibraryNestedAtTheParserBoundRunsThroughDetection) {
  // Every shape the parser bounds, at the bound: the deepest node of each
  // method body sits at level MaxNestingDepth.  Each assignment is level
  // 1 (or sits under the blocks), so its value may be one level shorter.
  const unsigned Tall = Parser::MaxNestingDepth - 1;
  auto Repeat = [](std::string_view Piece, unsigned Times) {
    std::string Out;
    for (unsigned I = 0; I < Times; ++I)
      Out += Piece;
    return Out;
  };
  // `this.f = 1;` under B blocks reaches level B + 3 (statement, field
  // access, `this`).
  const unsigned Blocks = Parser::MaxNestingDepth - 3;
  const std::string Source =
      "class Deep { field f: int;\n"
      "  method chain() { this.f = 1" + Repeat(" + 1", Tall - 1) + "; }\n"
      "  method parens() { this.f = " + Repeat("(", Tall - 1) + "1" +
      Repeat(")", Tall - 1) + "; }\n"
      "  method unary() { this.f = " + Repeat("-", Tall - 1) + "1; }\n"
      "  method blocks() { " + Repeat("{ ", Blocks) + "this.f = 1; " +
      Repeat("} ", Blocks) + "} }\n"
      "test seed { var d: Deep = new Deep; d.chain(); d.parens(); "
      "d.unary(); d.blocks(); }\n";
  Result<NaradaResult> R = runNarada(Source, {"seed"});
  ASSERT_TRUE(R.hasValue()) << R.error().str();
  ASSERT_FALSE(R->Tests.empty());

  std::vector<TestDetectJob> Jobs;
  for (const SynthesizedTestInfo &T : R->Tests)
    Jobs.push_back({T.Name, T.CandidateLabels});
  Result<std::vector<TestDetectionResult>> Results =
      detectRacesInTests(*R->Program.Module, Jobs, DetectOptions(), 1);
  ASSERT_TRUE(Results.hasValue());
  unsigned Reproduced = 0;
  for (const TestDetectionResult &D : *Results)
    Reproduced += D.reproducedCount();
  EXPECT_GT(Reproduced, 0u);

  // One level deeper anywhere is a parse error.
  Result<NaradaResult> Deeper =
      runNarada("class Deep { field f: int;\n"
                "  method m() { this.f = 1" + Repeat(" + 1", Tall) +
                    "; } }\n"
                "test seed { var d: Deep = new Deep; d.m(); }\n",
                {"seed"});
  ASSERT_FALSE(Deeper.hasValue());
  EXPECT_NE(Deeper.error().str().find("nesting deeper than"),
            std::string::npos);
}

TEST(PipelineTest, ControlFlowSeedIsRejected) {
  Result<NaradaResult> R = runNarada(
      "class A { method m() { } }\n"
      "test seed { var i: int = 0; while (i < 2) { i = i + 1; } }\n",
      {"seed"});
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().message().find("straight-line"), std::string::npos);
}

TEST(PipelineTest, MultiSeedSuitesMerge) {
  Result<NaradaResult> R =
      runNarada(TwoClassLib, {"seedInner", "seedOuter"});
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().str());
  // Accesses from both seeds present.
  bool SawDirectPoke = false, SawViaGo = false;
  for (const AccessRecord &A : R->Analysis.Accesses) {
    if (A.Method == "poke")
      SawDirectPoke = true;
    if (A.Method == "go")
      SawViaGo = true;
  }
  EXPECT_TRUE(SawDirectPoke);
  EXPECT_TRUE(SawViaGo);
}

TEST(PipelineTest, SeedOrderDoesNotChangeResults) {
  Result<NaradaResult> A =
      runNarada(TwoClassLib, {"seedInner", "seedOuter"});
  Result<NaradaResult> B =
      runNarada(TwoClassLib, {"seedOuter", "seedInner"});
  ASSERT_TRUE(A.hasValue());
  ASSERT_TRUE(B.hasValue());
  std::set<std::string> KeysA, KeysB;
  for (const RacyPair &Pair : A->Pairs)
    KeysA.insert(Pair.key());
  for (const RacyPair &Pair : B->Pairs)
    KeysB.insert(Pair.key());
  EXPECT_EQ(KeysA, KeysB);
}

TEST(PipelineTest, TestNamesAreUniqueAndPrefixed) {
  Result<NaradaResult> R = runNarada(TwoClassLib, {"seedOuter"});
  ASSERT_TRUE(R.hasValue());
  std::set<std::string> Names;
  for (const SynthesizedTestInfo &T : R->Tests) {
    EXPECT_EQ(T.Name.rfind("narada_", 0), 0u) << T.Name;
    EXPECT_TRUE(Names.insert(T.Name).second) << "duplicate " << T.Name;
    EXPECT_TRUE(R->Program.Module->findTest(T.Name))
        << T.Name << " missing from final module";
  }
}

TEST(PipelineTest, EveryPairAccountedForOnce) {
  Result<NaradaResult> R = runNarada(TwoClassLib, {"seedOuter"});
  ASSERT_TRUE(R.hasValue());
  std::set<std::string> Covered;
  for (const SynthesizedTestInfo &T : R->Tests)
    for (const std::string &Key : T.CoveredPairKeys)
      EXPECT_TRUE(Covered.insert(Key).second)
          << "pair covered twice: " << Key;
  EXPECT_EQ(Covered.size() + R->Skipped.size(), R->Pairs.size());
}

TEST(PipelineTest, CandidateLabelsMatchCoveredPairs) {
  Result<NaradaResult> R = runNarada(TwoClassLib, {"seedOuter"});
  ASSERT_TRUE(R.hasValue());
  for (const SynthesizedTestInfo &T : R->Tests)
    EXPECT_EQ(T.CandidateLabels.size(), T.CoveredPairKeys.size());
}

TEST(PipelineTest, EmptySeedListYieldsNoPairs) {
  Result<NaradaResult> R = runNarada(TwoClassLib, {});
  ASSERT_TRUE(R.hasValue());
  EXPECT_TRUE(R->Pairs.empty());
  EXPECT_TRUE(R->Tests.empty());
}

TEST(PipelineTest, FocusClassWithNoPairsIsEmptyNotError) {
  NaradaOptions Options;
  Options.FocusClass = "Inner"; // Only accessed via Outer in this seed.
  Result<NaradaResult> R = runNarada(
      "class Inner { field v: int;\n"
      "  method get(): int { return this.v; } }\n"
      "test seed { var i: Inner = new Inner; var x: int = i.get(); }\n",
      {"seed"}, Options);
  ASSERT_TRUE(R.hasValue());
  EXPECT_TRUE(R->Pairs.empty()) << "read-only class has no racy pairs";
}

TEST(PipelineTest, SynthesizedSourceRoundTripsThroughCompiler) {
  Result<NaradaResult> R = runNarada(TwoClassLib, {"seedOuter"});
  ASSERT_TRUE(R.hasValue());
  // Re-compile each synthesized test standalone against the library text.
  for (const SynthesizedTestInfo &T : R->Tests) {
    std::string Standalone = std::string(TwoClassLib) + "\n" + T.SourceText;
    Result<CompiledProgram> P = compileProgram(Standalone);
    EXPECT_TRUE(P.hasValue())
        << (P ? "" : P.error().str()) << "\n" << T.SourceText;
  }
}

TEST(PipelineTest, AnalysisRecordsOutliveTheIntermediateModule) {
  // Regression: AccessRecord labels used to point into the normalized
  // module runNarada builds and destroys internally; reading them after
  // the pipeline returned was a use-after-free.
  Result<NaradaResult> R = runNarada(TwoClassLib, {"seedOuter"});
  ASSERT_TRUE(R.hasValue());
  for (const AccessRecord &A : R->Analysis.Accesses) {
    EXPECT_FALSE(A.staticLabel().empty());
    EXPECT_NE(A.staticLabel().find(':'), std::string::npos)
        << A.staticLabel();
  }
}

TEST(PipelineTest, RunReportCoversSynthesisAndDetection) {
  // End-to-end observability: run synthesis + detection on a corpus class
  // and check the rendered run report carries real work in its counters.
  obs::MetricsRegistry::global().reset();

  const CorpusEntry *Entry = findCorpusEntry("C9");
  ASSERT_NE(Entry, nullptr);
  NaradaOptions Options;
  Options.FocusClass = Entry->ClassName;
  Result<NaradaResult> R =
      runNarada(Entry->Source, Entry->SeedNames, Options);
  ASSERT_TRUE(R.hasValue()) << R.error().str();
  ASSERT_FALSE(R->Tests.empty());

  DetectOptions Detect;
  Detect.RandomRuns = 3;
  Detect.ConfirmAttempts = 1;
  const SynthesizedTestInfo &T = R->Tests[0];
  Result<TestDetectionResult> D = detectRacesInTest(
      *R->Program.Module, T.Name, Detect, T.CandidateLabels);
  ASSERT_TRUE(D.hasValue()) << D.error().str();

  obs::RunMeta Meta;
  Meta.Tool = "pipeline_test";
  Meta.CorpusId = Entry->Id;
  std::optional<obs::JsonValue> Report =
      obs::parseJson(obs::renderRunReport(Meta));
  ASSERT_TRUE(Report.has_value());
  auto NumberAt = [&](std::initializer_list<const char *> Path) {
    const obs::JsonValue *V = Report->at(Path);
    return V ? V->numberOr(-1) : -1.0;
  };
  EXPECT_GT(NumberAt({"counters", "synth.pairs_generated"}), 0.0);
  EXPECT_GT(NumberAt({"counters", "detect.schedules_explored"}), 0.0);
  EXPECT_GT(NumberAt({"counters", "runtime.steps"}), 0.0);
  EXPECT_GT(NumberAt({"phases", "pipeline", "seconds"}), 0.0);
}
