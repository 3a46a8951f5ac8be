//===- tests/golden_test.cpp - Synthesized-source golden files -----------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
// Pins the exact printed source of three representative synthesized tests
// (one per corpus flavor: C1's factory-wrapped queue, C5's deep-path
// composite, C9's minimal pair) against golden files in tests/golden/.
// Any change to derivation, synthesis, printing, or the parallel commit
// order shows up here as a readable diff.  Also pins the lowered IR of C7
// and C8 (the two synchronized-method corpus classes): the static lockset
// analysis interprets exactly this IR, so a lowering change that moves a
// MonitorEnter or renumbers a label shows up here before it shows up as a
// verdict change.  Finally pins `narada-cli trace` output (printTrace of
// a sequential seed run) for C3's seed — allocations, locks, client-call
// arguments, element accesses — and for a seed that faults while holding
// a lock.  And pins the seeds generation keeps for C2 and C5 at seed 1
// and the default budget, so a change to validation, the coverage commit
// or reduction that keeps different seeds shows up as a diff.
//
// To regenerate after an intentional output change:
//
//   NARADA_REGEN_GOLDEN=1 ./build/tests/narada_tests \
//       --gtest_filter='GoldenTest.*'
//
// then review the diff under tests/golden/ and commit it.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "gen/GenEngine.h"
#include "ir/IRPrinter.h"
#include "runtime/Execution.h"
#include "support/Digest.h"
#include "support/StringUtils.h"
#include "synth/Narada.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace narada;

namespace {

#ifndef NARADA_GOLDEN_DIR
#error "NARADA_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

std::string goldenPath(const std::string &Name) {
  return std::string(NARADA_GOLDEN_DIR) + "/" + Name + ".golden";
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return {};
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// Compares \p Actual against the golden file, or rewrites the file when
/// NARADA_REGEN_GOLDEN is set.
void checkGolden(const std::string &Name, const std::string &Actual) {
  const std::string Path = goldenPath(Name);
  if (std::getenv("NARADA_REGEN_GOLDEN")) {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    Out << Actual;
    GTEST_SKIP() << "regenerated " << Path;
  }
  std::string Expected = readFile(Path);
  ASSERT_FALSE(Expected.empty())
      << "missing golden file " << Path
      << " (regenerate with NARADA_REGEN_GOLDEN=1)";
  EXPECT_EQ(Expected, Actual) << Name
                              << ": synthesized source drifted from golden"
                                 " (NARADA_REGEN_GOLDEN=1 to accept)";
}

/// runNarada on \p CorpusId with its hand seeds, focused on its class.
Result<NaradaResult> synthesize(const std::string &CorpusId) {
  const CorpusEntry &E = *findCorpusEntry(CorpusId);
  NaradaOptions Options;
  Options.FocusClass = E.ClassName;
  Result<NaradaResult> R = runNarada(E.Source, E.SeedNames, Options);
  EXPECT_TRUE(R.hasValue()) << (R ? "" : R.error().str());
  return R;
}

/// First synthesized test of \p CorpusId, the class's representative pair.
SynthesizedTestInfo firstTest(const std::string &CorpusId) {
  Result<NaradaResult> R = synthesize(CorpusId);
  if (!R || R->Tests.empty())
    return {};
  return R->Tests[0];
}

} // namespace

/// Lowered-IR print of a whole corpus module.
std::string loweredIR(const std::string &CorpusId) {
  const CorpusEntry &E = *findCorpusEntry(CorpusId);
  Result<CompiledProgram> P = compileProgram(E.Source);
  EXPECT_TRUE(P.hasValue()) << (P ? "" : P.error().str());
  if (!P)
    return {};
  return printModule(*P->Module);
}

/// printTrace of a sequential run of \p Test, as `narada-cli trace` prints it.
std::string seedTrace(const std::string &Source, const std::string &Test) {
  Result<CompiledProgram> P = compileProgram(Source);
  EXPECT_TRUE(P.hasValue()) << (P ? "" : P.error().str());
  if (!P)
    return {};
  Result<TestRun> Run = runTestSequential(*P->Module, Test);
  EXPECT_TRUE(Run.hasValue()) << (Run ? "" : Run.error().str());
  return Run ? printTrace(Run->TheTrace) : std::string();
}

/// The seeds a default-budget generation keeps for \p CorpusId at seed 1.
std::string generatedSeeds(const std::string &CorpusId) {
  const CorpusEntry &E = *findCorpusEntry(CorpusId);
  gen::GenOptions Options;
  Options.FocusClass = E.ClassName;
  Options.Seed = 1;
  Result<gen::GenResult> Gen = gen::generateSeedCorpus(E.Source, Options);
  EXPECT_TRUE(Gen.hasValue()) << (Gen ? "" : Gen.error().str());
  std::string Text;
  if (Gen)
    for (const gen::GenSeed &Seed : Gen->Seeds)
      Text += (Text.empty() ? "" : "\n") + Seed.Source;
  return Text;
}

/// A seed whose second nextSize() call dereferences a null field inside a
/// synchronized method: the fault releases the monitor, then kills the
/// thread.
const char *FaultingSeed = R"(class Cell {
  field data: IntArray;
  field next: Cell;

  method init(n: int) { this.data = new IntArray(n); }

  method store(i: int, v: int) synchronized { this.data.set(i, v); }

  method link(c: Cell) { this.next = c; }

  method nextSize(): int synchronized { return this.next.data.length(); }
}

test seedFaults {
  var a: Cell = new Cell(2);
  a.store(1, 7);
  var b: Cell = new Cell(1);
  b.link(a);
  var s: int = b.nextSize();
  var t: int = a.nextSize();
  a.store(0, s + t);
}
)";

TEST(GoldenTest, C1FactoryWrappedQueue) {
  SynthesizedTestInfo T = firstTest("C1");
  ASSERT_FALSE(T.SourceText.empty());
  checkGolden("c1_first.mj", T.SourceText);
}

TEST(GoldenTest, C5DeepPathComposite) {
  SynthesizedTestInfo T = firstTest("C5");
  ASSERT_FALSE(T.SourceText.empty());
  checkGolden("c5_first.mj", T.SourceText);
}

TEST(GoldenTest, C9MinimalPair) {
  SynthesizedTestInfo T = firstTest("C9");
  ASSERT_FALSE(T.SourceText.empty());
  checkGolden("c9_first.mj", T.SourceText);
}

TEST(GoldenTest, C7LoweredIR) {
  std::string IR = loweredIR("C7");
  ASSERT_FALSE(IR.empty());
  checkGolden("c7_ir", IR);
}

TEST(GoldenTest, C8LoweredIR) {
  std::string IR = loweredIR("C8");
  ASSERT_FALSE(IR.empty());
  checkGolden("c8_ir", IR);
}

TEST(GoldenTest, C3SeedTrace) {
  std::string Text = seedTrace(findCorpusEntry("C3")->Source, "seedC3");
  ASSERT_FALSE(Text.empty());
  checkGolden("c3_seed_trace", Text);
}

TEST(GoldenTest, FaultingSeedTrace) {
  std::string Text = seedTrace(FaultingSeed, "seedFaults");
  ASSERT_NE(Text.find(" fault "), std::string::npos);
  checkGolden("fault_seed_trace", Text);
}

TEST(GoldenTest, C2GeneratedSeeds) {
  std::string Text = generatedSeeds("C2");
  ASSERT_FALSE(Text.empty());
  checkGolden("gen_c2_seed1", Text);
}

TEST(GoldenTest, C5GeneratedSeeds) {
  std::string Text = generatedSeeds("C5");
  ASSERT_FALSE(Text.empty());
  checkGolden("gen_c5_seed1", Text);
}

TEST(GoldenTest, FinalModuleDigests) {
  std::string Text;
  for (const char *Id :
       {"C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9"}) {
    Result<NaradaResult> R = synthesize(Id);
    ASSERT_TRUE(R.hasValue());
    const std::string IR = printModule(*R->Program.Module);
    Text += formatString("%s %s %zu functions %zu bytes\n", Id,
                         digest::hex(digest::of(IR)).c_str(),
                         R->Program.Module->functions().size(), IR.size());
  }
  checkGolden("final_module_digests", Text);
}
