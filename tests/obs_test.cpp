//===- tests/obs_test.cpp - Observability layer unit tests ---------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "obs/Json.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/RunReport.h"
#include "obs/Span.h"
#include "obs/UnitExecutor.h"
#include "support/FaultInjection.h"
#include "support/Parallel.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

using namespace narada;
using namespace narada::obs;

namespace {

TEST(MetricsRegistryTest, CounterHandlesAreStableAndShared) {
  MetricsRegistry R;
  Counter &A = R.counter("x.events");
  Counter &B = R.counter("x.events");
  EXPECT_EQ(&A, &B) << "same name must resolve to the same counter";

  A.inc();
  B.inc(4);
  EXPECT_EQ(A.value(), 5u);
  EXPECT_EQ(R.snapshot().counter("x.events"), 5u);
  EXPECT_EQ(R.snapshot().counter("never.registered"), 0u);
}

TEST(MetricsRegistryTest, GaugeMovesBothWays) {
  MetricsRegistry R;
  Gauge &G = R.gauge("x.live");
  G.set(10);
  G.add(-3);
  EXPECT_EQ(G.value(), 7);
  auto S = R.snapshot();
  ASSERT_TRUE(S.Gauges.count("x.live"));
  EXPECT_EQ(S.Gauges.at("x.live"), 7);
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsHandlesValid) {
  MetricsRegistry R;
  Counter &C = R.counter("x.n");
  C.inc(42);
  R.addPhase("x.phase", 1.5);
  R.reset();
  EXPECT_EQ(C.value(), 0u);
  EXPECT_EQ(R.snapshot().phaseSeconds("x.phase"), 0.0);
  C.inc(); // The old reference still feeds the same registry slot.
  EXPECT_EQ(R.snapshot().counter("x.n"), 1u);
}

TEST(HistogramTest, BucketsByUpperBoundWithOverflow) {
  MetricsRegistry R;
  Histogram &H = R.histogram("x.h", {10, 100, 1000});
  ASSERT_EQ(H.numBuckets(), 4u);

  H.observe(5);    // <= 10
  H.observe(10);   // <= 10 (bounds are inclusive upper limits)
  H.observe(11);   // <= 100
  H.observe(1000); // <= 1000
  H.observe(5000); // overflow

  EXPECT_EQ(H.bucketCount(0), 2u);
  EXPECT_EQ(H.bucketCount(1), 1u);
  EXPECT_EQ(H.bucketCount(2), 1u);
  EXPECT_EQ(H.bucketCount(3), 1u);
  EXPECT_EQ(H.count(), 5u);
  EXPECT_EQ(H.sum(), 5u + 10 + 11 + 1000 + 5000);
  EXPECT_EQ(H.max(), 5000u);
}

TEST(HistogramTest, UnsortedBoundsAreSortedAndDeduped) {
  MetricsRegistry R;
  Histogram &H = R.histogram("x.h2", {100, 10, 100});
  ASSERT_EQ(H.bounds().size(), 2u);
  EXPECT_EQ(H.bounds()[0], 10u);
  EXPECT_EQ(H.bounds()[1], 100u);
}

TEST(MetricsRegistryTest, GaugeMaxIsAHighWaterMark) {
  MetricsRegistry R;
  Gauge &G = R.gauge("x.peak");
  G.max(5);
  G.max(3); // Lower values never pull the peak down.
  EXPECT_EQ(G.value(), 5);
  G.max(9);
  EXPECT_EQ(G.value(), 9);
  G.set(2); // set() still overrides — max() is just a CAS-raise.
  EXPECT_EQ(G.value(), 2);
}

TEST(HistogramTest, MinAndPercentileSummaries) {
  MetricsRegistry R;
  Histogram &H = R.histogram("x.h3", {10, 100, 1000});
  EXPECT_EQ(H.min(), 0u) << "no observations yet";

  for (int I = 0; I < 90; ++I)
    H.observe(7); // 90 in (0, 10].
  for (int I = 0; I < 9; ++I)
    H.observe(50); // 9 in (10, 100].
  H.observe(5000); // 1 overflow.
  EXPECT_EQ(H.min(), 7u);
  EXPECT_EQ(H.max(), 5000u);

  MetricsSnapshot S = R.snapshot();
  const MetricsSnapshot::HistogramData &D = S.Histograms.at("x.h3");
  EXPECT_EQ(D.Min, 7u);
  // Nearest-rank estimates resolve to bucket upper bounds; the overflow
  // bucket (no bound) reports the exact max.
  EXPECT_EQ(D.percentile(0.50), 10u);
  EXPECT_EQ(D.percentile(0.95), 100u);
  EXPECT_EQ(D.percentile(1.00), 5000u);

  H.reset();
  EXPECT_EQ(H.min(), 0u) << "reset clears the min";
  MetricsSnapshot Empty = R.snapshot();
  EXPECT_EQ(Empty.Histograms.at("x.h3").percentile(0.50), 0u);
}

TEST(SpanTest, PathsNestAndAccumulateIntoPhases) {
  MetricsRegistry R;
  {
    Span Outer("pipeline", nullptr, R);
    EXPECT_EQ(Outer.path(), "pipeline");
    EXPECT_EQ(Span::currentPath(), "pipeline");
    {
      Span Inner("analyze", nullptr, R);
      EXPECT_EQ(Inner.path(), "pipeline.analyze");
      { Span Leaf("trace", nullptr, R); }
      { Span Leaf("trace", nullptr, R); }
    }
    EXPECT_EQ(Span::currentPath(), "pipeline");
  }
  EXPECT_EQ(Span::currentPath(), "");

  auto S = R.snapshot();
  ASSERT_TRUE(S.Phases.count("pipeline"));
  ASSERT_TRUE(S.Phases.count("pipeline.analyze"));
  ASSERT_TRUE(S.Phases.count("pipeline.analyze.trace"));
  EXPECT_EQ(S.Phases.at("pipeline").Count, 1u);
  EXPECT_EQ(S.Phases.at("pipeline.analyze.trace").Count, 2u);
  // An enclosing span covers at least its children's wall time.
  EXPECT_GE(S.phaseSeconds("pipeline"), S.phaseSeconds("pipeline.analyze"));
}

TEST(SpanTest, AccumSecondsAddsAcrossSpans) {
  MetricsRegistry R;
  double Total = 0.0;
  { Span A("a", &Total, R); }
  double AfterFirst = Total;
  EXPECT_GE(AfterFirst, 0.0);
  { Span A("a", &Total, R); }
  EXPECT_GE(Total, AfterFirst) << "out-param accumulates, not assigns";
  EXPECT_EQ(R.snapshot().Phases.at("a").Count, 2u);
}

TEST(JsonTest, WriterEscapesAndParserRoundTrips) {
  JsonWriter W;
  W.beginObject();
  W.key("name").value("line\none \"quoted\" \\ tab\t");
  W.key("n").value(uint64_t{18446744073709551615ull});
  W.key("neg").value(int64_t{-42});
  W.key("pi").value(3.25);
  W.key("flag").value(true);
  W.key("nothing").null();
  W.key("list").beginArray().value(uint64_t{1}).value(uint64_t{2}).endArray();
  W.key("nested").beginObject().key("k").value("v").endObject();
  W.endObject();

  std::optional<JsonValue> V = parseJson(W.str());
  ASSERT_TRUE(V.has_value()) << W.str();
  ASSERT_TRUE(V->isObject());
  EXPECT_EQ(V->find("name")->StringVal, "line\none \"quoted\" \\ tab\t");
  EXPECT_EQ(V->find("neg")->numberOr(0), -42.0);
  EXPECT_EQ(V->find("pi")->numberOr(0), 3.25);
  EXPECT_TRUE(V->find("flag")->BoolVal);
  EXPECT_EQ(V->find("nothing")->K, JsonValue::Kind::Null);
  ASSERT_TRUE(V->find("list")->isArray());
  EXPECT_EQ(V->find("list")->Elements.size(), 2u);
  const JsonValue *Nested = V->at({"nested", "k"});
  ASSERT_NE(Nested, nullptr);
  EXPECT_EQ(Nested->StringVal, "v");
}

TEST(JsonTest, ParserRejectsMalformedInput) {
  EXPECT_FALSE(parseJson("{").has_value());
  EXPECT_FALSE(parseJson("{} trailing").has_value());
  EXPECT_FALSE(parseJson("{\"a\":}").has_value());
  EXPECT_FALSE(parseJson("[1,]").has_value());
  EXPECT_TRUE(parseJson(" { \"a\" : [ 1 , 2 ] } ").has_value());
}

TEST(JsonTest, ParserRefusesNestingPastItsBound) {
  auto Nested = [](unsigned Levels, char Open, char Close) {
    return std::string(Levels, Open) + std::string(Levels, Close);
  };
  EXPECT_TRUE(parseJson(Nested(MaxJsonNesting, '[', ']')).has_value());
  EXPECT_FALSE(parseJson(Nested(MaxJsonNesting + 1, '[', ']')).has_value());
  std::string Objects;
  for (unsigned I = 0; I <= MaxJsonNesting; ++I)
    Objects += "{\"a\":";
  Objects += "1" + std::string(MaxJsonNesting + 1, '}');
  EXPECT_FALSE(parseJson(Objects).has_value());
  EXPECT_TRUE(parseJson(Objects.substr(5, Objects.size() - 6)).has_value());
  // Deep enough to overflow the stack of a parser that recursed freely.
  EXPECT_FALSE(parseJson(Nested(200'000, '[', ']')).has_value());
}

TEST(RunReportTest, RendersMetaAndMetricsAndRoundTrips) {
  MetricsRegistry R;
  R.counter("synth.pairs_generated").inc(65);
  R.counter("detect.schedules_explored").inc(120);
  R.histogram("runtime.steps_per_run", {100, 1000}).observe(250);
  R.addPhase("pipeline", 1.25);
  R.addPhase("pipeline.analyze", 0.5);

  RunMeta Meta;
  Meta.Tool = "narada-cli";
  Meta.Command = "detect";
  Meta.Input = "corpus:C1";
  Meta.CorpusId = "C1";
  Meta.FocusClass = "BoundedBuffer";
  Meta.Seed = 7;
  Meta.addOption("random_runs", "6");

  std::optional<JsonValue> V = parseJson(renderRunReport(Meta, R.snapshot()));
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->find("schema")->StringVal, "narada.run_report/v1");
  EXPECT_EQ(V->find("schema_version")->numberOr(0), 3.0);
  EXPECT_EQ(V->find("tool")->StringVal, "narada-cli");
  EXPECT_EQ(V->find("corpus_id")->StringVal, "C1");
  EXPECT_EQ(V->find("seed")->numberOr(0), 7.0);
  EXPECT_EQ(V->at({"options", "random_runs"})->StringVal, "6");
  EXPECT_EQ(
      V->at({"counters", "synth.pairs_generated"})->numberOr(0), 65.0);
  EXPECT_EQ(V->at({"phases", "pipeline", "seconds"})->numberOr(0), 1.25);
  EXPECT_EQ(V->at({"phases", "pipeline", "count"})->numberOr(0), 1.0);
  const JsonValue *Hist =
      V->at({"histograms", "runtime.steps_per_run", "bucket_counts"});
  ASSERT_NE(Hist, nullptr);
  ASSERT_EQ(Hist->Elements.size(), 3u); // two bounds + overflow.
  EXPECT_EQ(Hist->Elements[1].numberOr(0), 1.0); // 250 lands in (100, 1000].
  EXPECT_EQ(
      V->at({"histograms", "runtime.steps_per_run", "min"})->numberOr(0),
      250.0);
  EXPECT_EQ(
      V->at({"histograms", "runtime.steps_per_run", "p50"})->numberOr(0),
      1000.0); // Bucket-bound estimate: the 250 sits in the (100,1000] bucket.
}

// The parallel driver increments counters and registers spans from worker
// threads while the main thread snapshots for reports: registration,
// increments, phase accumulation, and flush must all be safe concurrently
// and lose nothing.
TEST(MetricsRegistryTest, ConcurrentIncrementsAndSnapshotsLoseNothing) {
  MetricsRegistry R;
  constexpr size_t Tasks = 64;
  constexpr unsigned IncsPerTask = 250;

  auto Failures = parallelFor(Tasks, 4, [&](size_t I, unsigned) {
    // Mix of one hot shared counter, per-task lazily registered counters,
    // and phase spans — the registry's three write paths.
    Counter &Hot = R.counter("stress.hot");
    Counter &Mine = R.counter("stress.task" + std::to_string(I % 8));
    for (unsigned K = 0; K < IncsPerTask; ++K) {
      Hot.inc();
      Mine.inc();
    }
    R.addPhase("stress.phase" + std::to_string(I % 4), 0.001);
    // Concurrent flush: snapshots taken mid-run must be internally
    // consistent (no torn maps), though counts are in flux.
    (void)R.snapshot();
  });
  EXPECT_TRUE(Failures.empty());

  MetricsSnapshot Final = R.snapshot();
  EXPECT_EQ(Final.counter("stress.hot"), Tasks * IncsPerTask);
  uint64_t PerTaskSum = 0;
  for (int I = 0; I < 8; ++I)
    PerTaskSum += Final.counter("stress.task" + std::to_string(I));
  EXPECT_EQ(PerTaskSum, Tasks * IncsPerTask);
}

// In process, every --jobs value runs units through one barrier: a unit
// that throws becomes its own Internal fault with the exception's text,
// and every other unit still runs, once, under its own fault unit.
TEST(UnitExecutorTest, ThrowingUnitIsAnInternalFaultAndOthersRun) {
  const std::vector<size_t> Ids = {7, 3, 9, 0, 5, 2};
  for (unsigned Jobs : {1u, 4u}) {
    UnitExecutor Exec(Jobs, "unit", nullptr, "");
    std::vector<std::atomic<unsigned>> Ran(10);
    std::atomic<unsigned> WrongUnit{0};
    std::vector<std::optional<UnitFault>> Faults = Exec.run(
        Ids,
        [&](size_t Id) {
          if (fault::currentUnit() != std::optional<uint64_t>(Id))
            WrongUnit.fetch_add(1);
          if (Id == 9)
            throw std::runtime_error("unit 9 broke");
          Ran[Id].fetch_add(1);
        },
        nullptr, nullptr);
    ASSERT_EQ(Faults.size(), Ids.size()) << "jobs " << Jobs;
    for (size_t K = 0; K < Ids.size(); ++K) {
      if (Ids[K] == 9) {
        ASSERT_TRUE(Faults[K].has_value()) << "jobs " << Jobs;
        EXPECT_EQ(Faults[K]->K, UnitFault::Kind::Internal);
        EXPECT_EQ(Faults[K]->Message, "unit 9 broke");
        continue;
      }
      EXPECT_FALSE(Faults[K].has_value()) << "jobs " << Jobs << " unit "
                                          << Ids[K];
      EXPECT_EQ(Ran[Ids[K]].load(), 1u) << "jobs " << Jobs << " unit "
                                        << Ids[K];
    }
    EXPECT_EQ(WrongUnit.load(), 0u) << "jobs " << Jobs;
  }
}

// worker<K> spans root each unit under the submitting thread's span only
// when the round fans out (jobs > 1 and at least 2 units); otherwise the
// unit's spans nest directly under the caller's, as at --jobs 1.
TEST(UnitExecutorTest, WorkerSpansOnlyWhenARoundFansOut) {
  struct Case {
    unsigned Jobs;
    size_t Units;
    bool FansOut;
  };
  for (Case C : {Case{1, 4, false}, Case{4, 1, false}, Case{4, 4, true}}) {
    const std::string Root =
        formatString("unitexec_j%u_n%zu", C.Jobs, C.Units);
    {
      Span RootSpan(Root);
      UnitExecutor Exec(C.Jobs, "unit", nullptr, "");
      EXPECT_EQ(Exec.workers(), C.Jobs);
      auto Faults = Exec.run(
          unitIds(C.Units), [](size_t) { Span Leaf("leaf"); }, nullptr,
          nullptr);
      for (const std::optional<UnitFault> &F : Faults)
        EXPECT_FALSE(F.has_value()) << Root;
    }
    MetricsSnapshot S = MetricsRegistry::global().snapshot();
    uint64_t DirectLeaves = 0, WorkerLeaves = 0;
    for (const auto &[Path, Stat] : S.Phases) {
      if (Path == Root + ".leaf")
        DirectLeaves += Stat.Count;
      else if (startsWith(Path, Root + ".worker") && endsWith(Path, ".leaf"))
        WorkerLeaves += Stat.Count;
    }
    EXPECT_EQ(DirectLeaves, C.FansOut ? 0u : C.Units) << Root;
    EXPECT_EQ(WorkerLeaves, C.FansOut ? C.Units : 0u) << Root;
  }
}

TEST(LogTest, LevelParsingAndMacroGating) {
  LogLevel Saved = logLevel();
  setLogLevel(LogLevel::Off);
  EXPECT_FALSE(logEnabled(LogLevel::Warn));
  // Disabled macros must not evaluate their arguments.
  int Evals = 0;
  auto Count = [&Evals]() { return ++Evals; };
  NARADA_LOG_DEBUG("never %d", Count());
  EXPECT_EQ(Evals, 0);

  setLogLevel(LogLevel::Info);
  EXPECT_TRUE(logEnabled(LogLevel::Warn));
  EXPECT_TRUE(logEnabled(LogLevel::Info));
  EXPECT_FALSE(logEnabled(LogLevel::Debug));
  setLogLevel(Saved);
}

} // namespace
