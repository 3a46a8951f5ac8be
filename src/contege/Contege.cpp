//===- contege/Contege.cpp - Random concurrent test generation -----------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "contege/Contege.h"

#include "detect/HBDetector.h"
#include "obs/Log.h"
#include "obs/Span.h"
#include "support/RNG.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <map>

using namespace narada;

namespace {

constexpr unsigned PrefixCalls = 3; ///< Random calls before the threads fork.
constexpr unsigned SuffixCalls = 2; ///< Random calls per concurrent thread.
constexpr unsigned BatchSize = 50;  ///< Tests compiled per batch.

/// Generates one random test (plus its two linearizations) as source text.
class TestGenerator {
public:
  TestGenerator(const ProgramInfo &Info, const std::string &CutClass, RNG &Rand)
      : Info(Info), CutClass(CutClass), Rand(Rand) {}

  /// Emits three tests: Name (concurrent), Name_lin1, Name_lin2.
  std::string generate(const std::string &Name);

private:
  /// Emits statements creating an instance of \p ClassName into \p Body;
  /// returns the variable name, or "null" when construction is impossible.
  std::string createInstance(const std::string &ClassName,
                             std::string &Body, unsigned Depth);

  /// A value expression of type \p Ty: a pool variable, a literal, or a
  /// newly created instance.
  std::string makeValue(const Type &Ty, std::string &Body, unsigned Depth);

  /// Emits one random call on \p Receiver (a variable of class
  /// \p ClassName); results of class type are added to the pool.
  void emitRandomCall(const std::string &Receiver,
                      const std::string &ClassName, std::string &Body,
                      bool AddResultToPool);

  std::string freshVar() { return formatString("g%u", VarCounter++); }

  const ProgramInfo &Info;
  std::string CutClass;
  RNG &Rand;
  unsigned VarCounter = 0;
  std::map<std::string, std::vector<std::string>> Pool; ///< class -> vars.
};

} // namespace

std::string TestGenerator::makeValue(const Type &Ty, std::string &Body,
                                     unsigned Depth) {
  if (Ty.isInt())
    return std::to_string(Rand.nextBelow(8));
  if (Ty.isBool())
    return Rand.chance(1, 2) ? "true" : "false";
  assert(Ty.isClass() && "parameters are int, bool or class");

  auto It = Pool.find(Ty.className());
  if (It != Pool.end() && !It->second.empty() && Rand.chance(2, 3))
    return It->second[Rand.nextBelow(It->second.size())];
  return createInstance(Ty.className(), Body, Depth);
}

std::string TestGenerator::createInstance(const std::string &ClassName,
                                          std::string &Body,
                                          unsigned Depth) {
  if (Depth > 3)
    return "null";
  const ClassInfo *Class = Info.findClass(ClassName);
  if (!Class)
    return "null";

  std::vector<std::string> Args;
  if (const MethodInfo *Ctor = Class->findMethod(ConstructorName))
    for (const Type &ParamTy : Ctor->ParamTypes)
      Args.push_back(makeValue(ParamTy, Body, Depth + 1));

  std::string Var = freshVar();
  Body += formatString("  var %s: %s = new %s", Var.c_str(),
                       ClassName.c_str(), ClassName.c_str());
  if (!Args.empty())
    Body += "(" + join(Args, ", ") + ")";
  Body += ";\n";
  Pool[ClassName].push_back(Var);
  return Var;
}

void TestGenerator::emitRandomCall(const std::string &Receiver,
                                   const std::string &ClassName,
                                   std::string &Body,
                                   bool AddResultToPool) {
  const ClassInfo *Class = Info.findClass(ClassName);
  std::vector<const MethodInfo *> Candidates;
  for (const MethodInfo &M : Class->Methods)
    if (M.Name != ConstructorName)
      Candidates.push_back(&M);
  if (Candidates.empty())
    return;
  const MethodInfo *Method = Candidates[Rand.nextBelow(Candidates.size())];

  std::vector<std::string> Args;
  for (const Type &ParamTy : Method->ParamTypes)
    Args.push_back(makeValue(ParamTy, Body, 1));

  std::string Call = formatString("%s.%s(%s)", Receiver.c_str(),
                                  Method->Name.c_str(),
                                  join(Args, ", ").c_str());
  if (Method->ReturnType.isClass() && AddResultToPool) {
    std::string Var = freshVar();
    Body += formatString("  var %s: %s = %s;\n", Var.c_str(),
                         Method->ReturnType.className().c_str(),
                         Call.c_str());
    Pool[Method->ReturnType.className()].push_back(Var);
    return;
  }
  if (Method->ReturnType.isVoid()) {
    Body += "  " + Call + ";\n";
    return;
  }
  std::string Var = freshVar();
  Body += formatString("  var %s: %s = %s;\n", Var.c_str(),
                       Method->ReturnType.str().c_str(), Call.c_str());
}

std::string TestGenerator::generate(const std::string &Name) {
  Pool.clear();
  VarCounter = 0;

  // Shared prefix: create the class under test, then random warm-up calls.
  std::string Prefix;
  std::string Cut = createInstance(CutClass, Prefix, 0);
  for (unsigned I = 0; I < PrefixCalls; ++I) {
    // Pick any pool object; bias toward the class under test.
    std::string Receiver = Cut;
    std::string ReceiverClass = CutClass;
    if (!Rand.chance(1, 2)) {
      std::vector<std::pair<std::string, std::string>> All;
      for (const auto &[ClassName, Vars] : Pool)
        for (const std::string &Var : Vars)
          All.emplace_back(ClassName, Var);
      if (!All.empty()) {
        auto &[C, V] = All[Rand.nextBelow(All.size())];
        ReceiverClass = C;
        Receiver = V;
      }
    }
    emitRandomCall(Receiver, ReceiverClass, Prefix,
                   /*AddResultToPool=*/true);
  }

  // Two random suffixes against the same instance under test.  Each suffix
  // runs in its own spawn scope: objects created while generating one
  // suffix are local to it, so the pool is snapshotted and restored.
  auto PoolAfterPrefix = Pool;
  auto MakeSuffix = [&] {
    Pool = PoolAfterPrefix;
    std::string Suffix;
    for (unsigned I = 0; I < SuffixCalls; ++I)
      emitRandomCall(Cut, CutClass, Suffix, /*AddResultToPool=*/false);
    Pool = PoolAfterPrefix;
    return Suffix;
  };
  std::string Suffix1 = MakeSuffix();
  std::string Suffix2 = MakeSuffix();

  auto Indent = [](const std::string &Body) {
    std::string Out;
    for (const std::string &Line : split(Body, '\n'))
      if (!Line.empty())
        Out += "  " + Line + "\n";
    return Out;
  };

  std::string Out;
  Out += "test " + Name + " {\n" + Prefix;
  Out += "  spawn {\n" + Indent(Suffix1) + "  }\n";
  Out += "  spawn {\n" + Indent(Suffix2) + "  }\n";
  Out += "}\n";
  Out += "test " + Name + "_lin1 {\n" + Prefix + Suffix1 + Suffix2 + "}\n";
  Out += "test " + Name + "_lin2 {\n" + Prefix + Suffix2 + Suffix1 + "}\n";
  return Out;
}

Result<ContegeResult> narada::runContege(std::string_view LibrarySource,
                                         const std::string &CutClass,
                                         const ContegeOptions &Options) {
  obs::Span ContegeSpan("contege");
  obs::MetricsRegistry &Metrics = obs::MetricsRegistry::global();
  Timer Clock;
  // Compiled once: the symbol tables the generator needs, and the module
  // every batch's tests are added to.
  Result<CompiledProgram> Base = compileProgram(LibrarySource);
  if (!Base)
    return Base.error();
  if (!Base->Info->findClass(CutClass))
    return Error(formatString("class under test '%s' not found",
                              CutClass.c_str()));

  RNG Rand(Options.Seed);
  ContegeResult Out;

  unsigned Generated = 0;
  while (Generated < Options.MaxTests) {
    unsigned Batch = std::min(BatchSize, Options.MaxTests - Generated);

    // Generate a batch and add its tests to the library's module.
    std::vector<std::string> Names;
    std::vector<std::string> Sources;
    std::string BatchSource;
    for (unsigned I = 0; I < Batch; ++I) {
      TestGenerator Gen(*Base->Info, CutClass, Rand);
      std::string Name = formatString("ctg_%u", Generated + I);
      std::string TestSource = Gen.generate(Name);
      Names.push_back(Name);
      Sources.push_back(TestSource);
      BatchSource += "\n" + TestSource;
    }
    Status Added = [&]() {
      obs::Span CompileSpan("compile_batch");
      return compileTestsInto(*Base, BatchSource);
    }();
    Metrics.counter("contege.batches_compiled").inc();
    if (!Added)
      return Error("internal: generated ConTeGe batch failed to compile: " +
                   Added.error().str());

    for (unsigned I = 0; I < Batch; ++I) {
      const std::string &Name = Names[I];
      ++Out.TestsGenerated;
      Metrics.counter("contege.tests_generated").inc();

      bool Misbehaved = false;
      bool SilentRace = false;
      for (unsigned Sched = 0;
           Sched < Options.SchedulesPerTest && !Misbehaved; ++Sched) {
        obs::Span ScheduleSpan("schedule");
        Metrics.counter("contege.schedules_explored").inc();
        // Silent data races are counted for comparison only; the real
        // ConTeGe oracle ignores them.
        HBDetector HB;
        RandomPolicy Policy(Options.Seed * 7919 + Generated + I + Sched);
        Result<TestRun> Run =
            runTest(*Base->Module, Name, Policy, /*RandSeed=*/1, &HB);
        if (!Run)
          return Run.error();
        Misbehaved = Run->Result.Faulted || Run->Result.Deadlocked;
        SilentRace = SilentRace || !HB.records().empty();
      }

      if (Misbehaved) {
        // Thread-safety violation only if every linearization is clean.
        bool LinearizationsClean = true;
        for (const char *Suffix : {"_lin1", "_lin2"}) {
          Metrics.counter("contege.linearization_runs").inc();
          RoundRobinPolicy Sequential;
          Result<TestRun> Run =
              runTest(*Base->Module, Name + Suffix, Sequential);
          if (!Run)
            return Run.error();
          if (Run->Result.Faulted || Run->Result.Deadlocked)
            LinearizationsClean = false;
        }
        if (LinearizationsClean) {
          ++Out.ViolationsFound;
          Metrics.counter("contege.violations_found").inc();
          NARADA_LOG_INFO("contege: violation in test %u (%s)",
                          Out.TestsGenerated, Name.c_str());
          Out.ViolatingTests.push_back(Sources[I]);
          if (Out.TestsToFirstViolation == 0)
            Out.TestsToFirstViolation = Out.TestsGenerated;
          if (Options.StopAtFirstViolation) {
            Out.Seconds = Clock.seconds();
            return Out;
          }
        }
      } else if (SilentRace) {
        ++Out.SilentRacyTests;
        Metrics.counter("contege.silent_racy_tests").inc();
      }
    }
    Generated += Batch;
  }
  Out.Seconds = Clock.seconds();
  return Out;
}
