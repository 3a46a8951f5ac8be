//===- detect/DetectWorker.cpp - Isolated detection worker service -------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "detect/DetectWorker.h"

#include "support/Bundle.h"
#include "support/StringUtils.h"

#include <utility>

using namespace narada;
using namespace narada::detectworker;

void detectworker::encodeDetectOptions(wire::RecordWriter &W,
                                       const DetectOptions &Options) {
  W.add("random_runs", static_cast<uint64_t>(Options.RandomRuns));
  W.add("confirm_attempts", static_cast<uint64_t>(Options.ConfirmAttempts));
  W.add("base_seed", Options.BaseSeed);
  W.add("max_steps", Options.MaxSteps);
  W.addBool("use_hb", Options.UseHB);
  W.addBool("use_lockset", Options.UseLockSet);
  W.add("explore_mode", explorationModeName(Options.Mode));
  W.add("explore_max_schedules",
        static_cast<uint64_t>(Options.Explore.MaxSchedules));
  W.add("witness_dir", Options.WitnessDir);
  W.add("step_limit_retries",
        static_cast<uint64_t>(Options.StepLimitRetries));
  W.addDouble("wall_budget_seconds", Options.WallBudgetSeconds);
}

Result<DetectOptions> detectworker::decodeDetectOptions(
    const wire::RecordReader &In) {
  // Every field falls back to its DetectOptions default.
  DetectOptions O;
  O.RandomRuns =
      static_cast<unsigned>(In.getU64("random_runs", O.RandomRuns));
  O.ConfirmAttempts =
      static_cast<unsigned>(In.getU64("confirm_attempts", O.ConfirmAttempts));
  O.BaseSeed = In.getU64("base_seed", O.BaseSeed);
  O.MaxSteps = In.getU64("max_steps", O.MaxSteps);
  O.UseHB = In.getBool("use_hb", O.UseHB);
  O.UseLockSet = In.getBool("use_lockset", O.UseLockSet);
  const std::string Mode =
      In.getOr("explore_mode", explorationModeName(O.Mode));
  if (!parseExplorationMode(Mode, O.Mode))
    return Error("detect setup record has an unknown exploration mode");
  O.Explore.MaxSchedules = static_cast<unsigned>(
      In.getU64("explore_max_schedules", O.Explore.MaxSchedules));
  O.WitnessDir = In.getOr("witness_dir", O.WitnessDir);
  O.StepLimitRetries = static_cast<unsigned>(
      In.getU64("step_limit_retries", O.StepLimitRetries));
  O.WallBudgetSeconds =
      In.getDouble("wall_budget_seconds", O.WallBudgetSeconds);
  return O;
}

std::string detectworker::encodeSetup(const DetectIsolateContext &Iso,
                                      const DetectOptions &Options) {
  wire::RecordWriter W;
  W.add("mode", "detect");
  wire::addBundle(W, Iso.FinalSource, /*Seeds=*/{});
  W.add("replay_path", Iso.ReplayPath);
  encodeDetectOptions(W, Options);
  return W.str();
}

std::string detectworker::encodeUnit(size_t Unit, const TestDetectJob &Job) {
  wire::RecordWriter W;
  W.add("op", "test");
  W.add("unit", static_cast<uint64_t>(Unit));
  W.add("test", Job.TestName);
  for (const auto &[First, Second] : Job.Hints) {
    W.add("hint_first", First);
    W.add("hint_second", Second);
  }
  return W.str();
}

namespace {

/// One RaceReport as a nested record (escaped into a single value of the
/// enclosing reply).
std::string encodeRaceReport(const RaceReport &R) {
  wire::RecordWriter W;
  W.add("detector", R.Detector);
  W.add("class", R.ClassName);
  W.add("field", R.Field);
  W.add("obj", static_cast<uint64_t>(R.Obj));
  W.addBool("is_elem", R.IsElem);
  W.add("elem_index", static_cast<uint64_t>(R.ElemIndex));
  W.add("first_label", R.FirstLabel);
  W.add("second_label", R.SecondLabel);
  W.add("static_verdict", R.StaticVerdict);
  W.add("first_thread", static_cast<uint64_t>(R.FirstThread));
  W.add("second_thread", static_cast<uint64_t>(R.SecondThread));
  W.addBool("first_is_write", R.FirstIsWrite);
  W.addBool("second_is_write", R.SecondIsWrite);
  return W.str();
}

RaceReport decodeRaceReport(const wire::RecordReader &In) {
  RaceReport R;
  R.Detector = In.getOr("detector", "");
  R.ClassName = In.getOr("class", "");
  R.Field = In.getOr("field", "");
  R.Obj = static_cast<ObjectId>(In.getU64("obj", NoObject));
  R.IsElem = In.getBool("is_elem");
  R.ElemIndex = static_cast<unsigned>(In.getU64("elem_index"));
  R.FirstLabel = In.getOr("first_label", "");
  R.SecondLabel = In.getOr("second_label", "");
  R.StaticVerdict = In.getOr("static_verdict", "");
  R.FirstThread = static_cast<ThreadId>(In.getU64("first_thread"));
  R.SecondThread = static_cast<ThreadId>(In.getU64("second_thread"));
  R.FirstIsWrite = In.getBool("first_is_write");
  R.SecondIsWrite = In.getBool("second_is_write");
  return R;
}

} // namespace

void detectworker::encodeDetectResult(wire::RecordWriter &Out,
                                      const TestDetectionResult &Result) {
  Out.addBool("saw_fault", Result.SawFault);
  Out.addBool("saw_deadlock", Result.SawDeadlock);
  Out.addBool("saw_step_limit", Result.SawStepLimit);
  Out.addBool("quarantined", Result.Quarantined);
  Out.add("quarantine_reason", Result.QuarantineReason);
  Out.add("schedules_run", static_cast<uint64_t>(Result.SchedulesRun));
  Out.add("schedules_pruned", Result.SchedulesPruned);
  Out.addBool("exploration_exhausted", Result.ExplorationExhausted);
  for (const std::string &Path : Result.WitnessFiles)
    Out.add("witness", Path);
  for (const RaceReport &R : Result.Detected)
    Out.add("detected", encodeRaceReport(R));
  for (const ConfirmedRace &R : Result.Races) {
    wire::RecordWriter Inner;
    Inner.add("report", encodeRaceReport(R.Report));
    Inner.addBool("reproduced", R.Reproduced);
    Inner.addBool("harmful", R.Harmful);
    Inner.add("hash_first_order", R.HashFirstOrder);
    Inner.add("hash_second_order", R.HashSecondOrder);
    Out.add("race", Inner.str());
  }
}

TestDetectionResult
detectworker::decodeDetectResult(const wire::RecordReader &In) {
  TestDetectionResult Out;
  Out.SawFault = In.getBool("saw_fault");
  Out.SawDeadlock = In.getBool("saw_deadlock");
  Out.SawStepLimit = In.getBool("saw_step_limit");
  Out.Quarantined = In.getBool("quarantined");
  Out.QuarantineReason = In.getOr("quarantine_reason", "");
  Out.SchedulesRun = static_cast<unsigned>(In.getU64("schedules_run"));
  Out.SchedulesPruned = In.getU64("schedules_pruned");
  Out.ExplorationExhausted = In.getBool("exploration_exhausted");
  Out.WitnessFiles = In.all("witness");
  for (const std::string &Entry : In.all("detected"))
    Out.Detected.push_back(decodeRaceReport(wire::RecordReader(Entry)));
  for (const std::string &Entry : In.all("race")) {
    wire::RecordReader Inner(Entry);
    ConfirmedRace R;
    R.Report = decodeRaceReport(wire::RecordReader(Inner.getOr("report", "")));
    R.Reproduced = Inner.getBool("reproduced");
    R.Harmful = Inner.getBool("harmful");
    R.HashFirstOrder = Inner.getU64("hash_first_order");
    R.HashSecondOrder = Inner.getU64("hash_second_order");
    Out.Races.push_back(std::move(R));
  }
  return Out;
}

/// The recompiled module plus decoded options.  Heap-allocated and never
/// moved; Options.ReplayTrace shares ownership of the reloaded trace.
struct Service::State {
  CompiledProgram Program;
  DetectOptions Options;
};

Service::Service() : S(std::make_unique<State>()) {}
Service::~Service() = default;

Result<std::unique_ptr<Service>>
Service::create(const wire::RecordReader &Setup) {
  auto Out = std::unique_ptr<Service>(new Service());
  State &S = *Out->S;

  Result<wire::ModuleBundle> Bundle = wire::readBundle(Setup, "detect setup");
  if (!Bundle)
    return Bundle.error();
  Result<CompiledProgram> Program = compileProgram(Bundle->Source);
  if (!Program)
    return Error("detect worker failed to recompile the final source: " +
                 Program.error().str());
  S.Program = Program.take();

  Result<DetectOptions> Options = decodeDetectOptions(Setup);
  if (!Options)
    return Options.error();
  S.Options = Options.take();
  DetectOptions &O = S.Options;

  std::string ReplayPath = Setup.getOr("replay_path", "");
  if (!ReplayPath.empty()) {
    Result<explore::ScheduleTrace> Trace =
        explore::ScheduleTrace::readFile(ReplayPath, replayStepBudget(O));
    if (!Trace)
      return Trace.error();
    O.ReplayTrace =
        std::make_shared<const explore::ScheduleTrace>(Trace.take());
  }
  return Out;
}

void Service::runUnit(const wire::RecordReader &Request,
                      wire::RecordWriter &Reply) {
  std::string Op = Request.getOr("op", "");
  uint64_t I = Request.getU64("unit");
  std::string TestName = Request.getOr("test", "");
  Reply.add("op", Op);
  Reply.add("unit", I);

  if (Op != "test") {
    Reply.add("fault", "unknown detect op '" + Op + "'");
    return;
  }
  if (!S->Program.Ast->findTest(TestName)) {
    Reply.add("fault", formatString("unit %llu names unknown test '%s'",
                                    static_cast<unsigned long long>(I),
                                    TestName.c_str()));
    return;
  }

  std::vector<std::pair<std::string, std::string>> Hints;
  {
    std::vector<std::string> Firsts = Request.all("hint_first");
    std::vector<std::string> Seconds = Request.all("hint_second");
    for (size_t K = 0; K < Firsts.size() && K < Seconds.size(); ++K)
      Hints.emplace_back(Firsts[K], Seconds[K]);
  }

  Result<TestDetectionResult> Result =
      detectRacesInTest(*S->Program.Module, TestName, S->Options, Hints);
  if (!Result) {
    Reply.add("err", Result.error().str());
    return;
  }
  encodeDetectResult(Reply, *Result);
}
