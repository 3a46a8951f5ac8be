//===- serve/Protocol.cpp - Daemon request/response codec ----------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "detect/DetectWorker.h"
#include "support/Bundle.h"

using namespace narada;
using namespace narada::serve;

void serve::encodeSubmit(wire::RecordWriter &W, const CliArgs &Args,
                         const std::string &Source) {
  W.add("verb", std::string_view("submit"));
  W.add("command", Args.Command);
  W.add("input", Args.Input); // Cosmetic: report metadata, not a path read.
  // Source + seed/test names ride the shared bundle record (key "seed" is
  // the bundle's name list, hence "rng_seed" for the numeric seed below).
  wire::addBundle(W, Source, Args.Names);
  if (!Args.FocusClass.empty())
    W.add("class", Args.FocusClass);
  W.add("rng_seed", Args.Seed);
  W.add("tests", static_cast<uint64_t>(Args.Tests));
  W.addBool("want_report", !Args.ReportPath.empty());
  W.addBool("stats", Args.Stats);
  W.add("jobs", static_cast<uint64_t>(Args.Jobs));
  W.add("policy", Args.PolicyName);
  W.addBool("static_verdicts", Args.StaticVerdicts);
  W.addBool("static_rank", Args.StaticRank);
  W.addBool("static_only", Args.StaticOnly);
  W.addBool("gen_seeds", Args.GenSeeds);
  W.add("gen_rounds", static_cast<uint64_t>(Args.GenRounds));
  W.add("gen_budget", static_cast<uint64_t>(Args.GenBudget));
  W.addBool("isolate", Args.Isolate.Enabled);
  W.addDouble("worker_deadline", Args.Isolate.UnitDeadlineSeconds);
  W.add("worker_cpu_limit", Args.Isolate.WorkerCpuLimitSeconds);
  W.add("worker_mem_limit", Args.Isolate.WorkerMemLimitMb);
  detectworker::encodeDetectOptions(W, Args.Detect);
}

Result<SubmitRequest> serve::decodeSubmit(const wire::RecordReader &In) {
  SubmitRequest Req;
  Result<wire::ModuleBundle> Bundle = wire::readBundle(In, "submit");
  if (!Bundle)
    return Bundle.error();
  Req.Source = std::move(Bundle->Source);
  Req.Args.Names = std::move(Bundle->Seeds);

  // Every field falls back to its CliArgs default, so a record that omits
  // a key decodes as the CLI would parse a command line without the flag.
  CliArgs &Args = Req.Args;
  Args.Command = In.getOr("command", "");
  if (Args.Command.empty())
    return Error("submit record has no command");
  Args.Input = In.getOr("input", Args.Input);
  Args.FocusClass = In.getOr("class", Args.FocusClass);
  Args.Seed = In.getU64("rng_seed", Args.Seed);
  Args.Tests = static_cast<unsigned>(In.getU64("tests", Args.Tests));
  Req.WantReport = In.getBool("want_report", Req.WantReport);
  Args.Stats = In.getBool("stats", Args.Stats);
  Args.Jobs = static_cast<unsigned>(In.getU64("jobs", Args.Jobs));
  Args.PolicyName = In.getOr("policy", Args.PolicyName);
  Args.StaticVerdicts = In.getBool("static_verdicts", Args.StaticVerdicts);
  Args.StaticRank = In.getBool("static_rank", Args.StaticRank);
  Args.StaticOnly = In.getBool("static_only", Args.StaticOnly);
  Args.GenSeeds = In.getBool("gen_seeds", Args.GenSeeds);
  Args.GenRounds =
      static_cast<unsigned>(In.getU64("gen_rounds", Args.GenRounds));
  Args.GenBudget =
      static_cast<unsigned>(In.getU64("gen_budget", Args.GenBudget));
  pool::IsolateOptions &Iso = Args.Isolate;
  Iso.Enabled = In.getBool("isolate", Iso.Enabled);
  Iso.UnitDeadlineSeconds =
      In.getDouble("worker_deadline", Iso.UnitDeadlineSeconds);
  Iso.WorkerCpuLimitSeconds =
      In.getU64("worker_cpu_limit", Iso.WorkerCpuLimitSeconds);
  Iso.WorkerMemLimitMb = In.getU64("worker_mem_limit", Iso.WorkerMemLimitMb);
  Result<DetectOptions> Detect = detectworker::decodeDetectOptions(In);
  if (!Detect)
    return Detect.error();
  Args.Detect = Detect.take();
  return Req;
}

void serve::encodeResponse(wire::RecordWriter &W, const SubmitResponse &R) {
  W.add("verb", std::string_view("result"));
  W.addBool("ok", R.Ok);
  W.add("exit", static_cast<int64_t>(R.Exit));
  W.add("stdout", R.Stdout);
  W.add("stderr", R.Stderr);
  if (!R.Report.empty())
    W.add("report", R.Report);
  if (!R.ErrorMessage.empty())
    W.add("error", R.ErrorMessage);
}

SubmitResponse serve::decodeResponse(const wire::RecordReader &In) {
  SubmitResponse R;
  R.Ok = In.getBool("ok", false);
  R.Exit = static_cast<int>(In.getI64("exit", 1));
  R.Stdout = In.getOr("stdout", "");
  R.Stderr = In.getOr("stderr", "");
  R.Report = In.getOr("report", "");
  R.ErrorMessage = In.getOr("error", "");
  return R;
}
