//===- analysis/AccessAnalysis.cpp - Narada stage 1 ----------------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "analysis/AccessAnalysis.h"

#include "obs/Span.h"
#include "support/StringUtils.h"

#include <deque>

using namespace narada;

std::string AccessRecord::dedupKey() const {
  std::string Locks;
  for (const auto &Lock : HeldLockPaths) {
    Locks += Lock ? Lock->str() : "?";
    Locks += '|';
  }
  return formatString("%s.%s %s %s base=%s locks=%s", ClassName.c_str(),
                      Method.c_str(), staticLabel().c_str(),
                      IsWrite ? "W" : "R",
                      BasePath ? BasePath->str().c_str() : "-",
                      Locks.c_str());
}

std::string WriteableAssign::str() const {
  return formatString("%s.%s: %s <- %s%s", ClassName.c_str(), Method.c_str(),
                      Lhs.str().c_str(), Rhs.str().c_str(),
                      IsConstructor ? " (ctor)" : "");
}

std::string ReturnSummary::str() const {
  return formatString("%s.%s: %s <- %s", ClassName.c_str(), Method.c_str(),
                      RetPath.str().c_str(), Rhs.str().c_str());
}

void AnalysisResult::merge(const AnalysisResult &Other) {
  std::set<std::string> AccessKeys;
  for (const AccessRecord &R : Accesses)
    AccessKeys.insert(R.dedupKey());
  for (const AccessRecord &R : Other.Accesses)
    if (AccessKeys.insert(R.dedupKey()).second)
      Accesses.push_back(R);

  std::set<std::string> SetterKeys;
  for (const WriteableAssign &W : Setters)
    SetterKeys.insert(W.str());
  for (const WriteableAssign &W : Other.Setters)
    if (SetterKeys.insert(W.str()).second)
      Setters.push_back(W);

  std::set<std::string> ReturnKeys;
  for (const ReturnSummary &R : Returns)
    ReturnKeys.insert(R.str());
  for (const ReturnSummary &R : Other.Returns)
    if (ReturnKeys.insert(R.str()).second)
      Returns.push_back(R);
}

namespace {

/// Maximum depth of the Fig. 9 return-rule walk over the returned object.
constexpr unsigned ReturnWalkDepth = 3;

/// Walks one trace, maintaining the heap mirror and per-invocation state.
class TraceAnalyzer {
public:
  TraceAnalyzer(const Trace &T, const ProgramInfo &Info) : T(T), Info(Info) {}

  AnalysisResult run();

private:
  /// State of the client invocation currently being analyzed.
  struct InvocationContext {
    std::string ClassName;
    std::string Method;
    bool IsConstructor = false;
    /// Entry snapshot: every object the client could see at entry, with the
    /// shortest parameter-rooted path to it (the R bootstrap + src).
    std::map<ObjectId, AccessPath> Snapshot;
    /// Receiver and argument objects, for the return-rule walk.
    std::vector<std::pair<int, ObjectId>> Roots;
    /// Monitors currently held (object -> nesting depth), acquisition order.
    std::map<ObjectId, unsigned> LockDepth;
    std::vector<ObjectId> LockOrder;
  };

  void beginInvocation(const TraceEvent &Event);
  void endInvocation(const TraceEvent &Event);
  void handleAccess(const TraceEvent &Event);
  void handleLock(const TraceEvent &Event, bool Acquire);
  void recordReturnSummaries(const TraceEvent &Event);

  std::optional<AccessPath> pathOf(ObjectId Id) const {
    if (!Current)
      return std::nullopt;
    auto It = Current->Snapshot.find(Id);
    if (It == Current->Snapshot.end())
      return std::nullopt;
    return It->second;
  }

  void addAccess(AccessRecord Record) {
    if (DedupKeys.insert(Record.dedupKey()).second)
      Result.Accesses.push_back(std::move(Record));
  }

  const Trace &T;
  const ProgramInfo &Info;
  HeapMirror Mirror;
  std::optional<InvocationContext> Current;
  AnalysisResult Result;
  std::set<std::string> DedupKeys;
  std::set<std::string> SetterKeys;
  std::set<std::string> ReturnKeys;
};

} // namespace

void TraceAnalyzer::beginInvocation(const TraceEvent &Event) {
  InvocationContext Ctx;
  Ctx.ClassName = *Event.ClassName;
  Ctx.Method = *Event.Member;
  Ctx.IsConstructor = Ctx.Method == ConstructorName;

  std::span<const Value> Args = Event.args();
  for (size_t I = 0, E = Args.size(); I != E; ++I)
    if (Args[I].isRef())
      Ctx.Roots.emplace_back(static_cast<int>(I), Args[I].asRef());
  Ctx.Snapshot = Mirror.reachableFrom(Ctx.Roots);
  Current = std::move(Ctx);
}

void TraceAnalyzer::handleLock(const TraceEvent &Event, bool Acquire) {
  if (!Current)
    return;
  if (Acquire) {
    if (Current->LockDepth[Event.Obj]++ == 0)
      Current->LockOrder.push_back(Event.Obj);
    return;
  }
  auto It = Current->LockDepth.find(Event.Obj);
  if (It == Current->LockDepth.end())
    return;
  if (--It->second == 0) {
    Current->LockDepth.erase(It);
    std::erase(Current->LockOrder, Event.Obj);
  }
}

void TraceAnalyzer::handleAccess(const TraceEvent &Event) {
  if (!Current)
    return; // Accesses by client code itself are not library accesses.

  AccessRecord Record;
  Record.ClassName = Current->ClassName;
  Record.Method = Current->Method;
  Record.Label = Event.staticLabel();
  Record.IsWrite = Event.isWrite();
  Record.IsElem = Event.isElemAccess();
  Record.Field = Record.IsElem ? "[]" : *Event.Member;
  Record.FieldClassName = *Event.ClassName;
  Record.BasePath = pathOf(Event.Obj);
  Record.InConstructor =
      Event.Func && endsWith(Event.Func->name(),
                             std::string(".") + ConstructorName);


  bool BaseLocked = Current->LockDepth.count(Event.Obj) != 0;
  Record.Unprotected = Record.BasePath.has_value() && !BaseLocked;

  for (ObjectId Lock : Current->LockOrder)
    Record.HeldLockPaths.push_back(pathOf(Lock));

  // Writeable: a field write whose target and value are both controllable
  // (the Fig. 7 write rule's H(x,l,C,_) && H(y,l,C,_) condition).
  if (Record.IsWrite && !Record.IsElem && Record.BasePath &&
      Event.Val.isRef()) {
    std::optional<AccessPath> ValuePath = pathOf(Event.Val.asRef());
    if (ValuePath) {
      Record.Writeable = true;
      // Only receiver- or argument-rooted assignments become setters a
      // client can use.
      WriteableAssign Setter;
      Setter.ClassName = Current->ClassName;
      Setter.Method = Current->Method;
      Setter.Lhs = Record.BasePath->appended(*Event.Member);
      Setter.Rhs = *ValuePath;
      Setter.IsConstructor = Current->IsConstructor;
      if (SetterKeys.insert(Setter.str()).second)
        Result.Setters.push_back(std::move(Setter));
    }
  }

  addAccess(std::move(Record));
}

void TraceAnalyzer::recordReturnSummaries(const TraceEvent &Event) {
  if (!Current || !Event.Val.isRef())
    return;
  ObjectId Ret = Event.Val.asRef();

  auto AddSummary = [&](AccessPath RetPath, AccessPath Rhs) {
    ReturnSummary Summary;
    Summary.ClassName = Current->ClassName;
    Summary.Method = Current->Method;
    Summary.RetPath = std::move(RetPath);
    Summary.Rhs = std::move(Rhs);
    if (ReturnKeys.insert(Summary.str()).second)
      Result.Returns.push_back(std::move(Summary));
  };

  // A getter: the returned object itself is client-visible state.
  if (std::optional<AccessPath> Direct = pathOf(Ret))
    AddSummary(AccessPath(ReturnRoot, {}), *Direct);

  // The Fig. 9 return rule: walk the returned object's fields (N(x)) and
  // record every slot holding a client-controllable object.
  struct WorkItem {
    ObjectId Obj;
    AccessPath Path;
  };
  std::deque<WorkItem> Queue;
  std::set<ObjectId> Visited;
  Queue.push_back({Ret, AccessPath(ReturnRoot, {})});
  Visited.insert(Ret);

  while (!Queue.empty()) {
    WorkItem Item = Queue.front();
    Queue.pop_front();
    if (Item.Path.depth() >= ReturnWalkDepth || !Mirror.knows(Item.Obj))
      continue;
    for (const auto &[Field, Val] : Mirror.object(Item.Obj).Fields) {
      if (!Val.isRef())
        continue;
      ObjectId Child = Val.asRef();
      AccessPath ChildPath = Item.Path.appended(Field);
      if (std::optional<AccessPath> Src = pathOf(Child))
        AddSummary(ChildPath, *Src);
      if (Visited.insert(Child).second)
        Queue.push_back({Child, ChildPath});
    }
  }
}

void TraceAnalyzer::endInvocation(const TraceEvent &Event) {
  recordReturnSummaries(Event);
  Current.reset();
}

AnalysisResult TraceAnalyzer::run() {
  for (const TraceEvent &Event : T) {
    switch (Event.Kind) {
    case EventKind::ClientCall:
      beginInvocation(Event);
      break;
    case EventKind::ClientCallEnd:
      endInvocation(Event);
      break;
    case EventKind::Lock:
      handleLock(Event, /*Acquire=*/true);
      break;
    case EventKind::Unlock:
      handleLock(Event, /*Acquire=*/false);
      break;
    case EventKind::ReadField:
    case EventKind::WriteField:
    case EventKind::ReadElem:
    case EventKind::WriteElem:
      handleAccess(Event);
      break;
    default:
      break;
    }
    // Mirror updates happen after the access is analyzed so that snapshots
    // and writeable checks see the pre-write heap, then the write lands.
    Mirror.apply(Event);
  }
  return Result;
}

AnalysisResult narada::analyzeTrace(const Trace &T, const ProgramInfo &Info) {
  // Nested under "pipeline.analyze" when driven by runNarada; benches and
  // tests calling analyzeTrace directly get a top-level "trace" phase.
  obs::Span TraceSpan("trace");
  TraceAnalyzer Analyzer(T, Info);
  AnalysisResult Result = Analyzer.run();

  obs::MetricsRegistry &Metrics = obs::MetricsRegistry::global();
  Metrics.counter("analysis.traces_analyzed").inc();
  Metrics.counter("analysis.events_visited").inc(T.size());
  Metrics.counter("analysis.accesses_recorded").inc(Result.Accesses.size());
  Metrics.counter("analysis.setters_recorded").inc(Result.Setters.size());
  Metrics.counter("analysis.returns_recorded").inc(Result.Returns.size());
  return Result;
}
