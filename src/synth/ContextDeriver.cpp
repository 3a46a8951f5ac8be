//===- synth/ContextDeriver.cpp - Narada stage 2b ------------------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "synth/ContextDeriver.h"

#include "obs/Metrics.h"
#include "support/FaultInjection.h"
#include "support/StringUtils.h"

using namespace narada;

std::string ProvidePlan::str() const {
  switch (K) {
  case Kind::SharedObject:
    return "S";
  case Kind::FromSeed:
    return formatString("seed<%s>%s", ClassName.c_str(),
                        Complete ? "" : "!");
  case Kind::ViaSetter:
    return formatString("setter[%s.%s(#%d=%s) on %s]%s", ClassName.c_str(),
                        Method.c_str(), ConstrainedParam,
                        Value->str().c_str(), Base->str().c_str(),
                        Complete ? "" : "!");
  case Kind::ViaConstructor:
    return formatString("ctor[new %s(#%d=%s)]%s", ClassName.c_str(),
                        ConstrainedParam, Value->str().c_str(),
                        Complete ? "" : "!");
  case Kind::ViaFactory:
    return formatString("factory[%s.%s(#%d=%s) on %s]%s", ClassName.c_str(),
                        Method.c_str(), ConstrainedParam,
                        Value->str().c_str(), Base->str().c_str(),
                        Complete ? "" : "!");
  }
  narada_unreachable("unknown plan kind");
}

std::string SharingPlan::str() const {
  return formatString("share %s: first(#%d via %s)=%s, second(#%d via %s)=%s%s",
                      SharedClassName.c_str(), First.Root,
                      First.EffectivePath.str().c_str(),
                      First.Plan ? First.Plan->str().c_str() : "-",
                      Second.Root, Second.EffectivePath.str().c_str(),
                      Second.Plan ? Second.Plan->str().c_str() : "-",
                      Complete ? "" : " (incomplete)");
}

std::string
ContextDeriver::typeAtPath(const std::string &ClassName,
                           const std::vector<std::string> &Fields) const {
  std::string Current = ClassName;
  for (const std::string &Field : Fields) {
    const ClassInfo *Class = Info.findClass(Current);
    if (!Class)
      return "";
    const FieldInfo *FI = Class->findField(Field);
    if (!FI || !FI->DeclaredType.isClass())
      return "";
    Current = FI->DeclaredType.className();
  }
  return Current;
}

std::string ContextDeriver::rootClassOf(const RacySide &Side) const {
  if (Side.BasePath.Root == 0)
    return Side.ClassName;
  const ClassInfo *Class = Info.findClass(Side.ClassName);
  if (!Class)
    return "";
  const MethodInfo *Method = Class->findMethod(Side.Method);
  if (!Method)
    return "";
  size_t ParamIndex = static_cast<size_t>(Side.BasePath.Root) - 1;
  if (ParamIndex >= Method->ParamTypes.size() ||
      !Method->ParamTypes[ParamIndex].isClass())
    return "";
  return Method->ParamTypes[ParamIndex].className();
}

/// Returns the declared class of parameter \p Root (1-based) of
/// \p ClassName.\p MethodName, or "" when it is not a class type.
static std::string paramClassOf(const ProgramInfo &Info,
                                const std::string &ClassName,
                                const std::string &MethodName, int Root) {
  const ClassInfo *Class = Info.findClass(ClassName);
  if (!Class)
    return "";
  const MethodInfo *Method = Class->findMethod(MethodName);
  if (!Method)
    return "";
  size_t Index = static_cast<size_t>(Root) - 1;
  if (Root < 1 || Index >= Method->ParamTypes.size() ||
      !Method->ParamTypes[Index].isClass())
    return "";
  return Method->ParamTypes[Index].className();
}

/// True when \p Prefix is a non-empty prefix of \p Fields.
static bool isNonEmptyPrefix(const std::vector<std::string> &Prefix,
                             const std::vector<std::string> &Fields) {
  if (Prefix.empty() || Prefix.size() > Fields.size())
    return false;
  for (size_t I = 0; I != Prefix.size(); ++I)
    if (Prefix[I] != Fields[I])
      return false;
  return true;
}

std::unique_ptr<ProvidePlan>
ContextDeriver::derive(const std::string &ClassName,
                       const std::vector<std::string> &Fields,
                       std::optional<uint64_t> Seed) const {
  std::optional<RNG> Rand;
  if (Seed)
    Rand.emplace(*Seed);
  return deriveImpl(ClassName, Fields, 0, Rand ? &*Rand : nullptr);
}

std::unique_ptr<ProvidePlan>
ContextDeriver::deriveImpl(const std::string &ClassName,
                           const std::vector<std::string> &Fields,
                           unsigned Depth, RNG *Rand) const {
  if (Fields.empty()) {
    auto Plan = std::make_unique<ProvidePlan>();
    Plan->K = ProvidePlan::Kind::SharedObject;
    Plan->ClassName = ClassName;
    return Plan;
  }

  std::vector<std::unique_ptr<ProvidePlan>> CompleteCandidates;
  std::unique_ptr<ProvidePlan> BestIncomplete;

  if (Depth < MaxDepth) {
    // The set / concat / deep-set rules: a (constructor or regular) method
    // of ClassName whose writeable assignment covers a prefix of the path.
    for (const WriteableAssign &W : Analysis.Setters) {
      if (W.ClassName != ClassName || W.Lhs.Root != 0)
        continue;
      if (!isNonEmptyPrefix(W.Lhs.Fields, Fields))
        continue;
      if (W.Rhs.Root < 1)
        continue; // Source must be a client-supplied argument.
      std::string ParamClass =
          paramClassOf(Info, W.ClassName, W.Method, W.Rhs.Root);
      if (ParamClass.empty())
        continue;

      // The argument must satisfy: arg.(Rhs.Fields + remainder) == S.
      std::vector<std::string> Needed = W.Rhs.Fields;
      Needed.insert(Needed.end(), Fields.begin() + W.Lhs.Fields.size(),
                    Fields.end());
      std::unique_ptr<ProvidePlan> Value =
          deriveImpl(ParamClass, Needed, Depth + 1, Rand);

      auto Plan = std::make_unique<ProvidePlan>();
      Plan->ClassName = ClassName;
      Plan->Method = W.Method;
      Plan->ConstrainedParam = W.Rhs.Root;
      Plan->Complete = Value->Complete;
      Plan->Value = std::move(Value);
      if (W.IsConstructor) {
        Plan->K = ProvidePlan::Kind::ViaConstructor;
      } else {
        Plan->K = ProvidePlan::Kind::ViaSetter;
        auto Base = std::make_unique<ProvidePlan>();
        Base->K = ProvidePlan::Kind::FromSeed;
        Base->ClassName = ClassName;
        Plan->Base = std::move(Base);
      }
      if (Plan->Complete)
        CompleteCandidates.push_back(std::move(Plan));
      else if (!BestIncomplete)
        BestIncomplete = std::move(Plan);
    }

    // Factory rule: a method returning a ClassName instance whose RetPath
    // covers a prefix of the target path and is wired to an argument.
    for (const ReturnSummary &R : Analysis.Returns) {
      if (R.RetPath.Root != ReturnRoot || R.RetPath.Fields.empty())
        continue;
      if (!isNonEmptyPrefix(R.RetPath.Fields, Fields))
        continue;
      if (R.Rhs.Root < 1)
        continue;
      const ClassInfo *FactoryClass = Info.findClass(R.ClassName);
      if (!FactoryClass)
        continue;
      const MethodInfo *Method = FactoryClass->findMethod(R.Method);
      if (!Method || !Method->ReturnType.isClass() ||
          Method->ReturnType.className() != ClassName)
        continue;
      std::string ParamClass =
          paramClassOf(Info, R.ClassName, R.Method, R.Rhs.Root);
      if (ParamClass.empty())
        continue;

      std::vector<std::string> Needed = R.Rhs.Fields;
      Needed.insert(Needed.end(), Fields.begin() + R.RetPath.Fields.size(),
                    Fields.end());
      std::unique_ptr<ProvidePlan> Value =
          deriveImpl(ParamClass, Needed, Depth + 1, Rand);

      auto Plan = std::make_unique<ProvidePlan>();
      Plan->K = ProvidePlan::Kind::ViaFactory;
      Plan->ClassName = R.ClassName; // Factory class; produced type differs.
      Plan->Method = R.Method;
      Plan->ConstrainedParam = R.Rhs.Root;
      Plan->Complete = Value->Complete;
      Plan->Value = std::move(Value);
      auto Base = std::make_unique<ProvidePlan>();
      Base->K = ProvidePlan::Kind::FromSeed;
      Base->ClassName = R.ClassName;
      Plan->Base = std::move(Base);
      if (Plan->Complete)
        CompleteCandidates.push_back(std::move(Plan));
      else if (!BestIncomplete)
        BestIncomplete = std::move(Plan);
    }
  }

  if (!CompleteCandidates.empty()) {
    // Multiple method sequences can set the same context; the paper's
    // implementation picks one at random (§4).  Without a selection seed
    // the first (setters before factories, database order) wins.
    size_t Index = Rand ? Rand->nextBelow(CompleteCandidates.size()) : 0;
    return std::move(CompleteCandidates[Index]);
  }
  if (BestIncomplete)
    return BestIncomplete;

  // No way to reach the path: an unconstrained instance, marked incomplete.
  auto Fallback = std::make_unique<ProvidePlan>();
  Fallback->K = ProvidePlan::Kind::FromSeed;
  Fallback->ClassName = ClassName;
  Fallback->Complete = false;
  return Fallback;
}

SharingPlan
ContextDeriver::deriveSharing(const RacyPair &Pair,
                              std::optional<uint64_t> Seed) const {
  std::optional<RNG> Stream;
  if (Seed)
    Stream.emplace(*Seed);
  RNG *Rand = Stream ? &*Stream : nullptr;
  // Injection point for the containment sweep: a crash inside context
  // derivation must degrade the owning pair to internal_fault, nothing
  // more (ParallelDriver's barrier catches it).
  fault::probe("synth.derive");
  obs::MetricsRegistry::global().counter("synth.derivations_attempted").inc();
  SharingPlan Plan;
  std::string FirstRoot = rootClassOf(Pair.First);
  std::string SecondRoot = rootClassOf(Pair.Second);
  Plan.First.Root = Pair.First.BasePath.Root;
  Plan.Second.Root = Pair.Second.BasePath.Root;

  // Try the full paths first, then shorten both in lockstep (prefix
  // sharing, paper §4) while the endpoint types still agree.
  std::vector<std::string> FieldsA = Pair.First.BasePath.Fields;
  std::vector<std::string> FieldsB = Pair.Second.BasePath.Fields;
  bool Shortened = false;

  while (true) {
    std::string TypeA = typeAtPath(FirstRoot, FieldsA);
    std::string TypeB = typeAtPath(SecondRoot, FieldsB);
    if (!TypeA.empty() && TypeA == TypeB) {
      std::unique_ptr<ProvidePlan> PlanA = deriveImpl(FirstRoot, FieldsA, 0, Rand);
      std::unique_ptr<ProvidePlan> PlanB = deriveImpl(SecondRoot, FieldsB, 0, Rand);
      if (PlanA->Complete && PlanB->Complete) {
        Plan.SharedClassName = TypeA;
        Plan.First.Plan = std::move(PlanA);
        Plan.First.EffectivePath =
            AccessPath(Pair.First.BasePath.Root, FieldsA);
        Plan.Second.Plan = std::move(PlanB);
        Plan.Second.EffectivePath =
            AccessPath(Pair.Second.BasePath.Root, FieldsB);
        Plan.Complete = !Shortened;
        obs::MetricsRegistry::global()
            .counter(Plan.Complete ? "synth.derivations_complete"
                                   : "synth.derivations_prefix_fallback")
            .inc();
        return Plan;
      }
      // Keep the deepest attempt as the fallback result so a test is
      // synthesized even when the context cannot be fully set (paper §4).
      if (!Plan.First.Plan) {
        Plan.SharedClassName = TypeA;
        Plan.First.Plan = std::move(PlanA);
        Plan.First.EffectivePath =
            AccessPath(Pair.First.BasePath.Root, FieldsA);
        Plan.Second.Plan = std::move(PlanB);
        Plan.Second.EffectivePath =
            AccessPath(Pair.Second.BasePath.Root, FieldsB);
        Plan.Complete = false;
      }
    }
    if (FieldsA.empty() || FieldsB.empty())
      break;
    FieldsA.pop_back();
    FieldsB.pop_back();
    Shortened = true;
  }

  if (!Plan.First.Plan) {
    // Even prefix sharing failed (type mismatch); synthesize with fresh,
    // unconstrained instances.
    Plan.SharedClassName = Pair.FieldClassName;
    Plan.First.Plan = deriveImpl(FirstRoot, {}, 0, Rand);
    Plan.First.Plan->Complete = false;
    Plan.First.Plan->K = ProvidePlan::Kind::FromSeed;
    Plan.First.Plan->ClassName = FirstRoot;
    Plan.First.EffectivePath = AccessPath(Pair.First.BasePath.Root, {});
    Plan.Second.Plan = deriveImpl(SecondRoot, {}, 0, Rand);
    Plan.Second.Plan->Complete = false;
    Plan.Second.Plan->K = ProvidePlan::Kind::FromSeed;
    Plan.Second.Plan->ClassName = SecondRoot;
    Plan.Second.EffectivePath = AccessPath(Pair.Second.BasePath.Root, {});
    Plan.Complete = false;
  }
  obs::MetricsRegistry::global().counter("synth.derivations_incomplete").inc();
  return Plan;
}
