//===- gen/SeedGen.cpp - Method-sequence seed test generator -------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "gen/SeedGen.h"

#include "ir/IR.h"

#include <set>
#include <sstream>

using namespace narada;
using namespace narada::gen;

namespace {

/// Upper bound on method calls per random-chain test (at least 2 are
/// emitted so a single seed can already exhibit a two-access pair).
constexpr unsigned MaxCalls = 16;
/// Chance (percent) of constructing a second focus-class receiver, which
/// diversifies the setter/factory material the context deriver mines.
constexpr unsigned SecondReceiverPercent = 50;

/// Mutable state of one test emission: the statement list plus typed value
/// pools the statements have defined so far.
class Emitter {
public:
  Emitter(const ApiModel &Model, const std::string &FocusClass,
          const MethodWeights &Weights, RNG &R)
      : Model(Model), FocusClass(FocusClass), Weights(Weights), R(R) {}

  std::string run(const std::string &TestName);
  std::string runSweep(const std::string &TestName);

private:
  /// Depth bound for recursive receiver/argument construction; deeper
  /// reference slots fall back to 'null'.
  static constexpr unsigned MaxConstructDepth = 3;

  std::string freshVar(const char *Prefix) {
    return std::string(Prefix) + std::to_string(VarCount++);
  }

  void stmt(const std::string &S) { Lines.push_back("  " + S); }

  /// Returns an expression of exactly \p Ty, emitting defining statements
  /// as needed.  Never fails: reference slots degrade to 'null'.
  std::string produceValue(const Type &Ty, unsigned Depth);
  /// Constructs a fresh instance of \p Class, pooling it; returns the
  /// variable name.
  std::string constructObject(const ClassModel &Class, unsigned Depth);
  std::string produceIntArray();

  /// Uniform pick of a definitely-non-null pooled var; nullptr if the pool
  /// has none.
  const std::string *pickDefinite(const std::vector<std::string> &Pool) {
    std::vector<const std::string *> Definite;
    for (const std::string &Var : Pool)
      if (!MaybeNull.count(Var))
        Definite.push_back(&Var);
    if (Definite.empty())
      return nullptr;
    return Definite[R.nextBelow(Definite.size())];
  }

  /// Weighted pick over [0, Total) given per-index weights.
  template <typename WeightOf>
  size_t weightedPick(size_t N, WeightOf W) {
    uint64_t Total = 0;
    for (size_t I = 0; I < N; ++I)
      Total += W(I);
    uint64_t Roll = R.nextBelow(Total);
    for (size_t I = 0; I < N; ++I) {
      uint64_t Weight = W(I);
      if (Roll < Weight)
        return I;
      Roll -= Weight;
    }
    return N - 1;
  }

  /// How emitCallTo fills reference-typed parameter slots.
  enum class ArgMode {
    Pooled, ///< Usual produceValue pooling (random chains).
    Fresh,  ///< Always construct a fresh object: inserting a pooled node
            ///< into a second linked structure corrupts the first (next-
            ///< pointer cycles diverge the run), so sweeps stay linear.
    Peer,   ///< Pooled for classes named in PeerTypes (populated backing /
            ///< peer structures), fresh for everything else.
  };

  void emitCall();
  // Recv is taken by value: argument construction pools fresh objects and
  // may reallocate the vector a pooled receiver reference points into.
  void emitCallTo(const ClassModel &Class, const MethodApi &Method,
                  std::string Recv, ArgMode Mode);
  std::string assemble(const std::string &TestName) const;

  const ApiModel &Model;
  const std::string &FocusClass;
  const MethodWeights &Weights;
  RNG &R;

  std::vector<std::string> Lines;
  unsigned VarCount = 0;
  /// Reference pools by exact class name (IntArray included); MiniJava has
  /// no subtyping, so exact-type reuse is the only well-typed reuse.
  std::map<std::string, std::vector<std::string>> Refs;
  std::vector<std::string> Ints;
  std::vector<std::string> Bools;
  /// Classes the sweep's Peer mode draws from the pool (see ArgMode::Peer).
  std::set<std::string> PeerTypes;
  /// Pooled vars bound from method returns: possibly null, so sweeps never
  /// use them as receivers or dereferenced arguments (random chains may —
  /// faulting candidates are simply discarded by validation).
  std::set<std::string> MaybeNull;
};

const char *const IntLiterals[] = {"0", "1", "2", "3", "4", "5", "7", "8"};

std::string Emitter::produceIntArray() {
  auto &Pool = Refs[IntArrayClassName];
  if (!Pool.empty() && R.chance(60, 100))
    return Pool[R.nextBelow(Pool.size())];
  const char *const Lens[] = {"1", "2", "4", "8"};
  std::string Var = freshVar("a");
  stmt("var " + Var + ": IntArray = new IntArray(" +
       Lens[R.nextBelow(std::size(Lens))] + ");");
  Pool.push_back(Var);
  return Var;
}

std::string Emitter::constructObject(const ClassModel &Class, unsigned Depth) {
  std::vector<std::string> Args;
  for (const Type &Param : Class.CtorParamTypes)
    Args.push_back(produceValue(Param, Depth + 1));
  std::string Var = freshVar("o");
  std::string Call = "var " + Var + ": " + Class.Name + " = new " + Class.Name +
                     "(";
  for (size_t I = 0; I < Args.size(); ++I) {
    if (I)
      Call += ", ";
    Call += Args[I];
  }
  Call += ");";
  stmt(Call);
  Refs[Class.Name].push_back(Var);
  return Var;
}

std::string Emitter::produceValue(const Type &Ty, unsigned Depth) {
  if (Ty.isInt()) {
    if (!Ints.empty() && R.chance(40, 100))
      return Ints[R.nextBelow(Ints.size())];
    return IntLiterals[R.nextBelow(std::size(IntLiterals))];
  }
  if (Ty.isBool()) {
    if (!Bools.empty() && R.chance(40, 100))
      return Bools[R.nextBelow(Bools.size())];
    return R.chance(1, 2) ? "true" : "false";
  }
  if (Ty.isClass()) {
    if (Ty.className() == IntArrayClassName)
      return produceIntArray();
    // Prefer reuse: aliasing two receivers over one pooled object is exactly
    // how wrapper-style races (C1) become stageable from a seed.
    auto PoolIt = Refs.find(Ty.className());
    if (PoolIt != Refs.end() && !PoolIt->second.empty() &&
        R.chance(60, 100))
      return PoolIt->second[R.nextBelow(PoolIt->second.size())];
    const ClassModel *Class = Model.find(Ty.className());
    if (Class && Depth < MaxConstructDepth)
      return constructObject(*Class, Depth);
    if (PoolIt != Refs.end() && !PoolIt->second.empty())
      return PoolIt->second[R.nextBelow(PoolIt->second.size())];
    return "null";
  }
  return "null";
}

void Emitter::emitCall() {
  // Receivers: every pooled object whose class exposes methods.  Focus-class
  // receivers weigh more so the chain exercises the class under test.
  struct Candidate {
    const ClassModel *Class;
    const std::string *Var;
  };
  std::vector<Candidate> Receivers;
  for (const auto &[ClassName, Vars] : Refs) {
    const ClassModel *Class = Model.find(ClassName);
    if (!Class || Class->Methods.empty())
      continue;
    for (const std::string &Var : Vars)
      Receivers.push_back({Class, &Var});
  }
  if (Receivers.empty())
    return;
  size_t RecvIdx = weightedPick(Receivers.size(), [&](size_t I) -> uint64_t {
    return Receivers[I].Class->Name == FocusClass ? 4 : 1;
  });
  const ClassModel &Class = *Receivers[RecvIdx].Class;
  std::string Recv = *Receivers[RecvIdx].Var;

  size_t MethodIdx =
      weightedPick(Class.Methods.size(), [&](size_t I) -> uint64_t {
        auto It = Weights.find(methodSymbol(Class.Name, Class.Methods[I].Name));
        return It == Weights.end() ? 1 : It->second;
      });
  emitCallTo(Class, Class.Methods[MethodIdx], Recv, ArgMode::Pooled);
}

void Emitter::emitCallTo(const ClassModel &Class, const MethodApi &Method,
                         std::string Recv, ArgMode Mode) {
  std::vector<std::string> Args;
  for (const Type &Param : Method.ParamTypes) {
    const ClassModel *ParamClass =
        Param.isClass() && Param.className() != IntArrayClassName
            ? Model.find(Param.className())
            : nullptr;
    bool WantFresh =
        ParamClass && ParamClass->Constructible && Mode != ArgMode::Pooled;
    const std::string *Peer =
        ParamClass && Mode == ArgMode::Peer && PeerTypes.count(ParamClass->Name)
            ? pickDefinite(Refs[ParamClass->Name])
            : nullptr;
    if (Peer) {
      Args.push_back(*Peer);
    } else if (WantFresh) {
      Args.push_back(constructObject(*ParamClass, 1));
    } else {
      Args.push_back(produceValue(Param, 1));
    }
  }

  std::string Call = Recv + "." + Method.Name + "(";
  for (size_t I = 0; I < Args.size(); ++I) {
    if (I)
      Call += ", ";
    Call += Args[I];
  }
  Call += ")";

  const Type &Ret = Method.ReturnType;
  if (Ret.isVoid()) {
    stmt(Call + ";");
    return;
  }
  if (Ret.isInt()) {
    std::string Var = freshVar("n");
    stmt("var " + Var + ": int = " + Call + ";");
    Ints.push_back(Var);
    return;
  }
  if (Ret.isBool()) {
    std::string Var = freshVar("b");
    stmt("var " + Var + ": bool = " + Call + ";");
    Bools.push_back(Var);
    return;
  }
  std::string Var = freshVar("r");
  stmt("var " + Var + ": " + Ret.className() + " = " + Call + ";");
  Refs[Ret.className()].push_back(Var);
  MaybeNull.insert(Var);
}

std::string Emitter::run(const std::string &TestName) {
  // Pick the root receiver class: the focus class when given, otherwise
  // uniformly over modeled classes that expose methods.
  const ClassModel *Focus = Model.find(FocusClass);
  if (!Focus) {
    std::vector<const ClassModel *> Eligible;
    for (const auto &[Name, Class] : Model.Classes)
      if (!Class.Methods.empty())
        Eligible.push_back(&Class);
    if (!Eligible.empty())
      Focus = Eligible[R.nextBelow(Eligible.size())];
  }

  if (Focus) {
    constructObject(*Focus, 0);
    if (R.chance(SecondReceiverPercent, 100))
      constructObject(*Focus, 0);

    unsigned NumCalls = 2 + static_cast<unsigned>(R.nextBelow(MaxCalls - 1));
    for (unsigned I = 0; I < NumCalls; ++I)
      emitCall();
  }

  return assemble(TestName);
}

std::string Emitter::runSweep(const std::string &TestName) {
  // Construct the focus class first (its peers get pooled around it), one
  // of every other constructible class, then a second focus receiver —
  // which reuses pooled constructor arguments with the usual bias, the
  // two-wrappers-one-backing-object aliasing of the paper's Fig. 2.
  const ClassModel *Focus = Model.find(FocusClass);
  if (Focus && Focus->Constructible)
    constructObject(*Focus, 0);
  for (const auto &[Name, Class] : Model.Classes)
    if (Class.Constructible && (!Focus || Name != Focus->Name))
      constructObject(Class, 0);
  if (Focus && Focus->Constructible)
    constructObject(*Focus, 0);

  // Peer types: classes the focus constructor takes — the backing / peer
  // structures its transfer-style methods move state between.
  if (Focus)
    for (const Type &Param : Focus->CtorParamTypes)
      if (Param.isClass() && Param.className() != IntArrayClassName)
        PeerTypes.insert(Param.className());

  auto SweepClass = [&](const ClassModel &Class, ArgMode Mode) {
    for (const MethodApi &Method : Class.Methods) {
      const std::string *Recv = pickDefinite(Refs[Class.Name]);
      if (!Recv)
        return;
      emitCallTo(Class, Method, *Recv, Mode);
    }
  };

  // Pass 1 exercises every method of every class with fresh reference
  // arguments — each node object is inserted into at most one structure,
  // so linked-state receivers end the pass populated but uncorrupted.
  // Pass 2 revisits the focus class drawing peer-typed arguments from the
  // pool (now populated by pass 1), so transfer methods finally see a
  // non-empty peer, while everything else stays fresh.
  for (const auto &[Name, Class] : Model.Classes)
    SweepClass(Class, ArgMode::Fresh);
  if (Focus)
    SweepClass(*Focus, ArgMode::Peer);

  return assemble(TestName);
}

std::string Emitter::assemble(const std::string &TestName) const {
  std::ostringstream OS;
  OS << "test " << TestName << " {\n";
  for (const std::string &Line : Lines)
    OS << Line << "\n";
  OS << "}\n";
  return OS.str();
}

} // namespace

std::string narada::gen::generateSeedTest(const ApiModel &Model,
                                          const std::string &FocusClass,
                                          const MethodWeights &Weights,
                                          const std::string &TestName,
                                          RNG &R) {
  Emitter E(Model, FocusClass, Weights, R);
  return E.run(TestName);
}

std::string narada::gen::generateSweepSeedTest(const ApiModel &Model,
                                               const std::string &FocusClass,
                                               const std::string &TestName,
                                               RNG &R) {
  static const MethodWeights NoWeights;
  Emitter E(Model, FocusClass, NoWeights, R);
  return E.runSweep(TestName);
}
