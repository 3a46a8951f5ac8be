//===- ir/IR.h - Register IR ------------------------------------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small register-based IR the MiniJava AST is lowered to.  The VM executes
/// one instruction per scheduler step, so the interleaving granularity of
/// synthesized multithreaded tests — and therefore the set of observable
/// races — is the granularity of these instructions.  Heap accesses
/// (LoadField/StoreField/ArrayGet/ArraySet) and monitor operations map 1:1
/// to the trace events consumed by the Narada analysis.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_IR_IR_H
#define NARADA_IR_IR_H

#include "lang/AST.h"
#include "lang/Sema.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace narada {

/// A virtual register index within a frame.
using Reg = uint32_t;

/// Sentinel meaning "no register" (e.g. void Invoke destination).
inline constexpr Reg NoReg = ~0u;

/// IR operation codes.
enum class Opcode {
  ConstInt,     ///< Dst = Imm
  ConstBool,    ///< Dst = (Imm != 0)
  ConstNull,    ///< Dst = null
  Move,         ///< Dst = A
  BinOp,        ///< Dst = A <BinOp> B
  UnOp,         ///< Dst = <UnaryOp> A
  LoadField,    ///< Dst = A.field        (heap read)
  StoreField,   ///< A.field = B          (heap write)
  NewObject,    ///< Dst = new Class      (no constructor call)
  Invoke,       ///< Dst = A.method(args) (A is the receiver)
  RandInt,      ///< Dst = non-controllable random int
  MonitorEnter, ///< lock(A)
  MonitorExit,  ///< unlock(A)
  Jump,         ///< goto Target
  Branch,       ///< if (!A) goto Target (fall through when true)
  Ret,          ///< return A (or void when A == NoReg)
  SpawnThread,  ///< start a thread running Callee(args)
};

/// Number of opcodes, for densely-indexed per-opcode tables.
inline constexpr unsigned NumOpcodes =
    static_cast<unsigned>(Opcode::SpawnThread) + 1;

/// Returns the mnemonic for \p Op.
const char *opcodeName(Opcode Op);

class IRFunction;

/// The IntArray method a builtin Invoke calls, resolved at link time so
/// the VM dispatches on it without comparing method names.
enum class ArrayBuiltin : uint8_t {
  None,   ///< Not a builtin call.
  Init,   ///< IntArray(n): sizes the array.
  Get,    ///< a.get(i): element read.
  Set,    ///< a.set(i, v): element write.
  Length, ///< a.length().
};

/// One IR instruction.  Fields are used according to the opcode; unused
/// fields hold default values.
struct Instr {
  Opcode Op;
  Reg Dst = NoReg;
  Reg A = NoReg;
  Reg B = NoReg;
  int64_t Imm = 0;
  BinaryOp BinaryOperator = BinaryOp::Add;
  UnaryOp UnaryOperator = UnaryOp::Neg;
  uint32_t Target = 0;         ///< Jump/Branch target instruction index.
  std::string ClassName;       ///< NewObject / Invoke static receiver class.
  std::string Member;          ///< Field or method name.
  unsigned FieldIndex = 0;     ///< Resolved field slot (Load/StoreField).
  std::vector<Reg> Args;       ///< Invoke/SpawnThread argument registers.
  const IRFunction *Callee = nullptr; ///< Resolved by Linker; null=builtin.
  const ClassInfo *Class = nullptr; ///< NewObject's class, set by lowering.
  ArrayBuiltin Builtin = ArrayBuiltin::None; ///< Resolved by Linker.
  SourceLoc Loc;               ///< Originating source location.
};

/// A lowered function: a method body, a test body, or a spawn closure.
class IRFunction {
public:
  /// What kind of source construct this function came from.
  enum class Kind {
    Method, ///< Class method; register 0 is 'this'.
    Test,   ///< Top-level test body; no receiver.
    Spawn,  ///< Extracted 'spawn' block; params are captured locals.
  };

  IRFunction(std::string Name, Kind K) : Name(std::move(Name)), FnKind(K) {}

  const std::string &name() const { return Name; }
  Kind kind() const { return FnKind; }

  /// For methods: the declaring class name.
  const std::string &className() const { return ClassName; }
  void setClassName(std::string Name) { ClassName = std::move(Name); }

  /// Number of parameter registers (for methods this includes 'this' at
  /// register 0).
  unsigned numParams() const { return NumParams; }
  void setNumParams(unsigned N) { NumParams = N; }

  /// Total register count (params + locals + temporaries).
  unsigned numRegs() const { return NumRegs; }
  void setNumRegs(unsigned N) { NumRegs = N; }

  bool isSynchronized() const { return Synchronized; }
  void setSynchronized(bool B) { Synchronized = B; }

  const std::vector<Instr> &instrs() const { return Body; }
  std::vector<Instr> &instrs() { return Body; }

  /// Appends \p I and returns its index.
  uint32_t append(Instr I) {
    Body.push_back(std::move(I));
    return static_cast<uint32_t>(Body.size() - 1);
  }

private:
  std::string Name;
  Kind FnKind;
  std::string ClassName;
  unsigned NumParams = 0;
  unsigned NumRegs = 0;
  bool Synchronized = false;
  std::vector<Instr> Body;
};

/// A linked module: every method of every class, every test, every spawn
/// closure, plus the symbol table they were checked against.
class IRModule {
public:
  explicit IRModule(std::shared_ptr<ProgramInfo> Info)
      : Info(std::move(Info)) {}

  const ProgramInfo &programInfo() const { return *Info; }

  /// Registers a function; returns a stable pointer.
  IRFunction *addFunction(std::unique_ptr<IRFunction> F);

  /// Finds a method body by "Class.method", or nullptr (builtins have none).
  const IRFunction *findMethod(const std::string &ClassName,
                               const std::string &MethodName) const;

  /// Finds a test body by name, or nullptr.
  const IRFunction *findTest(const std::string &TestName) const;

  /// All functions in registration order.
  const std::vector<std::unique_ptr<IRFunction>> &functions() const {
    return Funcs;
  }

private:
  std::shared_ptr<ProgramInfo> Info;
  std::vector<std::unique_ptr<IRFunction>> Funcs;
  std::map<std::string, IRFunction *> ByName;
};

/// Returns the module-level symbol name for a method ("Class.method").
std::string methodSymbol(const std::string &ClassName,
                         const std::string &MethodName);

} // namespace narada

#endif // NARADA_IR_IR_H
