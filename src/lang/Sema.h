//===- lang/Sema.h - MiniJava semantic analysis -----------------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Type checking and symbol resolution for MiniJava.  Sema annotates every
/// expression with its static type and produces a ProgramInfo symbol table
/// (class/field/method layouts) consumed by IR lowering and by the Narada
/// analyses, which reason about static types when deriving contexts.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_LANG_SEMA_H
#define NARADA_LANG_SEMA_H

#include "lang/AST.h"
#include "support/Error.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace narada {

/// Layout and signature information for one field.
struct FieldInfo {
  std::string Name;
  Type DeclaredType;
  unsigned Index = 0; ///< Slot index within the object layout.
};

/// Signature information for one method.
struct MethodInfo {
  std::string Name;
  std::vector<Type> ParamTypes;
  std::vector<std::string> ParamNames;
  Type ReturnType = Type::voidTy();
  bool IsSynchronized = false;
  bool IsBuiltin = false;     ///< Implemented natively by the VM (IntArray).
  const MethodDecl *Decl = nullptr; ///< Null for builtins.
};

/// Resolved information about one class.
struct ClassInfo {
  std::string Name;
  bool IsBuiltin = false;
  std::vector<FieldInfo> Fields;
  std::vector<MethodInfo> Methods;
  const ClassDecl *Decl = nullptr; ///< Null for builtins.

  const FieldInfo *findField(const std::string &Name) const {
    for (const FieldInfo &F : Fields)
      if (F.Name == Name)
        return &F;
    return nullptr;
  }
  const MethodInfo *findMethod(const std::string &Name) const {
    for (const MethodInfo &M : Methods)
      if (M.Name == Name)
        return &M;
    return nullptr;
  }
};

/// The name of the builtin fixed-size integer array class.
inline constexpr const char *IntArrayClassName = "IntArray";

/// The name reserved for constructors.
inline constexpr const char *ConstructorName = "init";

/// Symbol tables for a checked program.
class ProgramInfo {
public:
  /// Returns the class named \p Name, or nullptr.
  const ClassInfo *findClass(const std::string &Name) const {
    auto It = Classes.find(Name);
    return It == Classes.end() ? nullptr : &It->second;
  }

  /// All classes in declaration order (builtins first).
  const std::vector<std::string> &classNames() const { return Order; }

  /// Registers a class; name must be fresh.
  ClassInfo &addClass(ClassInfo Info);

private:
  std::map<std::string, ClassInfo> Classes;
  std::vector<std::string> Order;
};

/// Runs semantic analysis over \p Prog: resolves classes, checks every
/// method and test body, and annotates expressions with types.  On success
/// returns the symbol tables.
Result<std::shared_ptr<ProgramInfo>> analyze(Program &Prog);

/// Checks \p Tests against the classes of an already checked program,
/// whose symbol tables \p Info it only reads: every body, and that no two
/// of \p Tests share a name.  Annotates expressions like analyze().
Status analyzeTests(const std::vector<std::unique_ptr<TestDecl>> &Tests,
                    const ProgramInfo &Info);

} // namespace narada

#endif // NARADA_LANG_SEMA_H
