//===- lang/AST.h - MiniJava abstract syntax --------------------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MiniJava AST.  The statement set is deliberately the trace grammar of
/// Fig. 7 in the paper (assignments, field reads/writes, allocation, lock /
/// unlock via 'synchronized', return, method invocation) plus structured
/// control flow and a 'spawn' statement used by *synthesized* multithreaded
/// tests.  Nodes carry an LLVM-style kind discriminator instead of RTTI.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_LANG_AST_H
#define NARADA_LANG_AST_H

#include "lang/SourceLoc.h"
#include "lang/Type.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace narada {

class Expr;
class Stmt;
using ExprPtr = std::unique_ptr<Expr>;
using StmtPtr = std::unique_ptr<Stmt>;

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

/// Binary operator kinds.
enum class BinaryOp {
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  And,
  Or,
};

/// Unary operator kinds.
enum class UnaryOp {
  Neg,
  Not,
};

/// Returns the source spelling of \p Op ("+", "==", ...).
const char *binaryOpSpelling(BinaryOp Op);

/// Returns the source spelling of \p Op ("-", "!").
const char *unaryOpSpelling(UnaryOp Op);

/// Base class of all expressions.
class Expr {
public:
  enum class Kind {
    IntLit,
    BoolLit,
    NullLit,
    This,
    VarRef,
    FieldAccess,
    Call,
    New,
    Unary,
    Binary,
    Rand,
  };

  virtual ~Expr() = default;

  Kind kind() const { return TheKind; }
  SourceLoc loc() const { return Loc; }

  /// The static type computed by semantic analysis; Invalid before Sema runs.
  const Type &type() const { return Ty; }
  void setType(Type T) { Ty = std::move(T); }

protected:
  Expr(Kind K, SourceLoc Loc) : TheKind(K), Loc(Loc) {}

private:
  Kind TheKind;
  SourceLoc Loc;
  Type Ty;
};

/// An integer literal.
class IntLitExpr : public Expr {
public:
  IntLitExpr(int64_t Value, SourceLoc Loc)
      : Expr(Kind::IntLit, Loc), Value(Value) {}

  int64_t value() const { return Value; }

  static bool classof(const Expr *E) { return E->kind() == Kind::IntLit; }

private:
  int64_t Value;
};

/// A 'true' or 'false' literal.
class BoolLitExpr : public Expr {
public:
  BoolLitExpr(bool Value, SourceLoc Loc)
      : Expr(Kind::BoolLit, Loc), Value(Value) {}

  bool value() const { return Value; }

  static bool classof(const Expr *E) { return E->kind() == Kind::BoolLit; }

private:
  bool Value;
};

/// The 'null' literal.
class NullLitExpr : public Expr {
public:
  explicit NullLitExpr(SourceLoc Loc) : Expr(Kind::NullLit, Loc) {}

  static bool classof(const Expr *E) { return E->kind() == Kind::NullLit; }
};

/// The 'this' receiver reference; valid only inside methods.
class ThisExpr : public Expr {
public:
  explicit ThisExpr(SourceLoc Loc) : Expr(Kind::This, Loc) {}

  static bool classof(const Expr *E) { return E->kind() == Kind::This; }
};

/// A reference to a local variable or parameter.
class VarRefExpr : public Expr {
public:
  VarRefExpr(std::string Name, SourceLoc Loc)
      : Expr(Kind::VarRef, Loc), Name(std::move(Name)) {}

  const std::string &name() const { return Name; }

  static bool classof(const Expr *E) { return E->kind() == Kind::VarRef; }

private:
  std::string Name;
};

/// A field read 'base.field' (also the left-hand side of field writes).
class FieldAccessExpr : public Expr {
public:
  FieldAccessExpr(ExprPtr Base, std::string Field, SourceLoc Loc)
      : Expr(Kind::FieldAccess, Loc), Base(std::move(Base)),
        Field(std::move(Field)) {}

  Expr *base() const { return Base.get(); }
  const std::string &field() const { return Field; }

  static bool classof(const Expr *E) { return E->kind() == Kind::FieldAccess; }

private:
  ExprPtr Base;
  std::string Field;
};

/// A method invocation 'base.m(args)'.
class CallExpr : public Expr {
public:
  CallExpr(ExprPtr Base, std::string Method, std::vector<ExprPtr> Args,
           SourceLoc Loc)
      : Expr(Kind::Call, Loc), Base(std::move(Base)),
        Method(std::move(Method)), Args(std::move(Args)) {}

  Expr *base() const { return Base.get(); }
  const std::string &method() const { return Method; }
  const std::vector<ExprPtr> &args() const { return Args; }

  static bool classof(const Expr *E) { return E->kind() == Kind::Call; }

private:
  ExprPtr Base;
  std::string Method;
  std::vector<ExprPtr> Args;
};

/// An allocation 'new C(args)'.  If class C declares a method named 'init',
/// the arguments are passed to it; otherwise no arguments are allowed.
class NewExpr : public Expr {
public:
  NewExpr(std::string ClassName, std::vector<ExprPtr> Args, SourceLoc Loc)
      : Expr(Kind::New, Loc), ClassName(std::move(ClassName)),
        Args(std::move(Args)) {}

  const std::string &className() const { return ClassName; }
  const std::vector<ExprPtr> &args() const { return Args; }

  static bool classof(const Expr *E) { return E->kind() == Kind::New; }

private:
  std::string ClassName;
  std::vector<ExprPtr> Args;
};

/// A unary operation.
class UnaryExpr : public Expr {
public:
  UnaryExpr(UnaryOp Op, ExprPtr Operand, SourceLoc Loc)
      : Expr(Kind::Unary, Loc), Op(Op), Operand(std::move(Operand)) {}

  UnaryOp op() const { return Op; }
  Expr *operand() const { return Operand.get(); }

  static bool classof(const Expr *E) { return E->kind() == Kind::Unary; }

private:
  UnaryOp Op;
  ExprPtr Operand;
};

/// A binary operation.
class BinaryExpr : public Expr {
public:
  BinaryExpr(BinaryOp Op, ExprPtr LHS, ExprPtr RHS, SourceLoc Loc)
      : Expr(Kind::Binary, Loc), Op(Op), LHS(std::move(LHS)),
        RHS(std::move(RHS)) {}

  BinaryOp op() const { return Op; }
  Expr *lhs() const { return LHS.get(); }
  Expr *rhs() const { return RHS.get(); }

  static bool classof(const Expr *E) { return E->kind() == Kind::Binary; }

private:
  BinaryOp Op;
  ExprPtr LHS;
  ExprPtr RHS;
};

/// 'rand()': an int whose value a client cannot control.  Mirrors the
/// paper's rand() used to mark non-controllable data sources (Fig. 8).
class RandExpr : public Expr {
public:
  explicit RandExpr(SourceLoc Loc) : Expr(Kind::Rand, Loc) {}

  static bool classof(const Expr *E) { return E->kind() == Kind::Rand; }
};

/// LLVM-style checked cast helpers for AST nodes (no RTTI).
template <typename To, typename From> bool isa(const From *Node) {
  return To::classof(Node);
}

template <typename To, typename From> To *cast(From *Node) {
  assert(isa<To>(Node) && "cast to incompatible AST node");
  return static_cast<To *>(Node);
}

template <typename To, typename From> const To *cast(const From *Node) {
  assert(isa<To>(Node) && "cast to incompatible AST node");
  return static_cast<const To *>(Node);
}

template <typename To, typename From> To *dyn_cast(From *Node) {
  return isa<To>(Node) ? static_cast<To *>(Node) : nullptr;
}

template <typename To, typename From> const To *dyn_cast(const From *Node) {
  return isa<To>(Node) ? static_cast<const To *>(Node) : nullptr;
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

/// Base class of all statements.
class Stmt {
public:
  enum class Kind {
    Block,
    VarDecl,
    Assign,
    ExprStmt,
    If,
    While,
    Return,
    Sync,
    Spawn,
  };

  virtual ~Stmt() = default;

  Kind kind() const { return TheKind; }
  SourceLoc loc() const { return Loc; }

protected:
  Stmt(Kind K, SourceLoc Loc) : TheKind(K), Loc(Loc) {}

private:
  Kind TheKind;
  SourceLoc Loc;
};

/// A brace-delimited statement list.
class BlockStmt : public Stmt {
public:
  BlockStmt(std::vector<StmtPtr> Stmts, SourceLoc Loc)
      : Stmt(Kind::Block, Loc), Stmts(std::move(Stmts)) {}

  const std::vector<StmtPtr> &stmts() const { return Stmts; }
  std::vector<StmtPtr> &stmts() { return Stmts; }

  static bool classof(const Stmt *S) { return S->kind() == Kind::Block; }

private:
  std::vector<StmtPtr> Stmts;
};

/// 'var x: T = init;' — a local variable declaration.
class VarDeclStmt : public Stmt {
public:
  VarDeclStmt(std::string Name, Type DeclaredType, ExprPtr Init,
              SourceLoc Loc)
      : Stmt(Kind::VarDecl, Loc), Name(std::move(Name)),
        DeclaredType(std::move(DeclaredType)), Init(std::move(Init)) {}

  const std::string &name() const { return Name; }
  const Type &declaredType() const { return DeclaredType; }
  Expr *init() const { return Init.get(); }

  static bool classof(const Stmt *S) { return S->kind() == Kind::VarDecl; }

private:
  std::string Name;
  Type DeclaredType;
  ExprPtr Init; ///< May be null: default-initialized.
};

/// 'lvalue = expr;' where lvalue is a variable or a field path.
class AssignStmt : public Stmt {
public:
  AssignStmt(ExprPtr Target, ExprPtr Value, SourceLoc Loc)
      : Stmt(Kind::Assign, Loc), Target(std::move(Target)),
        Value(std::move(Value)) {}

  /// The assignment target: a VarRefExpr or FieldAccessExpr.
  Expr *target() const { return Target.get(); }
  Expr *value() const { return Value.get(); }

  static bool classof(const Stmt *S) { return S->kind() == Kind::Assign; }

private:
  ExprPtr Target;
  ExprPtr Value;
};

/// An expression evaluated for its side effects (a call, typically).
class ExprStmt : public Stmt {
public:
  ExprStmt(ExprPtr E, SourceLoc Loc) : Stmt(Kind::ExprStmt, Loc),
                                       TheExpr(std::move(E)) {}

  Expr *expr() const { return TheExpr.get(); }

  static bool classof(const Stmt *S) { return S->kind() == Kind::ExprStmt; }

private:
  ExprPtr TheExpr;
};

/// 'if (cond) { ... } else { ... }'.
class IfStmt : public Stmt {
public:
  IfStmt(ExprPtr Cond, StmtPtr Then, StmtPtr Else, SourceLoc Loc)
      : Stmt(Kind::If, Loc), Cond(std::move(Cond)), Then(std::move(Then)),
        Else(std::move(Else)) {}

  Expr *cond() const { return Cond.get(); }
  Stmt *thenBranch() const { return Then.get(); }
  Stmt *elseBranch() const { return Else.get(); } ///< May be null.

  static bool classof(const Stmt *S) { return S->kind() == Kind::If; }

private:
  ExprPtr Cond;
  StmtPtr Then;
  StmtPtr Else;
};

/// 'while (cond) { ... }'.
class WhileStmt : public Stmt {
public:
  WhileStmt(ExprPtr Cond, StmtPtr Body, SourceLoc Loc)
      : Stmt(Kind::While, Loc), Cond(std::move(Cond)), Body(std::move(Body)) {}

  Expr *cond() const { return Cond.get(); }
  Stmt *body() const { return Body.get(); }

  static bool classof(const Stmt *S) { return S->kind() == Kind::While; }

private:
  ExprPtr Cond;
  StmtPtr Body;
};

/// 'return expr?;'.
class ReturnStmt : public Stmt {
public:
  ReturnStmt(ExprPtr Value, SourceLoc Loc)
      : Stmt(Kind::Return, Loc), Value(std::move(Value)) {}

  Expr *value() const { return Value.get(); } ///< May be null.

  static bool classof(const Stmt *S) { return S->kind() == Kind::Return; }

private:
  ExprPtr Value;
};

/// 'synchronized (expr) { ... }' — acquires the monitor of the evaluated
/// object for the duration of the block.  Method-level 'synchronized' is
/// desugared by the parser into a body-wide sync block on 'this'.
class SyncStmt : public Stmt {
public:
  SyncStmt(ExprPtr LockExpr, StmtPtr Body, SourceLoc Loc)
      : Stmt(Kind::Sync, Loc), LockExpr(std::move(LockExpr)),
        Body(std::move(Body)) {}

  Expr *lockExpr() const { return LockExpr.get(); }
  Stmt *body() const { return Body.get(); }

  static bool classof(const Stmt *S) { return S->kind() == Kind::Sync; }

private:
  ExprPtr LockExpr;
  StmtPtr Body;
};

/// 'spawn { ... }' — runs the block on a new thread.  Appears only in tests
/// (synthesized racy tests and hand-written multithreaded examples); the
/// spawning test implicitly joins all spawned threads at its end.
class SpawnStmt : public Stmt {
public:
  SpawnStmt(StmtPtr Body, SourceLoc Loc)
      : Stmt(Kind::Spawn, Loc), Body(std::move(Body)) {}

  Stmt *body() const { return Body.get(); }

  static bool classof(const Stmt *S) { return S->kind() == Kind::Spawn; }

private:
  StmtPtr Body;
};

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

/// A field declaration inside a class.
struct FieldDecl {
  std::string Name;
  Type DeclaredType;
  SourceLoc Loc;
};

/// A formal parameter.
struct ParamDecl {
  std::string Name;
  Type DeclaredType;
  SourceLoc Loc;
};

/// A method declaration.  A method named 'init' acts as the constructor.
struct MethodDecl {
  std::string Name;
  std::vector<ParamDecl> Params;
  Type ReturnType = Type::voidTy();
  bool IsSynchronized = false;
  std::unique_ptr<BlockStmt> Body;
  SourceLoc Loc;
};

/// A class declaration.
struct ClassDecl {
  std::string Name;
  std::vector<FieldDecl> Fields;
  std::vector<std::unique_ptr<MethodDecl>> Methods;
  SourceLoc Loc;

  /// Finds a method by name, or nullptr.
  const MethodDecl *findMethod(const std::string &Name) const {
    for (const auto &M : Methods)
      if (M->Name == Name)
        return M.get();
    return nullptr;
  }

  /// Finds a field by name, or nullptr.
  const FieldDecl *findField(const std::string &Name) const {
    for (const auto &F : Fields)
      if (F.Name == Name)
        return &F;
    return nullptr;
  }
};

/// A top-level test: sequential seed tests and synthesized racy tests.
struct TestDecl {
  std::string Name;
  std::unique_ptr<BlockStmt> Body;
  SourceLoc Loc;
};

/// A whole MiniJava compilation unit.
struct Program {
  std::vector<std::unique_ptr<ClassDecl>> Classes;
  std::vector<std::unique_ptr<TestDecl>> Tests;

  /// Finds a class by name, or nullptr.
  const ClassDecl *findClass(const std::string &Name) const {
    for (const auto &C : Classes)
      if (C->Name == Name)
        return C.get();
    return nullptr;
  }

  /// Finds a test by name, or nullptr.
  const TestDecl *findTest(const std::string &Name) const {
    for (const auto &T : Tests)
      if (T->Name == Name)
        return T.get();
    return nullptr;
  }
};

} // namespace narada

#endif // NARADA_LANG_AST_H
