//===- synth/SeedNormalizer.cpp - Seed test normalization ----------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "synth/SeedNormalizer.h"

#include "lang/ASTClone.h"
#include "support/StringUtils.h"

using namespace narada;

namespace {

/// Hoists non-atomic call operands into fresh temporaries.
class Normalizer {
public:
  explicit Normalizer(const ProgramInfo &Info) : Info(Info) {}

  Result<std::unique_ptr<TestDecl>> run(const TestDecl &Seed);

private:
  /// Rewrites \p E (recursively); appends hoisting statements to Out.
  /// When \p HoistSelf is true and E is a call/new, E itself is also
  /// hoisted and replaced by a variable reference.
  Result<ExprPtr> rewrite(const Expr *E, bool HoistSelf,
                          std::vector<StmtPtr> &Out);

  ExprPtr hoist(ExprPtr E, const Type &Ty, std::vector<StmtPtr> &Out) {
    std::string Name = formatString("__t%u", TempCounter++);
    SourceLoc Loc = E->loc();
    Out.push_back(
        std::make_unique<VarDeclStmt>(Name, Ty, std::move(E), Loc));
    auto Ref = std::make_unique<VarRefExpr>(Name, Loc);
    Ref->setType(Ty);
    return Ref;
  }

  const ProgramInfo &Info;
  unsigned TempCounter = 0;
};

} // namespace

Result<ExprPtr> Normalizer::rewrite(const Expr *E, bool HoistSelf,
                                    std::vector<StmtPtr> &Out) {
  switch (E->kind()) {
  case Expr::Kind::Call: {
    const auto *Call = cast<CallExpr>(E);
    Result<ExprPtr> Base = rewrite(Call->base(), /*HoistSelf=*/true, Out);
    if (!Base)
      return Base.error();
    std::vector<ExprPtr> Args;
    for (const ExprPtr &Arg : Call->args()) {
      Result<ExprPtr> NewArg = rewrite(Arg.get(), /*HoistSelf=*/true, Out);
      if (!NewArg)
        return NewArg.error();
      Args.push_back(NewArg.take());
    }
    auto NewCall = std::make_unique<CallExpr>(Base.take(), Call->method(),
                                              std::move(Args), Call->loc());
    NewCall->setType(Call->type());
    if (!HoistSelf)
      return ExprPtr(std::move(NewCall));
    if (Call->type().isVoid())
      return Error("void call used as an operand", Call->loc().str());
    Type Ty = Call->type();
    return hoist(std::move(NewCall), Ty, Out);
  }

  case Expr::Kind::New: {
    const auto *New = cast<NewExpr>(E);
    std::vector<ExprPtr> Args;
    for (const ExprPtr &Arg : New->args()) {
      Result<ExprPtr> NewArg = rewrite(Arg.get(), /*HoistSelf=*/true, Out);
      if (!NewArg)
        return NewArg.error();
      Args.push_back(NewArg.take());
    }
    auto NewNew = std::make_unique<NewExpr>(New->className(),
                                            std::move(Args), New->loc());
    NewNew->setType(New->type());
    if (!HoistSelf)
      return ExprPtr(std::move(NewNew));
    Type Ty = New->type();
    return hoist(std::move(NewNew), Ty, Out);
  }

  case Expr::Kind::FieldAccess: {
    const auto *Access = cast<FieldAccessExpr>(E);
    Result<ExprPtr> Base = rewrite(Access->base(), /*HoistSelf=*/true, Out);
    if (!Base)
      return Base.error();
    auto NewAccess = std::make_unique<FieldAccessExpr>(
        Base.take(), Access->field(), Access->loc());
    NewAccess->setType(Access->type());
    if (!HoistSelf)
      return ExprPtr(std::move(NewAccess));
    Type Ty = Access->type();
    return hoist(std::move(NewAccess), Ty, Out);
  }

  case Expr::Kind::Unary: {
    const auto *Unary = cast<UnaryExpr>(E);
    Result<ExprPtr> Operand =
        rewrite(Unary->operand(), /*HoistSelf=*/false, Out);
    if (!Operand)
      return Operand.error();
    auto NewUnary = std::make_unique<UnaryExpr>(Unary->op(), Operand.take(),
                                                Unary->loc());
    NewUnary->setType(Unary->type());
    if (!HoistSelf)
      return ExprPtr(std::move(NewUnary));
    Type Ty = Unary->type();
    return hoist(std::move(NewUnary), Ty, Out);
  }

  case Expr::Kind::Binary: {
    const auto *Binary = cast<BinaryExpr>(E);
    Result<ExprPtr> LHS = rewrite(Binary->lhs(), /*HoistSelf=*/false, Out);
    if (!LHS)
      return LHS.error();
    Result<ExprPtr> RHS = rewrite(Binary->rhs(), /*HoistSelf=*/false, Out);
    if (!RHS)
      return RHS.error();
    auto NewBinary = std::make_unique<BinaryExpr>(
        Binary->op(), LHS.take(), RHS.take(), Binary->loc());
    NewBinary->setType(Binary->type());
    if (!HoistSelf)
      return ExprPtr(std::move(NewBinary));
    Type Ty = Binary->type();
    return hoist(std::move(NewBinary), Ty, Out);
  }

  case Expr::Kind::Rand: {
    ExprPtr Clone = cloneExpr(E);
    if (!HoistSelf)
      return Clone;
    return hoist(std::move(Clone), Type::intTy(), Out);
  }

  default:
    // Atomic operands stay in place.
    return cloneExpr(E);
  }
}

Result<std::unique_ptr<TestDecl>> Normalizer::run(const TestDecl &Seed) {
  auto Out = std::make_unique<TestDecl>();
  Out->Name = Seed.Name;
  Out->Loc = Seed.Loc;

  std::vector<StmtPtr> Stmts;
  for (const StmtPtr &S : Seed.Body->stmts()) {
    switch (S->kind()) {
    case Stmt::Kind::VarDecl: {
      const auto *Decl = cast<VarDeclStmt>(S.get());
      ExprPtr Init;
      if (Decl->init()) {
        Result<ExprPtr> NewInit =
            rewrite(Decl->init(), /*HoistSelf=*/false, Stmts);
        if (!NewInit)
          return NewInit.error();
        Init = NewInit.take();
      }
      Stmts.push_back(std::make_unique<VarDeclStmt>(
          Decl->name(), Decl->declaredType(), std::move(Init), Decl->loc()));
      break;
    }
    case Stmt::Kind::ExprStmt: {
      const auto *ES = cast<ExprStmt>(S.get());
      Result<ExprPtr> NewExprResult =
          rewrite(ES->expr(), /*HoistSelf=*/false, Stmts);
      if (!NewExprResult)
        return NewExprResult.error();
      Stmts.push_back(
          std::make_unique<ExprStmt>(NewExprResult.take(), ES->loc()));
      break;
    }
    case Stmt::Kind::Assign: {
      const auto *Assign = cast<AssignStmt>(S.get());
      Result<ExprPtr> Target =
          rewrite(Assign->target(), /*HoistSelf=*/false, Stmts);
      if (!Target)
        return Target.error();
      Result<ExprPtr> Val =
          rewrite(Assign->value(), /*HoistSelf=*/false, Stmts);
      if (!Val)
        return Val.error();
      Stmts.push_back(std::make_unique<AssignStmt>(Target.take(), Val.take(),
                                                   Assign->loc()));
      break;
    }
    default:
      return Error(formatString("seed test '%s' must be straight-line: "
                                "unsupported statement",
                                Seed.Name.c_str()),
                   S->loc().str());
    }
  }
  Out->Body = std::make_unique<BlockStmt>(std::move(Stmts), Seed.Loc);
  return Out;
}

Result<std::unique_ptr<TestDecl>>
narada::normalizeSeed(const TestDecl &Seed, const ProgramInfo &Info) {
  Normalizer N(Info);
  return N.run(Seed);
}
