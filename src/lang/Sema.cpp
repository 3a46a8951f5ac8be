//===- lang/Sema.cpp - MiniJava semantic analysis --------------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "lang/Sema.h"

#include "support/StringUtils.h"

#include <set>
#include <string_view>

using namespace narada;

ClassInfo &ProgramInfo::addClass(ClassInfo Info) {
  assert(!Classes.count(Info.Name) && "duplicate class registration");
  Order.push_back(Info.Name);
  return Classes.emplace(Info.Name, std::move(Info)).first->second;
}

namespace {

Error errorAt(SourceLoc Loc, const std::string &Message) {
  return Error(Message, Loc.str());
}

/// The locals in scope while checking one body: a flat stack of
/// declarations plus where each open block's declarations start.  Lookups
/// scan from the innermost declaration outwards, so an inner block's local
/// shadows an outer one.  Names and types point into the checked AST.
class Scopes {
public:
  void open() { Starts.push_back(Locals.size()); }
  void close() {
    Locals.resize(Starts.back());
    Starts.pop_back();
  }

  /// Declares \p Name in the innermost block; false if that block already
  /// declares it.
  bool declare(std::string_view Name, const Type &Ty) {
    for (size_t I = Starts.back(); I < Locals.size(); ++I)
      if (Locals[I].Name == Name)
        return false;
    Locals.push_back({Name, &Ty});
    return true;
  }

  const Type *lookup(std::string_view Name) const {
    for (auto It = Locals.rbegin(), E = Locals.rend(); It != E; ++It)
      if (It->Name == Name)
        return It->Ty;
    return nullptr;
  }

private:
  struct Local {
    std::string_view Name;
    const Type *Ty;
  };
  std::vector<Local> Locals;
  std::vector<size_t> Starts;
};

/// Registers the builtin IntArray class.
void registerBuiltins(ProgramInfo &Info) {
  ClassInfo Arr;
  Arr.Name = IntArrayClassName;
  Arr.IsBuiltin = true;

  MethodInfo Ctor;
  Ctor.Name = ConstructorName;
  Ctor.ParamTypes = {Type::intTy()};
  Ctor.ParamNames = {"size"};
  Ctor.ReturnType = Type::voidTy();
  Ctor.IsBuiltin = true;
  Arr.Methods.push_back(Ctor);

  MethodInfo Get;
  Get.Name = "get";
  Get.ParamTypes = {Type::intTy()};
  Get.ParamNames = {"index"};
  Get.ReturnType = Type::intTy();
  Get.IsBuiltin = true;
  Arr.Methods.push_back(Get);

  MethodInfo Set;
  Set.Name = "set";
  Set.ParamTypes = {Type::intTy(), Type::intTy()};
  Set.ParamNames = {"index", "value"};
  Set.ReturnType = Type::voidTy();
  Set.IsBuiltin = true;
  Arr.Methods.push_back(Set);

  MethodInfo Length;
  Length.Name = "length";
  Length.ReturnType = Type::intTy();
  Length.IsBuiltin = true;
  Arr.Methods.push_back(Length);

  Info.addClass(std::move(Arr));
}

/// Registers the field layout and method signatures of \p Class.
Status registerClass(ProgramInfo &Info, const ClassDecl &Class) {
  if (Info.findClass(Class.Name))
    return errorAt(Class.Loc,
                   formatString("duplicate class '%s'", Class.Name.c_str()));

  ClassInfo CI;
  CI.Name = Class.Name;
  CI.Decl = &Class;

  for (const FieldDecl &F : Class.Fields) {
    if (CI.findField(F.Name))
      return errorAt(F.Loc, formatString("duplicate field '%s' in class '%s'",
                                         F.Name.c_str(), Class.Name.c_str()));
    FieldInfo FI;
    FI.Name = F.Name;
    FI.DeclaredType = F.DeclaredType;
    FI.Index = static_cast<unsigned>(CI.Fields.size());
    CI.Fields.push_back(std::move(FI));
  }

  for (const auto &M : Class.Methods) {
    if (CI.findMethod(M->Name))
      return errorAt(M->Loc,
                     formatString("duplicate method '%s' in class '%s'",
                                  M->Name.c_str(), Class.Name.c_str()));
    MethodInfo MI;
    MI.Name = M->Name;
    MI.ReturnType = M->ReturnType;
    MI.IsSynchronized = M->IsSynchronized;
    MI.Decl = M.get();
    for (const ParamDecl &P : M->Params) {
      MI.ParamTypes.push_back(P.DeclaredType);
      MI.ParamNames.push_back(P.Name);
    }
    if (M->Name == ConstructorName && !M->ReturnType.isVoid())
      return errorAt(M->Loc, "constructor 'init' must not return a value");
    CI.Methods.push_back(std::move(MI));
  }

  Info.addClass(std::move(CI));
  return Status::success();
}

/// The type checker of method and test bodies, over the registered classes
/// in \p Info, which it only reads.
class SemaChecker {
public:
  explicit SemaChecker(const ProgramInfo &Info) : Info(Info) {}

  Status checkClassBodies(const ClassDecl &Class);
  /// Checks every test body and that no two tests share a name.
  Status checkTests(const std::vector<std::unique_ptr<TestDecl>> &Tests);

private:
  Status checkMethod(const ClassInfo &Class, const MethodDecl &Method);
  Status checkTest(const TestDecl &Test);

  Status checkStmt(Stmt *S);
  Status checkBlock(BlockStmt *Block);
  Result<Type> checkExpr(Expr *E);
  Result<Type> checkCall(CallExpr *Call);
  Result<Type> checkNew(NewExpr *New);

  Status validateType(const Type &Ty, SourceLoc Loc);

  const ProgramInfo &Info;

  /// Context while checking a body.
  Scopes Sc;
  const ClassInfo *CurrentClass = nullptr; ///< Null inside tests.
  Type CurrentReturnType = Type::voidTy();
  bool InTest = false;
  bool SawSpawn = false;
};

} // namespace

Status SemaChecker::validateType(const Type &Ty, SourceLoc Loc) {
  if (Ty.isClass() && !Info.findClass(Ty.className()))
    return errorAt(Loc, formatString("unknown class '%s'",
                                     Ty.className().c_str()));
  return Status::success();
}

Status SemaChecker::checkClassBodies(const ClassDecl &Class) {
  const ClassInfo *CI = Info.findClass(Class.Name);
  assert(CI && "class was registered in the first pass");

  // Field and parameter types may reference classes declared later, so
  // validate them only now, after all classes are registered.
  for (const FieldDecl &F : Class.Fields)
    if (Status S = validateType(F.DeclaredType, F.Loc); !S)
      return S;

  for (const auto &M : Class.Methods) {
    for (const ParamDecl &P : M->Params)
      if (Status S = validateType(P.DeclaredType, P.Loc); !S)
        return S;
    if (!M->ReturnType.isVoid())
      if (Status S = validateType(M->ReturnType, M->Loc); !S)
        return S;
    if (Status S = checkMethod(*CI, *M); !S)
      return S;
  }
  return Status::success();
}

Status SemaChecker::checkMethod(const ClassInfo &Class,
                                const MethodDecl &Method) {
  CurrentClass = &Class;
  CurrentReturnType = Method.ReturnType;
  InTest = false;

  Sc.open();
  Status S = Status::success();
  for (const ParamDecl &P : Method.Params)
    if (!Sc.declare(P.Name, P.DeclaredType)) {
      S = errorAt(P.Loc,
                  formatString("duplicate parameter '%s'", P.Name.c_str()));
      break;
    }
  if (S)
    S = checkBlock(Method.Body.get());
  Sc.close();
  CurrentClass = nullptr;
  return S;
}

Status SemaChecker::checkTest(const TestDecl &Test) {
  CurrentClass = nullptr;
  CurrentReturnType = Type::voidTy();
  InTest = true;
  Status S = checkBlock(Test.Body.get());
  InTest = false;
  return S;
}

Status SemaChecker::checkBlock(BlockStmt *Block) {
  Sc.open();
  Status St = Status::success();
  for (const StmtPtr &S : Block->stmts())
    if (St = checkStmt(S.get()); !St)
      break;
  Sc.close();
  return St;
}

Status SemaChecker::checkStmt(Stmt *S) {
  switch (S->kind()) {
  case Stmt::Kind::Block:
    return checkBlock(cast<BlockStmt>(S));

  case Stmt::Kind::VarDecl: {
    auto *Decl = cast<VarDeclStmt>(S);
    if (Status St = validateType(Decl->declaredType(), Decl->loc()); !St)
      return St;
    if (Decl->init()) {
      Result<Type> InitTy = checkExpr(Decl->init());
      if (!InitTy)
        return InitTy.error();
      if (!Decl->declaredType().acceptsValueOf(*InitTy))
        return errorAt(Decl->loc(),
                       formatString("cannot initialize '%s' of type %s "
                                    "with a value of type %s",
                                    Decl->name().c_str(),
                                    Decl->declaredType().str().c_str(),
                                    InitTy->str().c_str()));
    }
    if (!Sc.declare(Decl->name(), Decl->declaredType()))
      return errorAt(Decl->loc(),
                     formatString("redeclaration of '%s'",
                                  Decl->name().c_str()));
    return Status::success();
  }

  case Stmt::Kind::Assign: {
    auto *Assign = cast<AssignStmt>(S);
    Result<Type> TargetTy = checkExpr(Assign->target());
    if (!TargetTy)
      return TargetTy.error();
    Result<Type> ValueTy = checkExpr(Assign->value());
    if (!ValueTy)
      return ValueTy.error();
    if (!TargetTy->acceptsValueOf(*ValueTy))
      return errorAt(Assign->loc(),
                     formatString("cannot assign a value of type %s to a "
                                  "target of type %s",
                                  ValueTy->str().c_str(),
                                  TargetTy->str().c_str()));
    return Status::success();
  }

  case Stmt::Kind::ExprStmt:
    if (Result<Type> Ty = checkExpr(cast<ExprStmt>(S)->expr()); !Ty)
      return Ty.error();
    return Status::success();

  case Stmt::Kind::If: {
    auto *If = cast<IfStmt>(S);
    Result<Type> CondTy = checkExpr(If->cond());
    if (!CondTy)
      return CondTy.error();
    if (!CondTy->isBool())
      return errorAt(If->loc(), "if condition must be bool");
    if (Status St = checkStmt(If->thenBranch()); !St)
      return St;
    if (If->elseBranch())
      return checkStmt(If->elseBranch());
    return Status::success();
  }

  case Stmt::Kind::While: {
    auto *While = cast<WhileStmt>(S);
    Result<Type> CondTy = checkExpr(While->cond());
    if (!CondTy)
      return CondTy.error();
    if (!CondTy->isBool())
      return errorAt(While->loc(), "while condition must be bool");
    return checkStmt(While->body());
  }

  case Stmt::Kind::Return: {
    auto *Ret = cast<ReturnStmt>(S);
    if (InTest)
      return errorAt(Ret->loc(), "'return' is not allowed in tests");
    if (!Ret->value()) {
      if (!CurrentReturnType.isVoid())
        return errorAt(Ret->loc(), "non-void method must return a value");
      return Status::success();
    }
    Result<Type> ValueTy = checkExpr(Ret->value());
    if (!ValueTy)
      return ValueTy.error();
    if (!CurrentReturnType.acceptsValueOf(*ValueTy))
      return errorAt(Ret->loc(),
                     formatString("returning %s from a method returning %s",
                                  ValueTy->str().c_str(),
                                  CurrentReturnType.str().c_str()));
    return Status::success();
  }

  case Stmt::Kind::Sync: {
    auto *Sync = cast<SyncStmt>(S);
    Result<Type> LockTy = checkExpr(Sync->lockExpr());
    if (!LockTy)
      return LockTy.error();
    if (!LockTy->isClass())
      return errorAt(Sync->loc(),
                     "synchronized requires an object expression");
    return checkStmt(Sync->body());
  }

  case Stmt::Kind::Spawn: {
    auto *Spawn = cast<SpawnStmt>(S);
    if (!InTest)
      return errorAt(Spawn->loc(), "'spawn' is only allowed in tests");
    if (SawSpawn)
      // Nested spawn inside spawn body would need per-thread scoping of
      // InTest; keep tests simple and flat.
      return errorAt(Spawn->loc(), "nested 'spawn' is not supported");
    SawSpawn = true;
    Status St = checkStmt(Spawn->body());
    SawSpawn = false;
    return St;
  }
  }
  narada_unreachable("unknown statement kind");
}

Result<Type> SemaChecker::checkExpr(Expr *E) {
  auto SetAndReturn = [E](Type Ty) -> Result<Type> {
    E->setType(Ty);
    return Ty;
  };

  switch (E->kind()) {
  case Expr::Kind::IntLit:
  case Expr::Kind::Rand:
    return SetAndReturn(Type::intTy());
  case Expr::Kind::BoolLit:
    return SetAndReturn(Type::boolTy());
  case Expr::Kind::NullLit:
    return SetAndReturn(Type::nullTy());

  case Expr::Kind::This:
    if (!CurrentClass)
      return errorAt(E->loc(), "'this' is only valid inside a method");
    return SetAndReturn(Type::classTy(CurrentClass->Name));

  case Expr::Kind::VarRef: {
    auto *Var = cast<VarRefExpr>(E);
    if (const Type *Ty = Sc.lookup(Var->name()))
      return SetAndReturn(*Ty);
    return errorAt(E->loc(), formatString("use of undeclared variable '%s'",
                                          Var->name().c_str()));
  }

  case Expr::Kind::FieldAccess: {
    auto *Access = cast<FieldAccessExpr>(E);
    Result<Type> BaseTy = checkExpr(Access->base());
    if (!BaseTy)
      return BaseTy.error();
    if (!BaseTy->isClass())
      return errorAt(E->loc(),
                     formatString("field access on non-object type %s",
                                  BaseTy->str().c_str()));
    const ClassInfo *Class = Info.findClass(BaseTy->className());
    assert(Class && "validated class type");
    const FieldInfo *Field = Class->findField(Access->field());
    if (!Field)
      return errorAt(E->loc(),
                     formatString("class '%s' has no field '%s'",
                                  Class->Name.c_str(),
                                  Access->field().c_str()));
    return SetAndReturn(Field->DeclaredType);
  }

  case Expr::Kind::Call:
    return checkCall(cast<CallExpr>(E));
  case Expr::Kind::New:
    return checkNew(cast<NewExpr>(E));

  case Expr::Kind::Unary: {
    auto *Unary = cast<UnaryExpr>(E);
    Result<Type> OperandTy = checkExpr(Unary->operand());
    if (!OperandTy)
      return OperandTy.error();
    if (Unary->op() == UnaryOp::Neg) {
      if (!OperandTy->isInt())
        return errorAt(E->loc(), "unary '-' requires an int operand");
      return SetAndReturn(Type::intTy());
    }
    if (!OperandTy->isBool())
      return errorAt(E->loc(), "unary '!' requires a bool operand");
    return SetAndReturn(Type::boolTy());
  }

  case Expr::Kind::Binary: {
    auto *Binary = cast<BinaryExpr>(E);
    Result<Type> LHS = checkExpr(Binary->lhs());
    if (!LHS)
      return LHS.error();
    Result<Type> RHS = checkExpr(Binary->rhs());
    if (!RHS)
      return RHS.error();
    switch (Binary->op()) {
    case BinaryOp::Add:
    case BinaryOp::Sub:
    case BinaryOp::Mul:
    case BinaryOp::Div:
    case BinaryOp::Rem:
      if (!LHS->isInt() || !RHS->isInt())
        return errorAt(E->loc(), "arithmetic requires int operands");
      return SetAndReturn(Type::intTy());
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge:
      if (!LHS->isInt() || !RHS->isInt())
        return errorAt(E->loc(), "comparison requires int operands");
      return SetAndReturn(Type::boolTy());
    case BinaryOp::Eq:
    case BinaryOp::Ne: {
      bool Comparable = LHS->acceptsValueOf(*RHS) || RHS->acceptsValueOf(*LHS);
      if (!Comparable)
        return errorAt(E->loc(),
                       formatString("cannot compare %s with %s",
                                    LHS->str().c_str(), RHS->str().c_str()));
      return SetAndReturn(Type::boolTy());
    }
    case BinaryOp::And:
    case BinaryOp::Or:
      if (!LHS->isBool() || !RHS->isBool())
        return errorAt(E->loc(), "logical operator requires bool operands");
      return SetAndReturn(Type::boolTy());
    }
    narada_unreachable("unknown binary op");
  }
  }
  narada_unreachable("unknown expression kind");
}

Result<Type> SemaChecker::checkCall(CallExpr *Call) {
  Result<Type> BaseTy = checkExpr(Call->base());
  if (!BaseTy)
    return BaseTy.error();
  if (!BaseTy->isClass())
    return Error(formatString("method call on non-object type %s",
                              BaseTy->str().c_str()),
                 Call->loc().str());
  const ClassInfo *Class = Info.findClass(BaseTy->className());
  assert(Class && "validated class type");
  const MethodInfo *Method = Class->findMethod(Call->method());
  if (!Method)
    return Error(formatString("class '%s' has no method '%s'",
                              Class->Name.c_str(), Call->method().c_str()),
                 Call->loc().str());
  if (Call->method() == ConstructorName)
    return Error("constructors may only be invoked via 'new'",
                 Call->loc().str());
  if (Call->args().size() != Method->ParamTypes.size())
    return Error(formatString("method '%s.%s' expects %zu argument(s), got "
                              "%zu",
                              Class->Name.c_str(), Method->Name.c_str(),
                              Method->ParamTypes.size(), Call->args().size()),
                 Call->loc().str());
  for (size_t I = 0, N = Call->args().size(); I != N; ++I) {
    Result<Type> ArgTy = checkExpr(Call->args()[I].get());
    if (!ArgTy)
      return ArgTy.error();
    if (!Method->ParamTypes[I].acceptsValueOf(*ArgTy))
      return Error(formatString("argument %zu of '%s.%s': expected %s, got "
                                "%s",
                                I + 1, Class->Name.c_str(),
                                Method->Name.c_str(),
                                Method->ParamTypes[I].str().c_str(),
                                ArgTy->str().c_str()),
                   Call->loc().str());
  }
  Call->setType(Method->ReturnType);
  return Method->ReturnType;
}

Result<Type> SemaChecker::checkNew(NewExpr *New) {
  const ClassInfo *Class = Info.findClass(New->className());
  if (!Class)
    return Error(formatString("unknown class '%s'", New->className().c_str()),
                 New->loc().str());
  const MethodInfo *Ctor = Class->findMethod(ConstructorName);
  if (!Ctor && !New->args().empty())
    return Error(formatString("class '%s' has no constructor but 'new' was "
                              "given arguments",
                              Class->Name.c_str()),
                 New->loc().str());
  if (Ctor) {
    if (New->args().size() != Ctor->ParamTypes.size())
      return Error(formatString("constructor of '%s' expects %zu "
                                "argument(s), got %zu",
                                Class->Name.c_str(), Ctor->ParamTypes.size(),
                                New->args().size()),
                   New->loc().str());
    for (size_t I = 0, N = New->args().size(); I != N; ++I) {
      Result<Type> ArgTy = checkExpr(New->args()[I].get());
      if (!ArgTy)
        return ArgTy.error();
      if (!Ctor->ParamTypes[I].acceptsValueOf(*ArgTy))
        return Error(formatString("constructor argument %zu of '%s': "
                                  "expected %s, got %s",
                                  I + 1, Class->Name.c_str(),
                                  Ctor->ParamTypes[I].str().c_str(),
                                  ArgTy->str().c_str()),
                     New->loc().str());
    }
  }
  Type Ty = Type::classTy(New->className());
  New->setType(Ty);
  return Ty;
}

Status SemaChecker::checkTests(
    const std::vector<std::unique_ptr<TestDecl>> &Tests) {
  std::set<std::string_view> Names;
  for (const auto &Test : Tests) {
    if (!Names.insert(Test->Name).second)
      return errorAt(Test->Loc, formatString("duplicate test '%s'",
                                             Test->Name.c_str()));
    if (Status S = checkTest(*Test); !S)
      return S;
  }
  return Status::success();
}

Result<std::shared_ptr<ProgramInfo>> narada::analyze(Program &Prog) {
  auto Info = std::make_shared<ProgramInfo>();
  registerBuiltins(*Info);
  for (const auto &Class : Prog.Classes)
    if (Status S = registerClass(*Info, *Class); !S)
      return S.error();
  SemaChecker Checker(*Info);
  for (const auto &Class : Prog.Classes)
    if (Status S = Checker.checkClassBodies(*Class); !S)
      return S.error();
  if (Status S = Checker.checkTests(Prog.Tests); !S)
    return S.error();
  return Info;
}

Status
narada::analyzeTests(const std::vector<std::unique_ptr<TestDecl>> &Tests,
                     const ProgramInfo &Info) {
  return SemaChecker(Info).checkTests(Tests);
}
