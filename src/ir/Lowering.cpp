//===- ir/Lowering.cpp - AST to IR lowering ---------------------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "ir/Lowering.h"

#include "ir/Verifier.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <set>

using namespace narada;

namespace {

/// Lowers one function body (method, test, or spawn closure).
class FunctionLowerer {
public:
  FunctionLowerer(IRModule &M, IRFunction &F,
                  std::vector<std::unique_ptr<IRFunction>> &PendingSpawns)
      : M(M), F(F), PendingSpawns(PendingSpawns) {}

  /// Introduces a parameter register bound to \p Name; \p Name and \p Ty
  /// must outlive the lowerer.
  void addParam(std::string_view Name, const Type &Ty) {
    Reg R = allocReg();
    assert(R + 1 == NextReg && "params must be allocated first");
    declare(Name, R, Ty);
  }

  Status lowerBody(const BlockStmt *Body, bool Synchronized);
  Status lowerStmt(const Stmt *S);
  Result<Reg> lowerExpr(const Expr *E);

  void finish() { F.setNumRegs(NextReg); }

private:
  /// A local in scope: its name and type point into the AST or the
  /// symbol tables.
  struct Local {
    std::string_view Name;
    Reg R;
    const Type *Ty;
  };

  Reg allocReg() { return NextReg++; }

  void pushScope() { ScopeStarts.push_back(Locals.size()); }
  void popScope() {
    Locals.resize(ScopeStarts.back());
    ScopeStarts.pop_back();
  }

  /// Binds \p Name in the innermost scope unless that scope already binds
  /// it; the first binding wins.  The body's statements open their own
  /// scope inside the parameters' one, as in Sema's checkMethod, so a
  /// top-level local named like a parameter shadows it.
  void declare(std::string_view Name, Reg R, const Type &Ty) {
    for (size_t I = ScopeStarts.back(); I < Locals.size(); ++I)
      if (Locals[I].Name == Name)
        return;
    Locals.push_back({Name, R, &Ty});
  }

  const Local *lookup(std::string_view Name) const {
    for (auto It = Locals.rbegin(), E = Locals.rend(); It != E; ++It)
      if (It->Name == Name)
        return &*It;
    return nullptr;
  }

  uint32_t emit(Instr I) { return F.append(std::move(I)); }

  /// Emits a MonitorExit for every enclosing sync region (used before Ret).
  void unwindMonitors() {
    for (auto It = ActiveSyncRegs.rbegin(), E = ActiveSyncRegs.rend();
         It != E; ++It) {
      Instr Exit;
      Exit.Op = Opcode::MonitorExit;
      Exit.A = *It;
      emit(std::move(Exit));
    }
  }

  Result<Reg> lowerShortCircuit(const BinaryExpr *Binary);
  Result<Reg> lowerCall(const CallExpr *Call);
  Result<Reg> lowerNew(const NewExpr *New);
  Status lowerSpawn(const SpawnStmt *Spawn);

  /// Resolves the field index for an access of \p Field on \p BaseTy.
  Result<unsigned> fieldIndexFor(const Type &BaseTy, const std::string &Field,
                                 SourceLoc Loc) {
    const ClassInfo *Class = M.programInfo().findClass(BaseTy.className());
    if (!Class)
      return Error(formatString("unknown class '%s'",
                                BaseTy.className().c_str()),
                   Loc.str());
    const FieldInfo *FI = Class->findField(Field);
    if (!FI)
      return Error(formatString("class '%s' has no field '%s'",
                                Class->Name.c_str(), Field.c_str()),
                   Loc.str());
    return FI->Index;
  }

  IRModule &M;
  IRFunction &F;
  std::vector<std::unique_ptr<IRFunction>> &PendingSpawns;
  Reg NextReg = 0;
  /// Every local in scope, innermost last, and where each open scope's
  /// locals start.
  std::vector<Local> Locals;
  std::vector<size_t> ScopeStarts{0};
  std::vector<Reg> ActiveSyncRegs;
  unsigned SpawnCounter = 0;
};

} // namespace

Status FunctionLowerer::lowerBody(const BlockStmt *Body, bool Synchronized) {
  F.setNumParams(NextReg);

  Reg ThisReg = 0;
  if (Synchronized) {
    Instr Enter;
    Enter.Op = Opcode::MonitorEnter;
    Enter.A = ThisReg;
    Enter.Loc = Body->loc();
    emit(std::move(Enter));
    ActiveSyncRegs.push_back(ThisReg);
  }

  pushScope();
  for (const StmtPtr &S : Body->stmts())
    if (Status St = lowerStmt(S.get()); !St) {
      popScope();
      return St;
    }
  popScope();

  if (Synchronized) {
    Instr Exit;
    Exit.Op = Opcode::MonitorExit;
    Exit.A = ThisReg;
    Exit.Loc = Body->loc();
    emit(std::move(Exit));
    ActiveSyncRegs.pop_back();
  }

  // Implicit void return at the end of every body; Verifier relies on it.
  Instr Ret;
  Ret.Op = Opcode::Ret;
  Ret.Loc = Body->loc();
  emit(std::move(Ret));
  return Status::success();
}

Status FunctionLowerer::lowerStmt(const Stmt *S) {
  switch (S->kind()) {
  case Stmt::Kind::Block: {
    pushScope();
    for (const StmtPtr &Child : cast<BlockStmt>(S)->stmts())
      if (Status St = lowerStmt(Child.get()); !St) {
        popScope();
        return St;
      }
    popScope();
    return Status::success();
  }

  case Stmt::Kind::VarDecl: {
    const auto *Decl = cast<VarDeclStmt>(S);
    Reg R;
    if (Decl->init()) {
      Result<Reg> Init = lowerExpr(Decl->init());
      if (!Init)
        return Init.error();
      R = allocReg();
      Instr Move;
      Move.Op = Opcode::Move;
      Move.Dst = R;
      Move.A = *Init;
      Move.Loc = S->loc();
      emit(std::move(Move));
    } else {
      R = allocReg();
      Instr Zero;
      Zero.Loc = S->loc();
      Zero.Dst = R;
      if (Decl->declaredType().isInt() || Decl->declaredType().isBool()) {
        Zero.Op = Decl->declaredType().isInt() ? Opcode::ConstInt
                                               : Opcode::ConstBool;
        Zero.Imm = 0;
      } else {
        Zero.Op = Opcode::ConstNull;
      }
      emit(std::move(Zero));
    }
    declare(Decl->name(), R, Decl->declaredType());
    return Status::success();
  }

  case Stmt::Kind::Assign: {
    const auto *Assign = cast<AssignStmt>(S);
    Result<Reg> Value = lowerExpr(Assign->value());
    if (!Value)
      return Value.error();
    const Expr *Target = Assign->target();
    if (const auto *Var = dyn_cast<VarRefExpr>(Target)) {
      const Local *L = lookup(Var->name());
      assert(L && "Sema resolved all variable references");
      Instr Move;
      Move.Op = Opcode::Move;
      Move.Dst = L->R;
      Move.A = *Value;
      Move.Loc = S->loc();
      emit(std::move(Move));
      return Status::success();
    }
    const auto *Access = cast<FieldAccessExpr>(Target);
    Result<Reg> Base = lowerExpr(Access->base());
    if (!Base)
      return Base.error();
    Result<unsigned> Index = fieldIndexFor(Access->base()->type(),
                                           Access->field(), Access->loc());
    if (!Index)
      return Index.error();
    Instr Store;
    Store.Op = Opcode::StoreField;
    Store.A = *Base;
    Store.B = *Value;
    Store.ClassName = Access->base()->type().className();
    Store.Member = Access->field();
    Store.FieldIndex = *Index;
    Store.Loc = S->loc();
    emit(std::move(Store));
    return Status::success();
  }

  case Stmt::Kind::ExprStmt:
    if (Result<Reg> R = lowerExpr(cast<ExprStmt>(S)->expr()); !R)
      return R.error();
    return Status::success();

  case Stmt::Kind::If: {
    const auto *If = cast<IfStmt>(S);
    Result<Reg> Cond = lowerExpr(If->cond());
    if (!Cond)
      return Cond.error();
    Instr BranchInstr;
    BranchInstr.Op = Opcode::Branch;
    BranchInstr.A = *Cond;
    BranchInstr.Loc = S->loc();
    uint32_t BranchIdx = emit(std::move(BranchInstr));
    if (Status St = lowerStmt(If->thenBranch()); !St)
      return St;
    if (!If->elseBranch()) {
      F.instrs()[BranchIdx].Target =
          static_cast<uint32_t>(F.instrs().size());
      return Status::success();
    }
    Instr JumpInstr;
    JumpInstr.Op = Opcode::Jump;
    JumpInstr.Loc = S->loc();
    uint32_t JumpIdx = emit(std::move(JumpInstr));
    F.instrs()[BranchIdx].Target = static_cast<uint32_t>(F.instrs().size());
    if (Status St = lowerStmt(If->elseBranch()); !St)
      return St;
    F.instrs()[JumpIdx].Target = static_cast<uint32_t>(F.instrs().size());
    return Status::success();
  }

  case Stmt::Kind::While: {
    const auto *While = cast<WhileStmt>(S);
    uint32_t Head = static_cast<uint32_t>(F.instrs().size());
    Result<Reg> Cond = lowerExpr(While->cond());
    if (!Cond)
      return Cond.error();
    Instr BranchInstr;
    BranchInstr.Op = Opcode::Branch;
    BranchInstr.A = *Cond;
    BranchInstr.Loc = S->loc();
    uint32_t BranchIdx = emit(std::move(BranchInstr));
    if (Status St = lowerStmt(While->body()); !St)
      return St;
    Instr Back;
    Back.Op = Opcode::Jump;
    Back.Target = Head;
    Back.Loc = S->loc();
    emit(std::move(Back));
    F.instrs()[BranchIdx].Target = static_cast<uint32_t>(F.instrs().size());
    return Status::success();
  }

  case Stmt::Kind::Return: {
    const auto *Ret = cast<ReturnStmt>(S);
    Reg ValueReg = NoReg;
    if (Ret->value()) {
      Result<Reg> Value = lowerExpr(Ret->value());
      if (!Value)
        return Value.error();
      ValueReg = *Value;
    }
    unwindMonitors();
    Instr RetInstr;
    RetInstr.Op = Opcode::Ret;
    RetInstr.A = ValueReg;
    RetInstr.Loc = S->loc();
    emit(std::move(RetInstr));
    return Status::success();
  }

  case Stmt::Kind::Sync: {
    const auto *Sync = cast<SyncStmt>(S);
    Result<Reg> Lock = lowerExpr(Sync->lockExpr());
    if (!Lock)
      return Lock.error();
    // Pin the lock object in a dedicated register so the MonitorExit always
    // unlocks the object that was locked, even if the source expression's
    // value would change inside the block.
    Reg LockReg = allocReg();
    Instr Pin;
    Pin.Op = Opcode::Move;
    Pin.Dst = LockReg;
    Pin.A = *Lock;
    Pin.Loc = S->loc();
    emit(std::move(Pin));
    Instr Enter;
    Enter.Op = Opcode::MonitorEnter;
    Enter.A = LockReg;
    Enter.Loc = S->loc();
    emit(std::move(Enter));
    ActiveSyncRegs.push_back(LockReg);
    if (Status St = lowerStmt(Sync->body()); !St)
      return St;
    ActiveSyncRegs.pop_back();
    Instr Exit;
    Exit.Op = Opcode::MonitorExit;
    Exit.A = LockReg;
    Exit.Loc = S->loc();
    emit(std::move(Exit));
    return Status::success();
  }

  case Stmt::Kind::Spawn:
    return lowerSpawn(cast<SpawnStmt>(S));
  }
  narada_unreachable("unknown statement kind");
}

/// Collects the names referenced by \p S that are not declared within it.
static void collectFreeVars(const Stmt *S,
                            std::set<std::string_view> &Declared,
                            std::vector<std::string_view> &Free);

static void collectFreeVarsExpr(const Expr *E,
                                const std::set<std::string_view> &Declared,
                                std::vector<std::string_view> &Free) {
  switch (E->kind()) {
  case Expr::Kind::VarRef: {
    std::string_view Name = cast<VarRefExpr>(E)->name();
    if (!Declared.count(Name) &&
        std::find(Free.begin(), Free.end(), Name) == Free.end())
      Free.push_back(Name);
    return;
  }
  case Expr::Kind::FieldAccess:
    collectFreeVarsExpr(cast<FieldAccessExpr>(E)->base(), Declared, Free);
    return;
  case Expr::Kind::Call: {
    const auto *Call = cast<CallExpr>(E);
    collectFreeVarsExpr(Call->base(), Declared, Free);
    for (const ExprPtr &Arg : Call->args())
      collectFreeVarsExpr(Arg.get(), Declared, Free);
    return;
  }
  case Expr::Kind::New:
    for (const ExprPtr &Arg : cast<NewExpr>(E)->args())
      collectFreeVarsExpr(Arg.get(), Declared, Free);
    return;
  case Expr::Kind::Unary:
    collectFreeVarsExpr(cast<UnaryExpr>(E)->operand(), Declared, Free);
    return;
  case Expr::Kind::Binary: {
    const auto *Binary = cast<BinaryExpr>(E);
    collectFreeVarsExpr(Binary->lhs(), Declared, Free);
    collectFreeVarsExpr(Binary->rhs(), Declared, Free);
    return;
  }
  default:
    return;
  }
}

static void collectFreeVars(const Stmt *S,
                            std::set<std::string_view> &Declared,
                            std::vector<std::string_view> &Free) {
  switch (S->kind()) {
  case Stmt::Kind::Block:
    for (const StmtPtr &Child : cast<BlockStmt>(S)->stmts())
      collectFreeVars(Child.get(), Declared, Free);
    return;
  case Stmt::Kind::VarDecl: {
    const auto *Decl = cast<VarDeclStmt>(S);
    if (Decl->init())
      collectFreeVarsExpr(Decl->init(), Declared, Free);
    Declared.insert(Decl->name());
    return;
  }
  case Stmt::Kind::Assign: {
    const auto *Assign = cast<AssignStmt>(S);
    collectFreeVarsExpr(Assign->target(), Declared, Free);
    collectFreeVarsExpr(Assign->value(), Declared, Free);
    return;
  }
  case Stmt::Kind::ExprStmt:
    collectFreeVarsExpr(cast<ExprStmt>(S)->expr(), Declared, Free);
    return;
  case Stmt::Kind::If: {
    const auto *If = cast<IfStmt>(S);
    collectFreeVarsExpr(If->cond(), Declared, Free);
    collectFreeVars(If->thenBranch(), Declared, Free);
    if (If->elseBranch())
      collectFreeVars(If->elseBranch(), Declared, Free);
    return;
  }
  case Stmt::Kind::While: {
    const auto *While = cast<WhileStmt>(S);
    collectFreeVarsExpr(While->cond(), Declared, Free);
    collectFreeVars(While->body(), Declared, Free);
    return;
  }
  case Stmt::Kind::Return: {
    const auto *Ret = cast<ReturnStmt>(S);
    if (Ret->value())
      collectFreeVarsExpr(Ret->value(), Declared, Free);
    return;
  }
  case Stmt::Kind::Sync: {
    const auto *Sync = cast<SyncStmt>(S);
    collectFreeVarsExpr(Sync->lockExpr(), Declared, Free);
    collectFreeVars(Sync->body(), Declared, Free);
    return;
  }
  case Stmt::Kind::Spawn:
    collectFreeVars(cast<SpawnStmt>(S)->body(), Declared, Free);
    return;
  }
  narada_unreachable("unknown statement kind");
}

Status FunctionLowerer::lowerSpawn(const SpawnStmt *Spawn) {
  // Determine the locals the spawned block captures from this function.
  std::set<std::string_view> Declared;
  std::vector<std::string_view> Free;
  collectFreeVars(Spawn->body(), Declared, Free);

  std::vector<Reg> CaptureRegs;
  std::vector<Local> Captures;
  for (std::string_view Name : Free) {
    const Local *L = lookup(Name);
    if (!L)
      continue; // Not a local of this function (cannot happen after Sema).
    CaptureRegs.push_back(L->R);
    Captures.push_back(*L);
  }

  auto Closure = std::make_unique<IRFunction>(
      formatString("%s$spawn%u", F.name().c_str(), SpawnCounter++),
      IRFunction::Kind::Spawn);
  FunctionLowerer Inner(M, *Closure, PendingSpawns);
  for (const Local &Capture : Captures)
    Inner.addParam(Capture.Name, *Capture.Ty);
  const auto *Body = cast<BlockStmt>(Spawn->body());
  if (Status St = Inner.lowerBody(Body, /*Synchronized=*/false); !St)
    return St;
  Inner.finish();

  Instr SpawnInstr;
  SpawnInstr.Op = Opcode::SpawnThread;
  SpawnInstr.Args = std::move(CaptureRegs);
  SpawnInstr.Member = Closure->name();
  SpawnInstr.Callee = Closure.get();
  SpawnInstr.Loc = Spawn->loc();
  emit(std::move(SpawnInstr));

  PendingSpawns.push_back(std::move(Closure));
  return Status::success();
}

Result<Reg> FunctionLowerer::lowerExpr(const Expr *E) {
  switch (E->kind()) {
  case Expr::Kind::IntLit: {
    Reg R = allocReg();
    Instr I;
    I.Op = Opcode::ConstInt;
    I.Dst = R;
    I.Imm = cast<IntLitExpr>(E)->value();
    I.Loc = E->loc();
    emit(std::move(I));
    return R;
  }
  case Expr::Kind::BoolLit: {
    Reg R = allocReg();
    Instr I;
    I.Op = Opcode::ConstBool;
    I.Dst = R;
    I.Imm = cast<BoolLitExpr>(E)->value() ? 1 : 0;
    I.Loc = E->loc();
    emit(std::move(I));
    return R;
  }
  case Expr::Kind::NullLit: {
    Reg R = allocReg();
    Instr I;
    I.Op = Opcode::ConstNull;
    I.Dst = R;
    I.Loc = E->loc();
    emit(std::move(I));
    return R;
  }
  case Expr::Kind::This:
    return Reg(0);
  case Expr::Kind::Rand: {
    Reg R = allocReg();
    Instr I;
    I.Op = Opcode::RandInt;
    I.Dst = R;
    I.Loc = E->loc();
    emit(std::move(I));
    return R;
  }
  case Expr::Kind::VarRef: {
    const Local *L = lookup(cast<VarRefExpr>(E)->name());
    assert(L && "Sema resolved all variable references");
    return L->R;
  }
  case Expr::Kind::FieldAccess: {
    const auto *Access = cast<FieldAccessExpr>(E);
    Result<Reg> Base = lowerExpr(Access->base());
    if (!Base)
      return Base.error();
    Result<unsigned> Index = fieldIndexFor(Access->base()->type(),
                                           Access->field(), Access->loc());
    if (!Index)
      return Index.error();
    Reg R = allocReg();
    Instr Load;
    Load.Op = Opcode::LoadField;
    Load.Dst = R;
    Load.A = *Base;
    Load.ClassName = Access->base()->type().className();
    Load.Member = Access->field();
    Load.FieldIndex = *Index;
    Load.Loc = E->loc();
    emit(std::move(Load));
    return R;
  }
  case Expr::Kind::Call:
    return lowerCall(cast<CallExpr>(E));
  case Expr::Kind::New:
    return lowerNew(cast<NewExpr>(E));
  case Expr::Kind::Unary: {
    const auto *Unary = cast<UnaryExpr>(E);
    Result<Reg> Operand = lowerExpr(Unary->operand());
    if (!Operand)
      return Operand.error();
    Reg R = allocReg();
    Instr I;
    I.Op = Opcode::UnOp;
    I.Dst = R;
    I.A = *Operand;
    I.UnaryOperator = Unary->op();
    I.Loc = E->loc();
    emit(std::move(I));
    return R;
  }
  case Expr::Kind::Binary: {
    const auto *Binary = cast<BinaryExpr>(E);
    if (Binary->op() == BinaryOp::And || Binary->op() == BinaryOp::Or)
      return lowerShortCircuit(Binary);
    Result<Reg> LHS = lowerExpr(Binary->lhs());
    if (!LHS)
      return LHS.error();
    Result<Reg> RHS = lowerExpr(Binary->rhs());
    if (!RHS)
      return RHS.error();
    Reg R = allocReg();
    Instr I;
    I.Op = Opcode::BinOp;
    I.Dst = R;
    I.A = *LHS;
    I.B = *RHS;
    I.BinaryOperator = Binary->op();
    I.Loc = E->loc();
    emit(std::move(I));
    return R;
  }
  }
  narada_unreachable("unknown expression kind");
}

Result<Reg> FunctionLowerer::lowerShortCircuit(const BinaryExpr *Binary) {
  bool IsAnd = Binary->op() == BinaryOp::And;
  Result<Reg> LHS = lowerExpr(Binary->lhs());
  if (!LHS)
    return LHS.error();
  Reg R = allocReg();
  Instr CopyLHS;
  CopyLHS.Op = Opcode::Move;
  CopyLHS.Dst = R;
  CopyLHS.A = *LHS;
  CopyLHS.Loc = Binary->loc();
  emit(std::move(CopyLHS));

  // For '&&': skip the RHS when LHS is false.  For '||': skip when true —
  // implemented by branching on the negation.
  Reg CondReg = R;
  if (!IsAnd) {
    CondReg = allocReg();
    Instr Not;
    Not.Op = Opcode::UnOp;
    Not.Dst = CondReg;
    Not.A = R;
    Not.UnaryOperator = UnaryOp::Not;
    Not.Loc = Binary->loc();
    emit(std::move(Not));
  }
  Instr Skip;
  Skip.Op = Opcode::Branch;
  Skip.A = CondReg;
  Skip.Loc = Binary->loc();
  uint32_t SkipIdx = emit(std::move(Skip));

  Result<Reg> RHS = lowerExpr(Binary->rhs());
  if (!RHS)
    return RHS.error();
  Instr CopyRHS;
  CopyRHS.Op = Opcode::Move;
  CopyRHS.Dst = R;
  CopyRHS.A = *RHS;
  CopyRHS.Loc = Binary->loc();
  emit(std::move(CopyRHS));
  F.instrs()[SkipIdx].Target = static_cast<uint32_t>(F.instrs().size());
  return R;
}

Result<Reg> FunctionLowerer::lowerCall(const CallExpr *Call) {
  Result<Reg> Base = lowerExpr(Call->base());
  if (!Base)
    return Base.error();
  std::vector<Reg> ArgRegs;
  for (const ExprPtr &Arg : Call->args()) {
    Result<Reg> R = lowerExpr(Arg.get());
    if (!R)
      return R.error();
    ArgRegs.push_back(*R);
  }
  Reg Dst = Call->type().isVoid() ? NoReg : allocReg();
  Instr I;
  I.Op = Opcode::Invoke;
  I.Dst = Dst;
  I.A = *Base;
  I.Args = std::move(ArgRegs);
  I.ClassName = Call->base()->type().className();
  I.Member = Call->method();
  I.Loc = Call->loc();
  emit(std::move(I));
  return Dst == NoReg ? Reg(0) : Dst;
}

Result<Reg> FunctionLowerer::lowerNew(const NewExpr *New) {
  const ClassInfo *Class = M.programInfo().findClass(New->className());
  assert(Class && "Sema validated the class");
  Reg R = allocReg();
  Instr Alloc;
  Alloc.Op = Opcode::NewObject;
  Alloc.Dst = R;
  Alloc.ClassName = New->className();
  Alloc.Class = Class;
  Alloc.Loc = New->loc();
  emit(std::move(Alloc));

  const MethodInfo *Ctor = Class->findMethod(ConstructorName);
  if (Ctor) {
    std::vector<Reg> ArgRegs;
    for (const ExprPtr &Arg : New->args()) {
      Result<Reg> ArgReg = lowerExpr(Arg.get());
      if (!ArgReg)
        return ArgReg.error();
      ArgRegs.push_back(*ArgReg);
    }
    Instr Init;
    Init.Op = Opcode::Invoke;
    Init.Dst = NoReg;
    Init.A = R;
    Init.Args = std::move(ArgRegs);
    Init.ClassName = New->className();
    Init.Member = ConstructorName;
    Init.Loc = New->loc();
    emit(std::move(Init));
  }
  return R;
}

/// The IntArray method named \p Name, or None.
static ArrayBuiltin arrayBuiltin(const std::string &Name) {
  if (Name == ConstructorName)
    return ArrayBuiltin::Init;
  if (Name == "get")
    return ArrayBuiltin::Get;
  if (Name == "set")
    return ArrayBuiltin::Set;
  if (Name == "length")
    return ArrayBuiltin::Length;
  return ArrayBuiltin::None;
}

/// Resolves the Invoke callees of \p F against the methods of \p M.
/// Builtin-class methods keep a null callee and record which builtin they
/// call: the VM dispatches them natively.
static Status linkFunction(const IRModule &M, IRFunction &F) {
  for (Instr &I : F.instrs()) {
    if (I.Op != Opcode::Invoke)
      continue;
    const ClassInfo *Class = M.programInfo().findClass(I.ClassName);
    if (!Class)
      return Error(formatString("link: unknown class '%s'",
                                I.ClassName.c_str()));
    if (Class->IsBuiltin) {
      I.Callee = nullptr;
      I.Builtin = arrayBuiltin(I.Member);
      if (I.Builtin == ArrayBuiltin::None)
        return Error(formatString("link: no builtin method '%s.%s'",
                                  I.ClassName.c_str(), I.Member.c_str()));
      continue;
    }
    const IRFunction *Callee = M.findMethod(I.ClassName, I.Member);
    if (!Callee)
      return Error(formatString("link: no body for method '%s.%s'",
                                I.ClassName.c_str(), I.Member.c_str()));
    I.Callee = Callee;
  }
  return Status::success();
}

static Result<std::unique_ptr<IRFunction>>
lowerMethod(IRModule &M, const ClassInfo &Class, const MethodInfo &Method,
            std::vector<std::unique_ptr<IRFunction>> &PendingSpawns) {
  auto F = std::make_unique<IRFunction>(
      methodSymbol(Class.Name, Method.Name), IRFunction::Kind::Method);
  F->setClassName(Class.Name);
  F->setSynchronized(Method.IsSynchronized);

  FunctionLowerer Lowerer(M, *F, PendingSpawns);
  const Type ThisType = Type::classTy(Class.Name);
  Lowerer.addParam("this", ThisType);
  for (size_t I = 0, N = Method.ParamNames.size(); I != N; ++I)
    Lowerer.addParam(Method.ParamNames[I], Method.ParamTypes[I]);
  if (Status St = Lowerer.lowerBody(Method.Decl->Body.get(),
                                    Method.IsSynchronized);
      !St)
    return St.error();
  Lowerer.finish();
  return F;
}

static Result<std::unique_ptr<IRFunction>>
lowerTest(IRModule &M, const TestDecl &Test,
          std::vector<std::unique_ptr<IRFunction>> &PendingSpawns) {
  auto F = std::make_unique<IRFunction>("test$" + Test.Name,
                                        IRFunction::Kind::Test);
  FunctionLowerer Lowerer(M, *F, PendingSpawns);
  if (Status St = Lowerer.lowerBody(Test.Body.get(), /*Synchronized=*/false);
      !St)
    return St.error();
  Lowerer.finish();
  return F;
}

Result<std::shared_ptr<IRModule>>
narada::lower(const Program &Prog, std::shared_ptr<ProgramInfo> Info) {
  auto M = std::make_shared<IRModule>(Info);
  std::vector<std::unique_ptr<IRFunction>> PendingSpawns;

  for (const std::string &ClassName : Info->classNames()) {
    const ClassInfo *Class = Info->findClass(ClassName);
    if (Class->IsBuiltin)
      continue;
    for (const MethodInfo &Method : Class->Methods) {
      Result<std::unique_ptr<IRFunction>> F =
          lowerMethod(*M, *Class, Method, PendingSpawns);
      if (!F)
        return F.error();
      M->addFunction(F.take());
    }
  }
  for (const auto &Test : Prog.Tests) {
    Result<std::unique_ptr<IRFunction>> F =
        lowerTest(*M, *Test, PendingSpawns);
    if (!F)
      return F.error();
    M->addFunction(F.take());
  }
  for (auto &Spawn : PendingSpawns)
    M->addFunction(std::move(Spawn));

  for (const auto &F : M->functions())
    if (Status St = linkFunction(*M, *F); !St)
      return St.error();
  return M;
}

Result<const IRFunction *> narada::lowerTestInto(IRModule &M,
                                                 const TestDecl &Test) {
  std::vector<std::unique_ptr<IRFunction>> PendingSpawns;
  Result<std::unique_ptr<IRFunction>> F = lowerTest(M, Test, PendingSpawns);
  if (!F)
    return F.error();

  // Link and verify every new function before the module takes any.
  std::vector<std::unique_ptr<IRFunction>> New;
  New.push_back(F.take());
  for (auto &Spawn : PendingSpawns)
    New.push_back(std::move(Spawn));
  for (const auto &Fn : New) {
    if (Status St = linkFunction(M, *Fn); !St)
      return St.error();
    if (Status St = verifyFunction(*Fn); !St)
      return St.error();
  }
  const IRFunction *Out = New.front().get();
  for (auto &Fn : New)
    M.addFunction(std::move(Fn));
  return Out;
}
