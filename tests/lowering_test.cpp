//===- tests/lowering_test.cpp - AST to IR lowering unit tests ----------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "ir/IRPrinter.h"
#include "ir/Lowering.h"
#include "ir/Verifier.h"
#include "lang/Parser.h"
#include "lang/Sema.h"

#include <gtest/gtest.h>

using namespace narada;

namespace {

std::shared_ptr<IRModule> lowerOk(std::string_view Source) {
  Result<std::unique_ptr<Program>> P = Parser::parse(Source);
  EXPECT_TRUE(P.hasValue()) << (P ? "" : P.error().str());
  if (!P)
    return nullptr;
  auto Prog = P.take();
  Result<std::shared_ptr<ProgramInfo>> Info = analyze(*Prog);
  EXPECT_TRUE(Info.hasValue()) << (Info ? "" : Info.error().str());
  if (!Info)
    return nullptr;
  Result<std::shared_ptr<IRModule>> M = lower(*Prog, Info.take());
  EXPECT_TRUE(M.hasValue()) << (M ? "" : M.error().str());
  if (!M)
    return nullptr;
  Status V = verifyModule(**M);
  EXPECT_TRUE(V.ok()) << (V ? "" : V.error().str());
  return M.take();
}

/// Counts instructions of \p Op in \p F.
size_t countOps(const IRFunction &F, Opcode Op) {
  size_t N = 0;
  for (const Instr &I : F.instrs())
    if (I.Op == Op)
      ++N;
  return N;
}

} // namespace

TEST(LoweringTest, MethodBodiesAndTestsAreLowered) {
  auto M = lowerOk("class Counter {\n"
                   "  field count: int;\n"
                   "  method inc() { this.count = this.count + 1; }\n"
                   "}\n"
                   "test seed { var c: Counter = new Counter; c.inc(); }\n");
  ASSERT_TRUE(M);
  EXPECT_TRUE(M->findMethod("Counter", "inc"));
  EXPECT_TRUE(M->findTest("seed"));
  EXPECT_FALSE(M->findMethod("Counter", "missing"));
}

TEST(LoweringTest, FieldIncrementShape) {
  auto M = lowerOk("class Counter {\n"
                   "  field count: int;\n"
                   "  method inc() { this.count = this.count + 1; }\n"
                   "}\n");
  const IRFunction *Inc = M->findMethod("Counter", "inc");
  ASSERT_TRUE(Inc);
  EXPECT_EQ(countOps(*Inc, Opcode::LoadField), 1u);
  EXPECT_EQ(countOps(*Inc, Opcode::StoreField), 1u);
  EXPECT_EQ(countOps(*Inc, Opcode::BinOp), 1u);
  EXPECT_EQ(Inc->instrs().back().Op, Opcode::Ret);
}

TEST(LoweringTest, SynchronizedMethodWrapsBodyInMonitor) {
  auto M = lowerOk("class Lib {\n"
                   "  field n: int;\n"
                   "  method update() synchronized { this.n = 1; }\n"
                   "}\n");
  const IRFunction *F = M->findMethod("Lib", "update");
  ASSERT_TRUE(F);
  EXPECT_TRUE(F->isSynchronized());
  EXPECT_EQ(countOps(*F, Opcode::MonitorEnter), 1u);
  EXPECT_EQ(countOps(*F, Opcode::MonitorExit), 1u);
  // MonitorEnter must precede the store, MonitorExit must follow it.
  const auto &Body = F->instrs();
  size_t EnterIdx = 0, StoreIdx = 0, ExitIdx = 0;
  for (size_t I = 0; I < Body.size(); ++I) {
    if (Body[I].Op == Opcode::MonitorEnter)
      EnterIdx = I;
    if (Body[I].Op == Opcode::StoreField)
      StoreIdx = I;
    if (Body[I].Op == Opcode::MonitorExit)
      ExitIdx = I;
  }
  EXPECT_LT(EnterIdx, StoreIdx);
  EXPECT_LT(StoreIdx, ExitIdx);
}

TEST(LoweringTest, ReturnInsideSyncBlockUnwindsMonitors) {
  auto M = lowerOk("class A {\n"
                   "  field n: int;\n"
                   "  method m(): int synchronized {\n"
                   "    synchronized (this) { return this.n; }\n"
                   "  }\n"
                   "}\n");
  const IRFunction *F = M->findMethod("A", "m");
  ASSERT_TRUE(F);
  // Two nested sync regions: each return path must exit both monitors.
  // Find the first Ret with a value and count MonitorExits before it.
  const auto &Body = F->instrs();
  size_t RetIdx = Body.size();
  for (size_t I = 0; I < Body.size(); ++I)
    if (Body[I].Op == Opcode::Ret && Body[I].A != NoReg) {
      RetIdx = I;
      break;
    }
  ASSERT_LT(RetIdx, Body.size());
  size_t ExitsBeforeRet = 0;
  for (size_t I = 0; I < RetIdx; ++I)
    if (Body[I].Op == Opcode::MonitorExit)
      ++ExitsBeforeRet;
  EXPECT_EQ(ExitsBeforeRet, 2u);
}

TEST(LoweringTest, NewWithConstructorEmitsInvokeInit) {
  auto M = lowerOk("class A { field n: int;\n"
                   "  method init(n: int) { this.n = n; } }\n"
                   "test t { var a: A = new A(5); }\n");
  const IRFunction *T = M->findTest("t");
  ASSERT_TRUE(T);
  EXPECT_EQ(countOps(*T, Opcode::NewObject), 1u);
  bool FoundInit = false;
  for (const Instr &I : T->instrs())
    if (I.Op == Opcode::Invoke && I.Member == ConstructorName) {
      FoundInit = true;
      EXPECT_EQ(I.ClassName, "A");
      EXPECT_TRUE(I.Callee);
    }
  EXPECT_TRUE(FoundInit);
}

TEST(LoweringTest, NewWithoutConstructorEmitsNoInvoke) {
  auto M = lowerOk("class A { }\n"
                   "test t { var a: A = new A; }\n");
  const IRFunction *T = M->findTest("t");
  EXPECT_EQ(countOps(*T, Opcode::Invoke), 0u);
}

TEST(LoweringTest, BuiltinCallsHaveNullCallee) {
  auto M = lowerOk("test t {\n"
                   "  var a: IntArray = new IntArray(4);\n"
                   "  a.set(0, 1);\n"
                   "}\n");
  const IRFunction *T = M->findTest("t");
  for (const Instr &I : T->instrs()) {
    if (I.Op == Opcode::Invoke)
      EXPECT_EQ(I.Callee, nullptr) << I.Member;
  }
}

TEST(LoweringTest, InvokesAreStaticallyResolved) {
  auto M = lowerOk("class A { method m() { } }\n"
                   "class B { field a: A; method call() { this.a.m(); } }\n");
  const IRFunction *Call = M->findMethod("B", "call");
  bool Found = false;
  for (const Instr &I : Call->instrs())
    if (I.Op == Opcode::Invoke) {
      Found = true;
      ASSERT_TRUE(I.Callee);
      EXPECT_EQ(I.Callee->name(), "A.m");
    }
  EXPECT_TRUE(Found);
}

TEST(LoweringTest, WhileLoopHasBackEdge) {
  auto M = lowerOk("class A { method m(n: int) {\n"
                   "  var i: int = 0;\n"
                   "  while (i < n) { i = i + 1; }\n"
                   "} }");
  const IRFunction *F = M->findMethod("A", "m");
  bool HasBackEdge = false;
  for (size_t I = 0; I < F->instrs().size(); ++I) {
    const Instr &In = F->instrs()[I];
    if (In.Op == Opcode::Jump && In.Target <= I)
      HasBackEdge = true;
  }
  EXPECT_TRUE(HasBackEdge);
}

TEST(LoweringTest, ShortCircuitAndEmitsBranch) {
  auto M = lowerOk("class A { field hit: bool;\n"
                   "  method touch(): bool { this.hit = true; return true; }\n"
                   "  method m(b: bool): bool { return b && this.touch(); }\n"
                   "}");
  const IRFunction *F = M->findMethod("A", "m");
  EXPECT_GE(countOps(*F, Opcode::Branch), 1u);
}

TEST(LoweringTest, BlockLocalsEndWithTheirBlock) {
  // Names do not reach the IR, so a block local that shadows an outer one
  // lowers exactly like a fresh name, and after the block the outer
  // local's register is read again.
  const char *Shadowing = "class Box { field v: int; }\n"
                          "test t {\n"
                          "  var b: Box = new Box; var x: int = 1;\n"
                          "  if (true) { var x: int = 2; b.v = x; }\n"
                          "  b.v = x;\n"
                          "}\n";
  const char *Fresh = "class Box { field v: int; }\n"
                      "test t {\n"
                      "  var b: Box = new Box; var x: int = 1;\n"
                      "  if (true) { var y: int = 2; b.v = y; }\n"
                      "  b.v = x;\n"
                      "}\n";
  auto A = lowerOk(Shadowing);
  auto B = lowerOk(Fresh);
  ASSERT_TRUE(A && B);
  EXPECT_EQ(printFunction(*A->findTest("t")), printFunction(*B->findTest("t")));
}

TEST(LoweringTest, LocalShadowingAParameterLowersLikeAFreshName) {
  // As in Sema, a method body's statements sit in a scope inside the
  // parameters' one, so a top-level local named like a parameter shadows
  // it: the method returns 5, not its argument.
  const char *Shadowing =
      "class Box {\n"
      "  method m(x: int): int { var x: int = 5; return x; }\n"
      "}\n";
  const char *Fresh =
      "class Box {\n"
      "  method m(x: int): int { var y: int = 5; return y; }\n"
      "}\n";
  auto A = lowerOk(Shadowing);
  auto B = lowerOk(Fresh);
  ASSERT_TRUE(A && B);
  const IRFunction *MA = A->findMethod("Box", "m");
  const IRFunction *MB = B->findMethod("Box", "m");
  ASSERT_TRUE(MA && MB);
  EXPECT_EQ(printFunction(*MA), printFunction(*MB));
}

TEST(LoweringTest, SpawnBlocksBecomeClosures) {
  auto M = lowerOk("class A { method m() { } }\n"
                   "test t {\n"
                   "  var a: A = new A;\n"
                   "  var b: A = new A;\n"
                   "  spawn { a.m(); }\n"
                   "  spawn { b.m(); b.m(); }\n"
                   "}\n");
  const IRFunction *T = M->findTest("t");
  ASSERT_TRUE(T);
  EXPECT_EQ(countOps(*T, Opcode::SpawnThread), 2u);
  // Each spawn captures exactly the locals its body references.
  for (const Instr &I : T->instrs())
    if (I.Op == Opcode::SpawnThread) {
      ASSERT_TRUE(I.Callee);
      EXPECT_EQ(I.Callee->kind(), IRFunction::Kind::Spawn);
      EXPECT_EQ(I.Args.size(), 1u);
      EXPECT_EQ(I.Callee->numParams(), 1u);
    }
}

TEST(LoweringTest, SpawnClosureBodyIsVerified) {
  auto M = lowerOk("class A { field n: int;\n"
                   "  method bump() { this.n = this.n + 1; } }\n"
                   "test t {\n"
                   "  var a: A = new A;\n"
                   "  spawn { a.bump(); }\n"
                   "}\n");
  // Find the closure function and check its instructions reference the
  // captured parameter.
  const IRFunction *Closure = nullptr;
  for (const auto &F : M->functions())
    if (F->kind() == IRFunction::Kind::Spawn)
      Closure = F.get();
  ASSERT_TRUE(Closure);
  EXPECT_EQ(Closure->numParams(), 1u);
  EXPECT_EQ(countOps(*Closure, Opcode::Invoke), 1u);
}

TEST(LoweringTest, RandLowersToRandInt) {
  auto M = lowerOk("class A { field x: int;\n"
                   "  method m() { this.x = rand(); } }");
  const IRFunction *F = M->findMethod("A", "m");
  EXPECT_EQ(countOps(*F, Opcode::RandInt), 1u);
}

TEST(LoweringTest, PrinterShowsFieldAccess) {
  auto M = lowerOk("class Counter { field count: int;\n"
                   "  method inc() { this.count = this.count + 1; } }");
  std::string Text = printFunction(*M->findMethod("Counter", "inc"));
  EXPECT_NE(Text.find("load_field"), std::string::npos);
  EXPECT_NE(Text.find(".count"), std::string::npos);
  EXPECT_NE(Text.find("ret"), std::string::npos);
}

TEST(LoweringTest, LowerTestIntoExistingModule) {
  auto M = lowerOk("class A { method m() { } }\n");
  ASSERT_TRUE(M);

  // Build a small synthesized test AST by parsing a fragment.
  Result<std::unique_ptr<Program>> P =
      Parser::parse("class A { method m() { } }\n"
                    "test synth { var a: A = new A; spawn { a.m(); } }\n");
  ASSERT_TRUE(P.hasValue());
  auto Prog = P.take();
  Result<std::shared_ptr<ProgramInfo>> Info = analyze(*Prog);
  ASSERT_TRUE(Info.hasValue());

  const TestDecl *Synth = Prog->findTest("synth");
  Result<const IRFunction *> F = lowerTestInto(*M, *Synth);
  ASSERT_TRUE(F.hasValue()) << (F ? "" : F.error().str());
  EXPECT_EQ(M->findTest("synth"), *F);
  EXPECT_TRUE(verifyModule(*M).ok());
}
