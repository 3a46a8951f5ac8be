//===- tests/sema_test.cpp - MiniJava semantic analysis unit tests -----------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "lang/Sema.h"

#include <gtest/gtest.h>

using namespace narada;

namespace {

struct Checked {
  std::unique_ptr<Program> Prog;
  std::shared_ptr<ProgramInfo> Info;
};

Checked checkOk(std::string_view Source) {
  Result<std::unique_ptr<Program>> P = Parser::parse(Source);
  EXPECT_TRUE(P.hasValue()) << (P ? "" : P.error().str());
  if (!P)
    return {};
  auto Prog = P.take();
  Result<std::shared_ptr<ProgramInfo>> Info = analyze(*Prog);
  EXPECT_TRUE(Info.hasValue()) << (Info ? "" : Info.error().str());
  if (!Info)
    return {};
  return Checked{std::move(Prog), Info.take()};
}

std::string checkFail(std::string_view Source) {
  Result<std::unique_ptr<Program>> P = Parser::parse(Source);
  EXPECT_TRUE(P.hasValue()) << (P ? "" : P.error().str());
  if (!P)
    return "";
  auto Prog = P.take();
  Result<std::shared_ptr<ProgramInfo>> Info = analyze(*Prog);
  EXPECT_FALSE(Info.hasValue()) << "expected a semantic error";
  return Info ? "" : Info.error().message();
}

} // namespace

TEST(SemaTest, AcceptsPaperFigure1Example) {
  auto C = checkOk("class Counter {\n"
                   "  field count: int;\n"
                   "  method inc() { this.count = this.count + 1; }\n"
                   "}\n"
                   "class Lib {\n"
                   "  field c: Counter;\n"
                   "  method update() synchronized { this.c.inc(); }\n"
                   "  method set(x: Counter) synchronized { this.c = x; }\n"
                   "}\n"
                   "test seed {\n"
                   "  var p: Lib = new Lib;\n"
                   "  var r: Counter = new Counter;\n"
                   "  p.set(r);\n"
                   "  p.update();\n"
                   "}\n");
  ASSERT_TRUE(C.Info);
  const ClassInfo *Lib = C.Info->findClass("Lib");
  ASSERT_TRUE(Lib);
  EXPECT_TRUE(Lib->findMethod("update")->IsSynchronized);
  EXPECT_EQ(Lib->findField("c")->DeclaredType.className(), "Counter");
}

TEST(SemaTest, RegistersBuiltinIntArray) {
  auto C = checkOk("");
  const ClassInfo *Arr = C.Info->findClass(IntArrayClassName);
  ASSERT_TRUE(Arr);
  EXPECT_TRUE(Arr->IsBuiltin);
  EXPECT_TRUE(Arr->findMethod("get"));
  EXPECT_TRUE(Arr->findMethod("set"));
  EXPECT_TRUE(Arr->findMethod("length"));
}

TEST(SemaTest, IntArrayUsage) {
  checkOk("test t {\n"
          "  var a: IntArray = new IntArray(8);\n"
          "  a.set(0, 42);\n"
          "  var x: int = a.get(0);\n"
          "  var n: int = a.length();\n"
          "}\n");
}

TEST(SemaTest, FieldIndicesAreSequential) {
  auto C = checkOk("class A { field x: int; field y: bool; field z: A; }");
  const ClassInfo *A = C.Info->findClass("A");
  EXPECT_EQ(A->findField("x")->Index, 0u);
  EXPECT_EQ(A->findField("y")->Index, 1u);
  EXPECT_EQ(A->findField("z")->Index, 2u);
}

TEST(SemaTest, ForwardClassReferencesAllowed) {
  checkOk("class A { field b: B; }\n"
          "class B { field a: A; }\n");
}

TEST(SemaTest, ExpressionsGetTypesAnnotated) {
  auto C = checkOk("class A { field n: int;\n"
                   "  method m(): int { return this.n + 1; } }");
  const MethodDecl *M = C.Prog->findClass("A")->findMethod("m");
  const auto *Ret = cast<ReturnStmt>(M->Body->stmts()[0].get());
  EXPECT_TRUE(Ret->value()->type().isInt());
}

TEST(SemaTest, NullAssignableToClassTypes) {
  checkOk("class A { field next: A;\n"
          "  method clear() { this.next = null; } }");
}

TEST(SemaTest, NullComparableToObjects) {
  checkOk("class A { field next: A;\n"
          "  method empty(): bool { return this.next == null; } }");
}

TEST(SemaTest, RejectsDuplicateClass) {
  EXPECT_NE(checkFail("class A { } class A { }").find("duplicate class"),
            std::string::npos);
}

TEST(SemaTest, RejectsDuplicateField) {
  checkFail("class A { field x: int; field x: int; }");
}

TEST(SemaTest, RejectsDuplicateMethod) {
  checkFail("class A { method m() { } method m() { } }");
}

TEST(SemaTest, RejectsUnknownFieldType) {
  checkFail("class A { field x: Missing; }");
}

TEST(SemaTest, RejectsUnknownVariable) {
  EXPECT_NE(checkFail("test t { x.m(); }").find("undeclared"),
            std::string::npos);
}

TEST(SemaTest, RejectsUnknownMethod) {
  checkFail("class A { }\n"
            "test t { var a: A = new A; a.missing(); }");
}

TEST(SemaTest, RejectsUnknownField) {
  checkFail("class A { method m() { this.missing = 1; } }");
}

TEST(SemaTest, RejectsWrongArgumentCount) {
  checkFail("class A { method m(x: int) { } }\n"
            "test t { var a: A = new A; a.m(); }");
}

TEST(SemaTest, RejectsWrongArgumentType) {
  checkFail("class A { method m(x: int) { } }\n"
            "test t { var a: A = new A; a.m(true); }");
}

TEST(SemaTest, RejectsIntToObjectAssignment) {
  checkFail("class A { field x: A; method m() { this.x = 1; } }");
}

TEST(SemaTest, RejectsObjectArithmetic) {
  checkFail("class A { method m(a: A): int { return a + a; } }");
}

TEST(SemaTest, RejectsNonBoolCondition) {
  checkFail("class A { method m() { if (1) { } } }");
  checkFail("class A { method m() { while (1) { } } }");
}

TEST(SemaTest, RejectsSynchronizedOnPrimitive) {
  checkFail("class A { method m(x: int) { synchronized (x) { } } }");
}

TEST(SemaTest, RejectsThisInTest) {
  checkFail("test t { this.m(); }");
}

TEST(SemaTest, RejectsReturnInTest) {
  checkFail("test t { return; }");
}

TEST(SemaTest, RejectsSpawnInMethod) {
  checkFail("class A { method m() { spawn { } } }");
}

TEST(SemaTest, RejectsNestedSpawn) {
  checkFail("test t { spawn { spawn { } } }");
}

TEST(SemaTest, AllowsSequentialSpawns) {
  checkOk("class A { method m() { } }\n"
          "test t {\n"
          "  var a: A = new A;\n"
          "  spawn { a.m(); }\n"
          "  spawn { a.m(); }\n"
          "}\n");
}

TEST(SemaTest, RejectsMissingReturnValue) {
  checkFail("class A { method m(): int { return; } }");
}

TEST(SemaTest, RejectsReturnTypeMismatch) {
  checkFail("class A { method m(): int { return true; } }");
}

TEST(SemaTest, RejectsConstructorWithReturnType) {
  checkFail("class A { method init(): int { return 1; } }");
}

TEST(SemaTest, RejectsDirectConstructorCall) {
  checkFail("class A { method init() { } }\n"
            "test t { var a: A = new A; a.init(); }");
}

TEST(SemaTest, RejectsNewArgsWithoutConstructor) {
  checkFail("class A { }\n"
            "test t { var a: A = new A(1); }");
}

TEST(SemaTest, ConstructorArgumentChecking) {
  checkOk("class A { field n: int; method init(n: int) { this.n = n; } }\n"
          "test t { var a: A = new A(7); }");
  checkFail("class A { field n: int; method init(n: int) { this.n = n; } }\n"
            "test t { var a: A = new A(true); }");
}

TEST(SemaTest, RejectsRedeclarationInSameScope) {
  checkFail("test t { var x: int = 1; var x: int = 2; }");
}

TEST(SemaTest, AllowsShadowingInNestedBlock) {
  checkOk("class A { method m() {\n"
          "  var x: int = 1;\n"
          "  { var x: bool = true; }\n"
          "} }");
}

TEST(SemaTest, BlockLocalsEndWithTheirBlock) {
  // Once its block closes, a local's name is free to declare again and a
  // use of it is undeclared.
  checkOk("test t {\n"
          "  { var x: int = 1; }\n"
          "  var x: bool = true;\n"
          "}");
  EXPECT_EQ(checkFail("test t {\n"
                      "  if (true) { var y: int = 1; }\n"
                      "  var z: int = y;\n"
                      "}"),
            "use of undeclared variable 'y'");
}

TEST(SemaTest, RejectsDuplicateTest) {
  checkFail("test t { } test t { }");
}

TEST(SemaTest, RejectsDuplicateParameter) {
  checkFail("class A { method m(x: int, x: int) { } }");
}
