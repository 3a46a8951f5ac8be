//===- tests/parser_test.cpp - MiniJava parser unit tests --------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "lang/ASTClone.h"
#include "lang/ASTPrinter.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

using namespace narada;

namespace {

std::unique_ptr<Program> parseOk(std::string_view Source) {
  Result<std::unique_ptr<Program>> R = Parser::parse(Source);
  EXPECT_TRUE(R.hasValue()) << (R ? "" : R.error().str());
  return R ? R.take() : nullptr;
}

std::string parseFail(std::string_view Source) {
  Result<std::unique_ptr<Program>> R = Parser::parse(Source);
  EXPECT_FALSE(R.hasValue()) << "expected a parse error";
  return R ? "" : R.error().str();
}

} // namespace

TEST(ParserTest, EmptyProgram) {
  auto Prog = parseOk("");
  ASSERT_TRUE(Prog);
  EXPECT_TRUE(Prog->Classes.empty());
  EXPECT_TRUE(Prog->Tests.empty());
}

TEST(ParserTest, ClassWithFieldsAndMethods) {
  auto Prog = parseOk("class Counter {\n"
                      "  field count: int;\n"
                      "  method inc() { this.count = this.count + 1; }\n"
                      "  method get(): int { return this.count; }\n"
                      "}\n");
  ASSERT_TRUE(Prog);
  ASSERT_EQ(Prog->Classes.size(), 1u);
  const ClassDecl *C = Prog->findClass("Counter");
  ASSERT_TRUE(C);
  ASSERT_EQ(C->Fields.size(), 1u);
  EXPECT_EQ(C->Fields[0].Name, "count");
  EXPECT_TRUE(C->Fields[0].DeclaredType.isInt());
  ASSERT_EQ(C->Methods.size(), 2u);
  EXPECT_EQ(C->Methods[0]->Name, "inc");
  EXPECT_TRUE(C->Methods[1]->ReturnType.isInt());
}

TEST(ParserTest, SynchronizedMethodFlag) {
  auto Prog = parseOk("class Lib {\n"
                      "  field c: Counter;\n"
                      "  method update() synchronized { }\n"
                      "  method plain() { }\n"
                      "}\n"
                      "class Counter { }\n");
  const ClassDecl *Lib = Prog->findClass("Lib");
  ASSERT_TRUE(Lib);
  EXPECT_TRUE(Lib->findMethod("update")->IsSynchronized);
  EXPECT_FALSE(Lib->findMethod("plain")->IsSynchronized);
}

TEST(ParserTest, MethodParameters) {
  auto Prog = parseOk("class A {\n"
                      "  method set(x: Counter, n: int, flag: bool) { }\n"
                      "}\n");
  const MethodDecl *M = Prog->findClass("A")->findMethod("set");
  ASSERT_TRUE(M);
  ASSERT_EQ(M->Params.size(), 3u);
  EXPECT_EQ(M->Params[0].Name, "x");
  EXPECT_EQ(M->Params[0].DeclaredType.className(), "Counter");
  EXPECT_TRUE(M->Params[1].DeclaredType.isInt());
  EXPECT_TRUE(M->Params[2].DeclaredType.isBool());
}

TEST(ParserTest, TestWithVarDeclsAndCalls) {
  auto Prog = parseOk("test seed {\n"
                      "  var p: Lib = new Lib;\n"
                      "  var r: Counter = new Counter;\n"
                      "  p.set(r);\n"
                      "  p.update();\n"
                      "}\n");
  const TestDecl *T = Prog->findTest("seed");
  ASSERT_TRUE(T);
  EXPECT_EQ(T->Body->stmts().size(), 4u);
  EXPECT_EQ(T->Body->stmts()[0]->kind(), Stmt::Kind::VarDecl);
  EXPECT_EQ(T->Body->stmts()[2]->kind(), Stmt::Kind::ExprStmt);
}

TEST(ParserTest, NewWithConstructorArgs) {
  auto Prog = parseOk("test t { var a: IntArray = new IntArray(16); }");
  const auto *Decl =
      cast<VarDeclStmt>(Prog->findTest("t")->Body->stmts()[0].get());
  const auto *New = cast<NewExpr>(Decl->init());
  EXPECT_EQ(New->className(), "IntArray");
  ASSERT_EQ(New->args().size(), 1u);
  EXPECT_EQ(cast<IntLitExpr>(New->args()[0].get())->value(), 16);
}

TEST(ParserTest, SynchronizedBlockStatement) {
  auto Prog = parseOk("class A {\n"
                      "  field x: A;\n"
                      "  method m() { synchronized (this.x) { this.x = this; } }\n"
                      "}\n");
  const MethodDecl *M = Prog->findClass("A")->findMethod("m");
  const Stmt *S = M->Body->stmts()[0].get();
  ASSERT_EQ(S->kind(), Stmt::Kind::Sync);
  const auto *Sync = cast<SyncStmt>(S);
  EXPECT_EQ(Sync->lockExpr()->kind(), Expr::Kind::FieldAccess);
}

TEST(ParserTest, SpawnStatement) {
  auto Prog = parseOk("test racy {\n"
                      "  var p: Lib = new Lib;\n"
                      "  spawn { p.update(); }\n"
                      "  spawn { p.update(); }\n"
                      "}\n");
  const TestDecl *T = Prog->findTest("racy");
  EXPECT_EQ(T->Body->stmts()[1]->kind(), Stmt::Kind::Spawn);
  EXPECT_EQ(T->Body->stmts()[2]->kind(), Stmt::Kind::Spawn);
}

TEST(ParserTest, PrecedenceMulBeforeAdd) {
  auto Prog = parseOk("test t { var x: int = 1 + 2 * 3; }");
  const auto *Decl =
      cast<VarDeclStmt>(Prog->findTest("t")->Body->stmts()[0].get());
  const auto *Add = cast<BinaryExpr>(Decl->init());
  EXPECT_EQ(Add->op(), BinaryOp::Add);
  const auto *Mul = cast<BinaryExpr>(Add->rhs());
  EXPECT_EQ(Mul->op(), BinaryOp::Mul);
}

TEST(ParserTest, PrecedenceComparisonBeforeAnd) {
  auto Prog = parseOk("test t { var b: bool = 1 < 2 && 3 < 4; }");
  const auto *Decl =
      cast<VarDeclStmt>(Prog->findTest("t")->Body->stmts()[0].get());
  const auto *And = cast<BinaryExpr>(Decl->init());
  EXPECT_EQ(And->op(), BinaryOp::And);
  EXPECT_EQ(cast<BinaryExpr>(And->lhs())->op(), BinaryOp::Lt);
  EXPECT_EQ(cast<BinaryExpr>(And->rhs())->op(), BinaryOp::Lt);
}

TEST(ParserTest, LeftAssociativeSubtraction) {
  auto Prog = parseOk("test t { var x: int = 10 - 3 - 2; }");
  const auto *Decl =
      cast<VarDeclStmt>(Prog->findTest("t")->Body->stmts()[0].get());
  const auto *Outer = cast<BinaryExpr>(Decl->init());
  // (10 - 3) - 2
  const auto *Inner = cast<BinaryExpr>(Outer->lhs());
  EXPECT_EQ(cast<IntLitExpr>(Inner->lhs())->value(), 10);
  EXPECT_EQ(cast<IntLitExpr>(Outer->rhs())->value(), 2);
}

TEST(ParserTest, ChainedFieldAccessAndCalls) {
  auto Prog = parseOk("class Q { method f() { this.a.b.m().c = null; } }");
  // Just checking the shape parses; Sema would reject unknown members.
  const MethodDecl *M = Prog->findClass("Q")->findMethod("f");
  const auto *Assign = cast<AssignStmt>(M->Body->stmts()[0].get());
  const auto *Target = cast<FieldAccessExpr>(Assign->target());
  EXPECT_EQ(Target->field(), "c");
  EXPECT_EQ(Target->base()->kind(), Expr::Kind::Call);
}

TEST(ParserTest, IfElseChain) {
  auto Prog = parseOk("class A { method m(x: int): int {\n"
                      "  if (x < 0) { return 0 - 1; }\n"
                      "  else if (x == 0) { return 0; }\n"
                      "  else { return 1; }\n"
                      "} }");
  const MethodDecl *M = Prog->findClass("A")->findMethod("m");
  const auto *If = cast<IfStmt>(M->Body->stmts()[0].get());
  ASSERT_TRUE(If->elseBranch());
  EXPECT_EQ(If->elseBranch()->kind(), Stmt::Kind::If);
}

TEST(ParserTest, WhileLoop) {
  auto Prog = parseOk("class A { method m(n: int) {\n"
                      "  var i: int = 0;\n"
                      "  while (i < n) { i = i + 1; }\n"
                      "} }");
  const MethodDecl *M = Prog->findClass("A")->findMethod("m");
  EXPECT_EQ(M->Body->stmts()[1]->kind(), Stmt::Kind::While);
}

TEST(ParserTest, RandExpression) {
  auto Prog = parseOk("class A { field x: int;\n"
                      "  method m() { this.x = rand(); } }");
  const auto *Assign = cast<AssignStmt>(
      Prog->findClass("A")->findMethod("m")->Body->stmts()[0].get());
  EXPECT_EQ(Assign->value()->kind(), Expr::Kind::Rand);
}

TEST(ParserTest, ErrorOnMissingSemicolon) {
  std::string Message = parseFail("test t { var x: int = 1 }");
  EXPECT_NE(Message.find("expected"), std::string::npos);
}

TEST(ParserTest, ErrorOnAssignToCall) {
  parseFail("test t { a.m() = 1; }");
}

TEST(ParserTest, ErrorOnTopLevelStatement) {
  parseFail("var x: int = 1;");
}

TEST(ParserTest, ErrorOnUnterminatedBlock) {
  parseFail("test t { var x: int = 1;");
}

TEST(ParserTest, PrinterRoundTrip) {
  const char *Source = "class Lib {\n"
                       "  field c: Counter;\n"
                       "  method update() synchronized\n"
                       "  {\n"
                       "    this.c.inc();\n"
                       "  }\n"
                       "}\n";
  auto Prog = parseOk(Source);
  std::string Printed = printProgram(*Prog);
  // Re-parse the printed output; it must produce the same structure.
  auto Reparsed = parseOk(Printed);
  ASSERT_TRUE(Reparsed);
  EXPECT_EQ(printProgram(*Reparsed), Printed);
}

TEST(ParserTest, PrinterRoundTripControlFlow) {
  const char *Source = "class A {\n"
                       "  field x: int;\n"
                       "  method m(n: int): int\n"
                       "  {\n"
                       "    var i: int = 0;\n"
                       "    while ((i < n))\n"
                       "    {\n"
                       "      if ((i % 2 == 0))\n"
                       "      {\n"
                       "        this.x = this.x + i;\n"
                       "      }\n"
                       "      i = i + 1;\n"
                       "    }\n"
                       "    return this.x;\n"
                       "  }\n"
                       "}\n";
  auto Prog = parseOk(Source);
  std::string Printed = printProgram(*Prog);
  auto Reparsed = parseOk(Printed);
  ASSERT_TRUE(Reparsed);
  EXPECT_EQ(printProgram(*Reparsed), Printed);
}

TEST(ASTCloneTest, CloneWithoutRenamesIsIdentical) {
  auto Prog = parseOk("test t {\n"
                      "  var p: Lib = new Lib;\n"
                      "  p.set(new Counter);\n"
                      "  spawn { p.update(); }\n"
                      "}\n");
  const TestDecl *T = Prog->findTest("t");
  StmtPtr Clone = cloneStmt(T->Body.get());
  EXPECT_EQ(printStmt(Clone.get()), printStmt(T->Body.get()));
}

TEST(ASTCloneTest, CloneRenamesVariables) {
  auto Prog = parseOk("test t {\n"
                      "  var p: Lib = new Lib;\n"
                      "  p.update();\n"
                      "}\n");
  const TestDecl *T = Prog->findTest("t");
  RenameMap Renames{{"p", "p_1"}};
  StmtPtr Clone = cloneStmt(T->Body.get(), Renames);
  std::string Printed = printStmt(Clone.get());
  EXPECT_NE(Printed.find("var p_1: Lib"), std::string::npos);
  EXPECT_NE(Printed.find("p_1.update()"), std::string::npos);
  EXPECT_EQ(Printed.find("p.update()"), std::string::npos);
}

TEST(ASTCloneTest, CloneDoesNotRenameFields) {
  auto Prog = parseOk("class A { field p: A;\n"
                      "  method m(p: A) { this.p = p; } }");
  const MethodDecl *M = Prog->findClass("A")->findMethod("m");
  RenameMap Renames{{"p", "q"}};
  StmtPtr Clone = cloneStmt(M->Body.get(), Renames);
  std::string Printed = printStmt(Clone.get());
  // The field access 'this.p' keeps its name; the parameter reference is
  // renamed.
  EXPECT_NE(Printed.find("this.p = q"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Nesting bound: every shape refused one level past MaxNestingDepth, and
// parsed clean at it.
//===----------------------------------------------------------------------===//

namespace {

std::string repeat(std::string_view Piece, unsigned Times) {
  std::string Out;
  for (unsigned I = 0; I < Times; ++I)
    Out += Piece;
  return Out;
}

/// A test whose one declaration (level 1) initializes to \p Expr, whose
/// root therefore sits at level 2: \p Expr may be MaxNestingDepth - 1
/// levels tall.
std::string inInitializer(const std::string &Expr) {
  return "test t { var x: int = " + Expr + "; }\n";
}

constexpr unsigned ExprBound = Parser::MaxNestingDepth - 1;

std::string nestedParens(unsigned Levels) {
  return repeat("(", Levels - 1) + "1" + repeat(")", Levels - 1);
}

std::string operatorChain(unsigned Levels) {
  return "1" + repeat(" + 1", Levels - 1);
}

std::string unaryChain(unsigned Levels) {
  return repeat("-", Levels - 1) + "1";
}

std::string nestedBlocks(unsigned Levels) {
  return "test t { " + repeat("{ ", Levels) + repeat("} ", Levels) + "}\n";
}

void expectTooDeep(const std::string &Source) {
  EXPECT_NE(parseFail(Source).find("nesting deeper than 256 levels"),
            std::string::npos);
}

} // namespace

TEST(ParserTest, NestedParenthesesAreBounded) {
  EXPECT_TRUE(parseOk(inInitializer(nestedParens(ExprBound))));
  expectTooDeep(inInitializer(nestedParens(ExprBound + 1)));
}

TEST(ParserTest, OperatorChainIsBoundedLikeNesting) {
  // Built in a loop, but `1 + 1 + ... + 1` is a tree as deep as it is
  // long, and every walk over it recurses that deep.
  std::unique_ptr<Program> Prog =
      parseOk(inInitializer(operatorChain(ExprBound)));
  ASSERT_TRUE(Prog);
  expectTooDeep(inInitializer(operatorChain(ExprBound + 1)));
  // Tighter-binding runs inside the chain count too.
  expectTooDeep(inInitializer("1 + " + repeat("1 * ", ExprBound) + "1"));
}

TEST(ParserTest, UnaryChainIsBounded) {
  EXPECT_TRUE(parseOk(inInitializer(unaryChain(ExprBound))));
  expectTooDeep(inInitializer(unaryChain(ExprBound + 1)));
}

TEST(ParserTest, NestedBlocksAreBounded) {
  EXPECT_TRUE(parseOk(nestedBlocks(Parser::MaxNestingDepth)));
  expectTooDeep(nestedBlocks(Parser::MaxNestingDepth + 1));
}

TEST(ParserTest, MemberChainAndElseIfChainAreBounded) {
  // `a.a.a...` and `if .. else if .. else if ..` are built link by link.
  const std::string Class = "class A { field a: A; }\n";
  EXPECT_TRUE(parseOk(
      Class + inInitializer("new A" + repeat(".a", ExprBound - 1))));
  expectTooDeep(Class + inInitializer("new A" + repeat(".a", ExprBound)));
  auto ElseIfs = [](unsigned Links) {
    return "test t { if (true) { }" + repeat(" else if (true) { }", Links) +
           " }\n";
  };
  EXPECT_TRUE(parseOk(ElseIfs(Parser::MaxNestingDepth - 2)));
  expectTooDeep(ElseIfs(Parser::MaxNestingDepth - 1));
}

TEST(ParserTest, ShapesAtTheBoundPrintAndClone) {
  for (const std::string &Source :
       {inInitializer(nestedParens(ExprBound)),
        inInitializer(operatorChain(ExprBound)),
        inInitializer(unaryChain(ExprBound)),
        nestedBlocks(Parser::MaxNestingDepth)}) {
    std::unique_ptr<Program> Prog = parseOk(Source);
    ASSERT_TRUE(Prog);
    std::string Printed = printProgram(*Prog);
    std::unique_ptr<Program> Reparsed = parseOk(Printed);
    ASSERT_TRUE(Reparsed);
    EXPECT_EQ(printProgram(*Reparsed), Printed);
    EXPECT_TRUE(cloneStmt(Prog->Tests[0]->Body.get()));
  }
}
