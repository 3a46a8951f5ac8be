//===- tests/frontend_test.cpp - Diagnostics, compileTestsInto ------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
// Pins the exact text and line:col of the lexer, parser and checker
// diagnostics that depend on how the lexer tracks positions and token
// text: positions after a multi-line block comment, lone '&' and '|',
// an over-large literal on a later line, identifiers longer than the
// small-string buffer, and input that ends before a ';' or '}'.
//
// Then holds compileTestsInto, which adds test texts to a library
// compiled once, to its contract: the IR it adds equals that of compiling
// the library and the text as one source (for every generation candidate
// of C2 and C5 at seed 1), and a text it rejects leaves the library as it
// was.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "gen/ApiModel.h"
#include "gen/GenEngine.h"
#include "gen/SeedGen.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "lang/ASTPrinter.h"
#include "lang/Lexer.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "runtime/Execution.h"
#include "staticrace/LocksetAnalysis.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

using namespace narada;

namespace {

/// The "line:col: message" of the first error parsing \p Source.
std::string parseError(std::string_view Source) {
  Result<std::unique_ptr<Program>> R = Parser::parse(Source);
  EXPECT_FALSE(R.hasValue()) << "expected a parse error";
  return R ? std::string() : R.error().str();
}

/// The "line:col: message" of the first error checking \p Source.
std::string checkError(std::string_view Source) {
  Result<std::unique_ptr<Program>> P = Parser::parse(Source);
  EXPECT_TRUE(P.hasValue()) << (P ? "" : P.error().str());
  if (!P)
    return {};
  Result<std::shared_ptr<ProgramInfo>> Info = analyze(**P);
  EXPECT_FALSE(Info.hasValue()) << "expected a check error";
  return Info ? std::string() : Info.error().str();
}

} // namespace

TEST(FrontEndDiagnosticsTest, UnexpectedCharacterAfterMultiLineComment) {
  EXPECT_EQ(parseError("class A {\n"
                       "  /* one\n"
                       "     two */ field x: int; #\n"
                       "}\n"),
            "3:27: unexpected character '#'");
  // A line comment ends at its newline; the column restarts there.
  EXPECT_EQ(parseError("// note\n\t@"), "2:2: unexpected character '@'");
}

TEST(FrontEndDiagnosticsTest, LoneAmpersandAndPipe) {
  EXPECT_EQ(parseError("test t {\n  var b: bool = true & false;\n}\n"),
            "2:22: unexpected character '&'");
  EXPECT_EQ(parseError("test t {\n  var b: bool = true | false;\n}\n"),
            "2:22: unexpected character '|'");
  EXPECT_EQ(parseError("a &"), "1:3: unexpected character '&'");
  EXPECT_EQ(parseError("a\n|"), "2:1: unexpected character '|'");
}

TEST(FrontEndDiagnosticsTest, OverLargeLiteralOnALaterLine) {
  EXPECT_EQ(parseError("test t {\n"
                       "  var x: int = 1;\n"
                       "  x = 99999999999999999999;\n"
                       "}\n"),
            "3:7: integer literal too large");
  // The lexer runs to the end before the parser starts, so a bad literal
  // wins over an earlier syntax error.
  EXPECT_EQ(parseError("test t { var }\n9223372036854775808"),
            "2:1: integer literal too large");
}

TEST(FrontEndDiagnosticsTest, IdentifiersLongerThanFifteenCharacters) {
  Lexer L("aVeryLongIdentifierName  x_0123456789abcdef");
  Result<std::vector<Token>> Tokens = L.lexAll();
  ASSERT_TRUE(Tokens.hasValue()) << Tokens.error().str();
  ASSERT_EQ(Tokens->size(), 3u);
  EXPECT_EQ((*Tokens)[0].Text, "aVeryLongIdentifierName");
  EXPECT_EQ((*Tokens)[1].Text, "x_0123456789abcdef");
  EXPECT_EQ((*Tokens)[1].Loc.str(), "1:26");

  EXPECT_EQ(checkError("test t {\n"
                       "  var x: int = aVeryLongUndeclaredName;\n"
                       "}\n"),
            "2:16: use of undeclared variable 'aVeryLongUndeclaredName'");
  EXPECT_EQ(checkError("class AVeryLongClassName {\n"
                       "  field aVeryLongFieldName: int;\n"
                       "}\n"
                       "test t {\n"
                       "  var a: AVeryLongClassName = new AVeryLongClassName;\n"
                       "  a.aVeryLongFieldNameTypo = 1;\n"
                       "}\n"),
            "6:4: class 'AVeryLongClassName' has no field "
            "'aVeryLongFieldNameTypo'");
}

TEST(FrontEndDiagnosticsTest, InputEndsBeforeSemicolonOrBrace) {
  EXPECT_EQ(parseError("test t {\n  var x: int = 1"),
            "2:17: expected ';' after variable declaration, found end of "
            "input");
  EXPECT_EQ(parseError("test t {\n  var x: int = 1;\n"),
            "3:1: unterminated block");
  EXPECT_EQ(parseError("class A {\n  field x: int;\n"),
            "3:1: expected 'field' or 'method' in class body");
  EXPECT_EQ(parseError("class A {\n  method m() {\n    this.m()\n  }\n}\n"),
            "4:3: expected ';' after expression, found '}'");
}

//===----------------------------------------------------------------------===//
// compileTestsInto
//===----------------------------------------------------------------------===//

namespace {

const char *Library = R"(class Cell {
  field value: int;
  method set(v: int) synchronized { this.value = v; }
  method get(): int { return this.value; }
}
)";

CompiledProgram compileOk(std::string_view Source) {
  Result<CompiledProgram> P = compileProgram(Source);
  EXPECT_TRUE(P.hasValue()) << (P ? "" : P.error().str());
  return P ? P.take() : CompiledProgram{};
}

/// The library's classes alone, printed as generation strips them.
std::string strippedLibrary(const CorpusEntry &Entry) {
  CompiledProgram P = compileOk(Entry.Source);
  std::string LibOnly;
  for (const auto &Class : P.Ast->Classes)
    LibOnly += printClass(*Class) + "\n";
  return LibOnly;
}

/// printFunction of every function in \p M, by name.
std::map<std::string, std::string> printedFunctions(const IRModule &M) {
  std::map<std::string, std::string> Out;
  for (const auto &F : M.functions())
    Out[F->name()] = printFunction(*F);
  return Out;
}

/// Adds \p Text to \p Lib through compileTestsInto and checks that every
/// function it adds, and every library method, prints as in a compile of
/// \p LibOnly and \p Text as one source.
void expectSameIRAsWholeSource(CompiledProgram &Lib,
                               const std::string &LibOnly,
                               const std::string &Text) {
  CompiledProgram Whole = compileOk(LibOnly + "\n" + Text);
  ASSERT_TRUE(Whole.Module) << Text;
  Status Added = compileTestsInto(Lib, Text);
  ASSERT_TRUE(Added.ok()) << Added.error().str() << "\n" << Text;
  std::map<std::string, std::string> Incremental =
      printedFunctions(*Lib.Module);
  for (const auto &F : Whole.Module->functions()) {
    auto It = Incremental.find(F->name());
    ASSERT_NE(It, Incremental.end()) << F->name() << " missing\n" << Text;
    EXPECT_EQ(It->second, printFunction(*F)) << Text;
  }
}

} // namespace

TEST(CompileTestsIntoTest, AddsTestsThatRun) {
  CompiledProgram Lib = compileOk(Library);
  Status Added = compileTestsInto(Lib, "test a {\n"
                                       "  var c: Cell = new Cell;\n"
                                       "  spawn { c.set(1); }\n"
                                       "  spawn { c.set(2); }\n"
                                       "}\n"
                                       "test b { var c: Cell = new Cell; "
                                       "c.set(c.get() + 1); }\n");
  ASSERT_TRUE(Added.ok()) << Added.error().str();
  EXPECT_TRUE(verifyModule(*Lib.Module).ok());
  Result<TestRun> Run = runTestSequential(*Lib.Module, "b");
  ASSERT_TRUE(Run.hasValue()) << Run.error().str();
  EXPECT_FALSE(Run->Result.Faulted);

  // A second text sees the first text's tests as taken names.
  Status Again = compileTestsInto(Lib, "test b { }");
  ASSERT_FALSE(Again.ok());
  EXPECT_EQ(Again.error().str(), "1:1: duplicate test 'b'");
}

TEST(CompileTestsIntoTest, RejectedTextLeavesTheLibraryUnchanged) {
  CompiledProgram Lib = compileOk(Library);
  ASSERT_TRUE(compileTestsInto(Lib, "test first { }").ok());
  const std::string Before = printModule(*Lib.Module);
  const size_t Functions = Lib.Module->functions().size();

  struct Case {
    const char *Text;
    const char *Error;
  };
  const Case Cases[] = {
      // A sema error in the second test: the first is not added either.
      {"test ok { var c: Cell = new Cell; }\n"
       "test bad { var c: Cell = new Cell; c.clear(); }\n",
       "2:37: class 'Cell' has no method 'clear'"},
      {"test bad { var x: int = true; }",
       "1:12: cannot initialize 'x' of type int with a value of type bool"},
      {"test bad { var c: Cell = new Cell; c.set(1) }",
       "1:45: expected ';' after expression, found '}'"},
      {"test bad { }\ntest bad { }", "2:1: duplicate test 'bad'"},
      {"test first { }", "1:1: duplicate test 'first'"},
      {"class Extra { }\ntest bad { }",
       "1:1: expected only tests, found a class"},
  };
  for (const Case &C : Cases) {
    Status Added = compileTestsInto(Lib, C.Text);
    ASSERT_FALSE(Added.ok()) << C.Text;
    EXPECT_EQ(Added.error().str(), C.Error);
    EXPECT_EQ(Lib.Module->functions().size(), Functions) << C.Text;
    EXPECT_EQ(printModule(*Lib.Module), Before) << C.Text;
    EXPECT_EQ(Lib.Module->findTest("ok"), nullptr) << C.Text;
  }
}

TEST(CompileTestsIntoTest, GenCandidatesLowerLikeAWholeSourceCompile) {
  // Every coordinate of the default budget (2 rounds x 16) regenerated
  // without steering weights, which change only the methods a chain
  // picks, plus the seeds a seed-1 generation keeps, which carry the
  // steered round-1 texts.
  for (const char *Id : {"C2", "C5"}) {
    SCOPED_TRACE(Id);
    const CorpusEntry &Entry = *findCorpusEntry(Id);
    const std::string LibOnly = strippedLibrary(Entry);
    CompiledProgram Lib = compileOk(LibOnly);
    ASSERT_TRUE(Lib.Module);
    staticrace::ModuleSummary Summary =
        staticrace::summarizeModule(*Lib.Module);
    gen::ApiModel Model = gen::extractApiModel(*Lib.Info, &Summary);
    const gen::GenOptions Defaults;
    for (unsigned Round = 0; Round < Defaults.Rounds; ++Round)
      for (unsigned I = 0; I < Defaults.Budget; ++I) {
        std::string Name =
            "gen_r" + std::to_string(Round) + "_c" + std::to_string(I);
        RNG R(gen::candidateSeed(1, Round, I));
        std::string Text =
            I < 2 ? gen::generateSweepSeedTest(Model, Entry.ClassName, Name, R)
                  : gen::generateSeedTest(Model, Entry.ClassName, {}, Name,
                                          R);
        expectSameIRAsWholeSource(Lib, LibOnly, Text);
      }

    gen::GenOptions Options;
    Options.FocusClass = Entry.ClassName;
    Options.Seed = 1;
    Result<gen::GenResult> Gen = gen::generateSeedCorpus(Entry.Source, Options);
    ASSERT_TRUE(Gen.hasValue()) << Gen.error().str();
    ASSERT_FALSE(Gen->Seeds.empty());
    CompiledProgram Kept = compileOk(LibOnly);
    for (const gen::GenSeed &Seed : Gen->Seeds)
      expectSameIRAsWholeSource(Kept, LibOnly, Seed.Source);
  }
}
