//===- lang/Parser.h - MiniJava parser --------------------------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for MiniJava.  Grammar sketch:
///
/// \code
///   program   := (classDecl | testDecl)*
///   classDecl := 'class' ID '{' (fieldDecl | methodDecl)* '}'
///   fieldDecl := 'field' ID ':' type ';'
///   methodDecl:= 'method' ID '(' params? ')' (':' type)? 'synchronized'?
///                block
///   testDecl  := 'test' ID block
///   stmt      := varDecl | assign | exprStmt | if | while | return
///              | synchronized | spawn | block
///   expr      := precedence-climbing over || && == != < <= > >= + - * / %
///                with unary ! - and postfix '.field' / '.m(args)'
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_LANG_PARSER_H
#define NARADA_LANG_PARSER_H

#include "lang/AST.h"
#include "lang/Token.h"
#include "support/Error.h"

#include <memory>
#include <vector>

namespace narada {

/// Parses a token stream into a Program.  The tokens view the lexed
/// buffer, which must outlive the parser.
class Parser {
public:
  explicit Parser(std::vector<Token> Tokens) : Tokens(std::move(Tokens)) {
    assert(!this->Tokens.empty() && this->Tokens.back().is(TokenKind::Eof) &&
           "a token stream ends with Eof");
  }

  /// Parses a whole compilation unit.
  Result<std::unique_ptr<Program>> parseProgram();

  /// Convenience: lex + parse a source buffer in one step.
  static Result<std::unique_ptr<Program>> parse(std::string_view Source);

  /// The deepest nesting the parser accepts inside a method or test body;
  /// deeper input is a parse error.  In the tree it builds, each statement,
  /// operand and else-if is one level, and so is each link of an operator
  /// or member chain: `1 + 1 + ... + 1` is as deep as it is long.  That
  /// bounds every recursive walk over the tree (Sema, lowering, the
  /// printer, clone, the AST destructor).  Parentheses build no node, but
  /// each pair is one level of the parser's own recursion, which the same
  /// bound holds.
  static constexpr unsigned MaxNestingDepth = 256;

private:
  class Nested;
  Result<std::unique_ptr<ClassDecl>> parseClass();
  Result<std::unique_ptr<TestDecl>> parseTest();
  Result<FieldDecl> parseField();
  Result<std::unique_ptr<MethodDecl>> parseMethod();
  Result<Type> parseType();
  Result<std::unique_ptr<BlockStmt>> parseBlock();
  Result<StmtPtr> parseStmt();
  Result<StmtPtr> parseVarDecl();
  Result<StmtPtr> parseIf();
  Result<StmtPtr> parseWhile();
  Result<StmtPtr> parseReturn();
  Result<StmtPtr> parseSynchronized();
  Result<StmtPtr> parseSpawn();
  Result<StmtPtr> parseExprOrAssign();

  Result<ExprPtr> parseExpr();
  /// parseExpr() less its depth check, for a parenthesized expression,
  /// which its enclosing expression checks.
  Result<ExprPtr> parseOperators();
  Result<ExprPtr> parseBinaryRHS(int MinPrec, ExprPtr LHS, unsigned LHSHeight);
  Result<ExprPtr> parseUnary();
  Result<ExprPtr> parsePostfix();
  Result<ExprPtr> parsePrimary();
  Result<std::vector<ExprPtr>> parseArgs();

  const Token &peek() const { return Tokens[Pos]; }
  const Token &advance();
  bool check(TokenKind Kind) const { return peek().is(Kind); }
  bool match(TokenKind Kind);
  /// Consumes and returns the next token if it is a \p Kind; the pointer
  /// stays valid as long as the parser.
  Result<const Token *> expect(TokenKind Kind, const char *Context);
  Error errorHere(const std::string &Message) const;
  /// The error for input nested past MaxNestingDepth.
  Error tooDeep() const;

  /// Ends with an Eof token, which advance() never moves past.
  std::vector<Token> Tokens;
  size_t Pos = 0;
  /// Levels open around the statement or operand being parsed.
  unsigned Depth = 0;
  /// Levels of the expression the last expression parser returned, its
  /// root included: its deepest node sits Height - 1 levels below it.
  unsigned Height = 0;
};

} // namespace narada

#endif // NARADA_LANG_PARSER_H
