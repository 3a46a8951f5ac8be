//===- lang/Parser.cpp - MiniJava parser -----------------------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"

#include "lang/Lexer.h"

#include <algorithm>

using namespace narada;

/// Opens one nesting level for its lifetime.
class Parser::Nested {
public:
  explicit Nested(Parser &P) : P(P) { ++P.Depth; }
  ~Nested() { --P.Depth; }
  Nested(const Nested &) = delete;
  Nested &operator=(const Nested &) = delete;

  bool exceeded() const { return P.Depth > MaxNestingDepth; }

private:
  Parser &P;
};

const char *narada::binaryOpSpelling(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
    return "+";
  case BinaryOp::Sub:
    return "-";
  case BinaryOp::Mul:
    return "*";
  case BinaryOp::Div:
    return "/";
  case BinaryOp::Rem:
    return "%";
  case BinaryOp::Eq:
    return "==";
  case BinaryOp::Ne:
    return "!=";
  case BinaryOp::Lt:
    return "<";
  case BinaryOp::Le:
    return "<=";
  case BinaryOp::Gt:
    return ">";
  case BinaryOp::Ge:
    return ">=";
  case BinaryOp::And:
    return "&&";
  case BinaryOp::Or:
    return "||";
  }
  narada_unreachable("unknown binary op");
}

const char *narada::unaryOpSpelling(UnaryOp Op) {
  switch (Op) {
  case UnaryOp::Neg:
    return "-";
  case UnaryOp::Not:
    return "!";
  }
  narada_unreachable("unknown unary op");
}

const Token &Parser::advance() {
  const Token &T = Tokens[Pos];
  if (Pos + 1 < Tokens.size())
    ++Pos;
  return T;
}

bool Parser::match(TokenKind Kind) {
  if (!check(Kind))
    return false;
  advance();
  return true;
}

Result<const Token *> Parser::expect(TokenKind Kind, const char *Context) {
  if (check(Kind))
    return &advance();
  return errorHere(formatString("expected %s %s, found %s",
                                tokenKindName(Kind), Context,
                                tokenKindName(peek().Kind)));
}

Error Parser::errorHere(const std::string &Message) const {
  return Error(Message, peek().Loc.str());
}

Error Parser::tooDeep() const {
  return errorHere(
      formatString("nesting deeper than %u levels", MaxNestingDepth));
}

Result<std::unique_ptr<Program>>
Parser::parse(std::string_view Source) {
  Lexer Lex(Source);
  Result<std::vector<Token>> Tokens = Lex.lexAll();
  if (!Tokens)
    return Tokens.error();
  Parser P(Tokens.take());
  return P.parseProgram();
}

Result<std::unique_ptr<Program>> Parser::parseProgram() {
  auto Prog = std::make_unique<Program>();
  while (!check(TokenKind::Eof)) {
    if (check(TokenKind::KwClass)) {
      Result<std::unique_ptr<ClassDecl>> C = parseClass();
      if (!C)
        return C.error();
      Prog->Classes.push_back(C.take());
      continue;
    }
    if (check(TokenKind::KwTest)) {
      Result<std::unique_ptr<TestDecl>> T = parseTest();
      if (!T)
        return T.error();
      Prog->Tests.push_back(T.take());
      continue;
    }
    return errorHere(formatString("expected 'class' or 'test', found %s",
                                  tokenKindName(peek().Kind)));
  }
  return Prog;
}

Result<std::unique_ptr<ClassDecl>> Parser::parseClass() {
  const Token &ClassTok = advance(); // 'class'
  Result<const Token *> Name =
      expect(TokenKind::Identifier, "after 'class'");
  if (!Name)
    return Name.error();
  if (auto R = expect(TokenKind::LBrace, "to open class body"); !R)
    return R.error();

  auto Class = std::make_unique<ClassDecl>();
  Class->Name = (*Name)->Text;
  Class->Loc = ClassTok.Loc;

  while (!check(TokenKind::RBrace)) {
    if (check(TokenKind::KwField)) {
      Result<FieldDecl> F = parseField();
      if (!F)
        return F.error();
      Class->Fields.push_back(F.take());
      continue;
    }
    if (check(TokenKind::KwMethod)) {
      Result<std::unique_ptr<MethodDecl>> M = parseMethod();
      if (!M)
        return M.error();
      Class->Methods.push_back(M.take());
      continue;
    }
    return errorHere("expected 'field' or 'method' in class body");
  }
  advance(); // '}'
  return Class;
}

Result<FieldDecl> Parser::parseField() {
  const Token &FieldTok = advance(); // 'field'
  Result<const Token *> Name =
      expect(TokenKind::Identifier, "after 'field'");
  if (!Name)
    return Name.error();
  if (auto R = expect(TokenKind::Colon, "after field name"); !R)
    return R.error();
  Result<Type> Ty = parseType();
  if (!Ty)
    return Ty.error();
  if (auto R = expect(TokenKind::Semicolon, "after field declaration"); !R)
    return R.error();
  FieldDecl F;
  F.Name = (*Name)->Text;
  F.DeclaredType = Ty.take();
  F.Loc = FieldTok.Loc;
  return F;
}

Result<std::unique_ptr<MethodDecl>> Parser::parseMethod() {
  const Token &MethodTok = advance(); // 'method'
  Result<const Token *> Name =
      expect(TokenKind::Identifier, "after 'method'");
  if (!Name)
    return Name.error();
  if (auto R = expect(TokenKind::LParen, "to open parameter list"); !R)
    return R.error();

  auto Method = std::make_unique<MethodDecl>();
  Method->Name = (*Name)->Text;
  Method->Loc = MethodTok.Loc;

  if (!check(TokenKind::RParen)) {
    while (true) {
      Result<const Token *> ParamName =
          expect(TokenKind::Identifier, "as parameter name");
      if (!ParamName)
        return ParamName.error();
      if (auto R = expect(TokenKind::Colon, "after parameter name"); !R)
        return R.error();
      Result<Type> Ty = parseType();
      if (!Ty)
        return Ty.error();
      Method->Params.push_back(
          ParamDecl{std::string((*ParamName)->Text), Ty.take(),
                    (*ParamName)->Loc});
      if (!match(TokenKind::Comma))
        break;
    }
  }
  if (auto R = expect(TokenKind::RParen, "to close parameter list"); !R)
    return R.error();

  if (match(TokenKind::Colon)) {
    Result<Type> Ty = parseType();
    if (!Ty)
      return Ty.error();
    Method->ReturnType = Ty.take();
  }
  Method->IsSynchronized = match(TokenKind::KwSynchronized);

  Result<std::unique_ptr<BlockStmt>> Body = parseBlock();
  if (!Body)
    return Body.error();
  Method->Body = Body.take();
  return Method;
}

Result<std::unique_ptr<TestDecl>> Parser::parseTest() {
  const Token &TestTok = advance(); // 'test'
  Result<const Token *> Name =
      expect(TokenKind::Identifier, "after 'test'");
  if (!Name)
    return Name.error();
  Result<std::unique_ptr<BlockStmt>> Body = parseBlock();
  if (!Body)
    return Body.error();
  auto Test = std::make_unique<TestDecl>();
  Test->Name = (*Name)->Text;
  Test->Body = Body.take();
  Test->Loc = TestTok.Loc;
  return Test;
}

Result<Type> Parser::parseType() {
  if (match(TokenKind::KwInt))
    return Type::intTy();
  if (match(TokenKind::KwBool))
    return Type::boolTy();
  if (check(TokenKind::Identifier))
    return Type::classTy(std::string(advance().Text));
  return errorHere(formatString("expected a type, found %s",
                                tokenKindName(peek().Kind)));
}

Result<std::unique_ptr<BlockStmt>> Parser::parseBlock() {
  Result<const Token *> Open = expect(TokenKind::LBrace, "to open block");
  if (!Open)
    return Open.error();
  std::vector<StmtPtr> Stmts;
  while (!check(TokenKind::RBrace)) {
    if (check(TokenKind::Eof))
      return errorHere("unterminated block");
    Result<StmtPtr> S = parseStmt();
    if (!S)
      return S.error();
    Stmts.push_back(S.take());
  }
  advance(); // '}'
  return std::make_unique<BlockStmt>(std::move(Stmts), (*Open)->Loc);
}

Result<StmtPtr> Parser::parseStmt() {
  Nested Level(*this);
  if (Level.exceeded())
    return tooDeep();
  switch (peek().Kind) {
  case TokenKind::KwVar:
    return parseVarDecl();
  case TokenKind::KwIf:
    return parseIf();
  case TokenKind::KwWhile:
    return parseWhile();
  case TokenKind::KwReturn:
    return parseReturn();
  case TokenKind::KwSynchronized:
    return parseSynchronized();
  case TokenKind::KwSpawn:
    return parseSpawn();
  case TokenKind::LBrace: {
    Result<std::unique_ptr<BlockStmt>> B = parseBlock();
    if (!B)
      return B.error();
    return StmtPtr(B.take());
  }
  default:
    return parseExprOrAssign();
  }
}

Result<StmtPtr> Parser::parseVarDecl() {
  const Token &VarTok = advance(); // 'var'
  Result<const Token *> Name =
      expect(TokenKind::Identifier, "after 'var'");
  if (!Name)
    return Name.error();
  if (auto R = expect(TokenKind::Colon, "after variable name"); !R)
    return R.error();
  Result<Type> Ty = parseType();
  if (!Ty)
    return Ty.error();
  ExprPtr Init;
  if (match(TokenKind::Assign)) {
    Result<ExprPtr> E = parseExpr();
    if (!E)
      return E.error();
    Init = E.take();
  }
  if (auto R = expect(TokenKind::Semicolon, "after variable declaration"); !R)
    return R.error();
  return StmtPtr(std::make_unique<VarDeclStmt>(std::string((*Name)->Text),
                                               Ty.take(), std::move(Init),
                                               VarTok.Loc));
}

Result<StmtPtr> Parser::parseIf() {
  const Token &IfTok = advance(); // 'if'
  if (auto R = expect(TokenKind::LParen, "after 'if'"); !R)
    return R.error();
  Result<ExprPtr> Cond = parseExpr();
  if (!Cond)
    return Cond.error();
  if (auto R = expect(TokenKind::RParen, "to close condition"); !R)
    return R.error();
  Result<std::unique_ptr<BlockStmt>> Then = parseBlock();
  if (!Then)
    return Then.error();
  StmtPtr Else;
  if (match(TokenKind::KwElse)) {
    if (check(TokenKind::KwIf)) {
      // An else-if is a statement one level below this one.
      Nested Level(*this);
      if (Level.exceeded())
        return tooDeep();
      Result<StmtPtr> ElseIf = parseIf();
      if (!ElseIf)
        return ElseIf.error();
      Else = ElseIf.take();
    } else {
      Result<std::unique_ptr<BlockStmt>> ElseBlock = parseBlock();
      if (!ElseBlock)
        return ElseBlock.error();
      Else = StmtPtr(ElseBlock.take());
    }
  }
  return StmtPtr(std::make_unique<IfStmt>(Cond.take(), StmtPtr(Then.take()),
                                          std::move(Else), IfTok.Loc));
}

Result<StmtPtr> Parser::parseWhile() {
  const Token &WhileTok = advance(); // 'while'
  if (auto R = expect(TokenKind::LParen, "after 'while'"); !R)
    return R.error();
  Result<ExprPtr> Cond = parseExpr();
  if (!Cond)
    return Cond.error();
  if (auto R = expect(TokenKind::RParen, "to close condition"); !R)
    return R.error();
  Result<std::unique_ptr<BlockStmt>> Body = parseBlock();
  if (!Body)
    return Body.error();
  return StmtPtr(std::make_unique<WhileStmt>(Cond.take(),
                                             StmtPtr(Body.take()),
                                             WhileTok.Loc));
}

Result<StmtPtr> Parser::parseReturn() {
  const Token &RetTok = advance(); // 'return'
  ExprPtr Value;
  if (!check(TokenKind::Semicolon)) {
    Result<ExprPtr> E = parseExpr();
    if (!E)
      return E.error();
    Value = E.take();
  }
  if (auto R = expect(TokenKind::Semicolon, "after return"); !R)
    return R.error();
  return StmtPtr(std::make_unique<ReturnStmt>(std::move(Value), RetTok.Loc));
}

Result<StmtPtr> Parser::parseSynchronized() {
  const Token &SyncTok = advance(); // 'synchronized'
  if (auto R = expect(TokenKind::LParen, "after 'synchronized'"); !R)
    return R.error();
  Result<ExprPtr> LockExpr = parseExpr();
  if (!LockExpr)
    return LockExpr.error();
  if (auto R = expect(TokenKind::RParen, "to close lock expression"); !R)
    return R.error();
  Result<std::unique_ptr<BlockStmt>> Body = parseBlock();
  if (!Body)
    return Body.error();
  return StmtPtr(std::make_unique<SyncStmt>(LockExpr.take(),
                                            StmtPtr(Body.take()),
                                            SyncTok.Loc));
}

Result<StmtPtr> Parser::parseSpawn() {
  const Token &SpawnTok = advance(); // 'spawn'
  Result<std::unique_ptr<BlockStmt>> Body = parseBlock();
  if (!Body)
    return Body.error();
  return StmtPtr(std::make_unique<SpawnStmt>(StmtPtr(Body.take()),
                                             SpawnTok.Loc));
}

Result<StmtPtr> Parser::parseExprOrAssign() {
  SourceLoc Loc = peek().Loc;
  Result<ExprPtr> LHS = parseExpr();
  if (!LHS)
    return LHS.error();
  if (match(TokenKind::Assign)) {
    Expr *Target = LHS->get();
    if (!isa<VarRefExpr>(Target) && !isa<FieldAccessExpr>(Target))
      return Error("assignment target must be a variable or a field",
                   Loc.str());
    Result<ExprPtr> Value = parseExpr();
    if (!Value)
      return Value.error();
    if (auto R = expect(TokenKind::Semicolon, "after assignment"); !R)
      return R.error();
    return StmtPtr(
        std::make_unique<AssignStmt>(LHS.take(), Value.take(), Loc));
  }
  if (auto R = expect(TokenKind::Semicolon, "after expression"); !R)
    return R.error();
  return StmtPtr(std::make_unique<ExprStmt>(LHS.take(), Loc));
}

/// Binding strength for binary operators; higher binds tighter.
static int binaryPrecedence(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::PipePipe:
    return 1;
  case TokenKind::AmpAmp:
    return 2;
  case TokenKind::EqEq:
  case TokenKind::BangEq:
    return 3;
  case TokenKind::Less:
  case TokenKind::LessEq:
  case TokenKind::Greater:
  case TokenKind::GreaterEq:
    return 4;
  case TokenKind::Plus:
  case TokenKind::Minus:
    return 5;
  case TokenKind::Star:
  case TokenKind::Slash:
  case TokenKind::Percent:
    return 6;
  default:
    return -1;
  }
}

static BinaryOp binaryOpFor(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::PipePipe:
    return BinaryOp::Or;
  case TokenKind::AmpAmp:
    return BinaryOp::And;
  case TokenKind::EqEq:
    return BinaryOp::Eq;
  case TokenKind::BangEq:
    return BinaryOp::Ne;
  case TokenKind::Less:
    return BinaryOp::Lt;
  case TokenKind::LessEq:
    return BinaryOp::Le;
  case TokenKind::Greater:
    return BinaryOp::Gt;
  case TokenKind::GreaterEq:
    return BinaryOp::Ge;
  case TokenKind::Plus:
    return BinaryOp::Add;
  case TokenKind::Minus:
    return BinaryOp::Sub;
  case TokenKind::Star:
    return BinaryOp::Mul;
  case TokenKind::Slash:
    return BinaryOp::Div;
  case TokenKind::Percent:
    return BinaryOp::Rem;
  default:
    narada_unreachable("not a binary operator token");
  }
}

Result<ExprPtr> Parser::parseExpr() {
  // The expression's root sits one level below Depth.
  Result<ExprPtr> E = parseOperators();
  if (E && Depth + Height > MaxNestingDepth)
    return tooDeep();
  return E;
}

Result<ExprPtr> Parser::parseOperators() {
  Result<ExprPtr> LHS = parseUnary();
  if (!LHS)
    return LHS.error();
  return parseBinaryRHS(1, LHS.take(), Height);
}

Result<ExprPtr> Parser::parseBinaryRHS(int MinPrec, ExprPtr LHS,
                                       unsigned LHSHeight) {
  while (true) {
    int Prec = binaryPrecedence(peek().Kind);
    if (Prec < MinPrec) {
      Height = LHSHeight;
      return LHS;
    }
    const Token &OpTok = advance();
    Result<ExprPtr> RHS = parseUnary();
    if (!RHS)
      return RHS.error();
    // Left associativity: fold anything that binds tighter into RHS first.
    while (binaryPrecedence(peek().Kind) > Prec) {
      Result<ExprPtr> Folded =
          parseBinaryRHS(binaryPrecedence(peek().Kind), RHS.take(), Height);
      if (!Folded)
        return Folded.error();
      RHS = Folded.take();
    }
    // A chain built in this loop is as deep as it is long.  Its root sits
    // at level Depth or below, so its deepest operand at least at
    // Depth + LHSHeight - 1; the caller checks the exact level.
    LHSHeight = 1 + std::max(LHSHeight, Height);
    if (Depth + LHSHeight - 1 > MaxNestingDepth)
      return tooDeep();
    LHS = std::make_unique<BinaryExpr>(binaryOpFor(OpTok.Kind),
                                       std::move(LHS), RHS.take(), OpTok.Loc);
  }
}

Result<ExprPtr> Parser::parseUnary() {
  Nested Level(*this);
  if (Level.exceeded())
    return tooDeep();
  if (check(TokenKind::Minus)) {
    const Token &OpTok = advance();
    Result<ExprPtr> Operand = parseUnary();
    if (!Operand)
      return Operand.error();
    ++Height;
    return ExprPtr(std::make_unique<UnaryExpr>(UnaryOp::Neg, Operand.take(),
                                               OpTok.Loc));
  }
  if (check(TokenKind::Bang)) {
    const Token &OpTok = advance();
    Result<ExprPtr> Operand = parseUnary();
    if (!Operand)
      return Operand.error();
    ++Height;
    return ExprPtr(std::make_unique<UnaryExpr>(UnaryOp::Not, Operand.take(),
                                               OpTok.Loc));
  }
  return parsePostfix();
}

Result<ExprPtr> Parser::parsePostfix() {
  Result<ExprPtr> E = parsePrimary();
  if (!E)
    return E.error();
  ExprPtr Node = E.take();
  unsigned NodeHeight = Height;
  while (check(TokenKind::Dot)) {
    const Token &DotTok = advance();
    Result<const Token *> Member =
        expect(TokenKind::Identifier, "after '.'");
    if (!Member)
      return Member.error();
    if (check(TokenKind::LParen)) {
      Result<std::vector<ExprPtr>> Args = parseArgs();
      if (!Args)
        return Args.error();
      NodeHeight = 1 + std::max(NodeHeight, Height);
      Node = std::make_unique<CallExpr>(std::move(Node),
                                        std::string((*Member)->Text),
                                        Args.take(), DotTok.Loc);
    } else {
      ++NodeHeight;
      Node = std::make_unique<FieldAccessExpr>(std::move(Node),
                                               std::string((*Member)->Text),
                                               DotTok.Loc);
    }
    // Like an operator chain, a member chain is as deep as it is long; its
    // root sits at level Depth.
    if (Depth + NodeHeight - 1 > MaxNestingDepth)
      return tooDeep();
  }
  Height = NodeHeight;
  return Node;
}

Result<std::vector<ExprPtr>> Parser::parseArgs() {
  if (auto R = expect(TokenKind::LParen, "to open argument list"); !R)
    return R.error();
  std::vector<ExprPtr> Args;
  unsigned ArgsHeight = 0;
  if (!check(TokenKind::RParen)) {
    while (true) {
      Result<ExprPtr> Arg = parseExpr();
      if (!Arg)
        return Arg.error();
      ArgsHeight = std::max(ArgsHeight, Height);
      Args.push_back(Arg.take());
      if (!match(TokenKind::Comma))
        break;
    }
  }
  if (auto R = expect(TokenKind::RParen, "to close argument list"); !R)
    return R.error();
  Height = ArgsHeight;
  return Args;
}

Result<ExprPtr> Parser::parsePrimary() {
  const Token &T = peek();
  Height = 1;
  switch (T.Kind) {
  case TokenKind::IntLiteral:
    advance();
    return ExprPtr(std::make_unique<IntLitExpr>(T.IntValue, T.Loc));
  case TokenKind::KwTrue:
    advance();
    return ExprPtr(std::make_unique<BoolLitExpr>(true, T.Loc));
  case TokenKind::KwFalse:
    advance();
    return ExprPtr(std::make_unique<BoolLitExpr>(false, T.Loc));
  case TokenKind::KwNull:
    advance();
    return ExprPtr(std::make_unique<NullLitExpr>(T.Loc));
  case TokenKind::KwThis:
    advance();
    return ExprPtr(std::make_unique<ThisExpr>(T.Loc));
  case TokenKind::KwRand: {
    advance();
    if (auto R = expect(TokenKind::LParen, "after 'rand'"); !R)
      return R.error();
    if (auto R = expect(TokenKind::RParen, "after 'rand('"); !R)
      return R.error();
    return ExprPtr(std::make_unique<RandExpr>(T.Loc));
  }
  case TokenKind::KwNew: {
    advance();
    Result<const Token *> ClassName =
        expect(TokenKind::Identifier, "after 'new'");
    if (!ClassName)
      return ClassName.error();
    std::vector<ExprPtr> Args;
    if (check(TokenKind::LParen)) {
      Result<std::vector<ExprPtr>> Parsed = parseArgs();
      if (!Parsed)
        return Parsed.error();
      Args = Parsed.take();
      Height += 1;
    }
    return ExprPtr(std::make_unique<NewExpr>(std::string((*ClassName)->Text),
                                             std::move(Args),
                                             T.Loc));
  }
  case TokenKind::Identifier:
    advance();
    return ExprPtr(std::make_unique<VarRefExpr>(std::string(T.Text), T.Loc));
  case TokenKind::LParen: {
    // Parentheses build no node: the expression inside takes their place,
    // and their level, in the tree.  The printer parenthesizes every
    // operator, so its output nests no deeper than its input.
    advance();
    Result<ExprPtr> Inner = parseOperators();
    if (!Inner)
      return Inner.error();
    if (auto R = expect(TokenKind::RParen, "to close parenthesis"); !R)
      return R.error();
    return Inner;
  }
  default:
    return errorHere(formatString("expected an expression, found %s",
                                  tokenKindName(T.Kind)));
  }
}
