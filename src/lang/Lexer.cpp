//===- lang/Lexer.cpp - MiniJava lexer -------------------------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "lang/Lexer.h"

#include <algorithm>
#include <array>
#include <cstdint>

using namespace narada;

const char *narada::tokenKindName(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::Eof:
    return "end of input";
  case TokenKind::Identifier:
    return "identifier";
  case TokenKind::IntLiteral:
    return "integer literal";
  case TokenKind::KwClass:
    return "'class'";
  case TokenKind::KwField:
    return "'field'";
  case TokenKind::KwMethod:
    return "'method'";
  case TokenKind::KwVar:
    return "'var'";
  case TokenKind::KwTest:
    return "'test'";
  case TokenKind::KwIf:
    return "'if'";
  case TokenKind::KwElse:
    return "'else'";
  case TokenKind::KwWhile:
    return "'while'";
  case TokenKind::KwReturn:
    return "'return'";
  case TokenKind::KwSynchronized:
    return "'synchronized'";
  case TokenKind::KwSpawn:
    return "'spawn'";
  case TokenKind::KwNew:
    return "'new'";
  case TokenKind::KwThis:
    return "'this'";
  case TokenKind::KwNull:
    return "'null'";
  case TokenKind::KwTrue:
    return "'true'";
  case TokenKind::KwFalse:
    return "'false'";
  case TokenKind::KwInt:
    return "'int'";
  case TokenKind::KwBool:
    return "'bool'";
  case TokenKind::KwRand:
    return "'rand'";
  case TokenKind::LBrace:
    return "'{'";
  case TokenKind::RBrace:
    return "'}'";
  case TokenKind::LParen:
    return "'('";
  case TokenKind::RParen:
    return "')'";
  case TokenKind::LBracket:
    return "'['";
  case TokenKind::RBracket:
    return "']'";
  case TokenKind::Semicolon:
    return "';'";
  case TokenKind::Colon:
    return "':'";
  case TokenKind::Comma:
    return "','";
  case TokenKind::Dot:
    return "'.'";
  case TokenKind::Assign:
    return "'='";
  case TokenKind::Plus:
    return "'+'";
  case TokenKind::Minus:
    return "'-'";
  case TokenKind::Star:
    return "'*'";
  case TokenKind::Slash:
    return "'/'";
  case TokenKind::Percent:
    return "'%'";
  case TokenKind::EqEq:
    return "'=='";
  case TokenKind::BangEq:
    return "'!='";
  case TokenKind::Less:
    return "'<'";
  case TokenKind::LessEq:
    return "'<='";
  case TokenKind::Greater:
    return "'>'";
  case TokenKind::GreaterEq:
    return "'>='";
  case TokenKind::AmpAmp:
    return "'&&'";
  case TokenKind::PipePipe:
    return "'||'";
  case TokenKind::Bang:
    return "'!'";
  }
  narada_unreachable("unknown token kind");
}

namespace {

/// The character classes the lexer tests, as the C locale defines them
/// (the program never changes its locale).
enum CharClass : uint8_t {
  Space = 1,      ///< ' ', '\t', '\n', '\v', '\f', '\r'
  IdentStart = 2, ///< ASCII letters and '_'
  Digit = 4,      ///< '0'-'9'
};

constexpr std::array<uint8_t, 256> CharClasses = [] {
  std::array<uint8_t, 256> Table{};
  for (unsigned char C : {' ', '\t', '\n', '\v', '\f', '\r'})
    Table[C] = Space;
  for (unsigned C = 'a'; C <= 'z'; ++C)
    Table[C] = IdentStart;
  for (unsigned C = 'A'; C <= 'Z'; ++C)
    Table[C] = IdentStart;
  Table['_'] = IdentStart;
  for (unsigned C = '0'; C <= '9'; ++C)
    Table[C] = Digit;
  return Table;
}();

bool is(char C, uint8_t Classes) {
  return CharClasses[static_cast<unsigned char>(C)] & Classes;
}

/// The keyword spelled \p Text, or Identifier.  Keywords are 2 to 12
/// lowercase letters, and their length and first one or two letters pick
/// the one keyword to compare against.
TokenKind keywordKind(std::string_view Text) {
  if (Text[0] < 'a' || Text[0] > 'z')
    return TokenKind::Identifier;
  auto Match = [&](std::string_view Keyword, TokenKind Kind) {
    return Text == Keyword ? Kind : TokenKind::Identifier;
  };
  switch (Text.size()) {
  case 2:
    return Match("if", TokenKind::KwIf);
  case 3:
    switch (Text[0]) {
    case 'v':
      return Match("var", TokenKind::KwVar);
    case 'n':
      return Match("new", TokenKind::KwNew);
    case 'i':
      return Match("int", TokenKind::KwInt);
    }
    break;
  case 4:
    switch (Text[0]) {
    case 't':
      return Text[1] == 'e'   ? Match("test", TokenKind::KwTest)
             : Text[1] == 'h' ? Match("this", TokenKind::KwThis)
                              : Match("true", TokenKind::KwTrue);
    case 'e':
      return Match("else", TokenKind::KwElse);
    case 'n':
      return Match("null", TokenKind::KwNull);
    case 'b':
      return Match("bool", TokenKind::KwBool);
    case 'r':
      return Match("rand", TokenKind::KwRand);
    }
    break;
  case 5:
    switch (Text[0]) {
    case 'c':
      return Match("class", TokenKind::KwClass);
    case 'f':
      return Text[1] == 'i' ? Match("field", TokenKind::KwField)
                            : Match("false", TokenKind::KwFalse);
    case 'w':
      return Match("while", TokenKind::KwWhile);
    case 's':
      return Match("spawn", TokenKind::KwSpawn);
    }
    break;
  case 6:
    switch (Text[0]) {
    case 'm':
      return Match("method", TokenKind::KwMethod);
    case 'r':
      return Match("return", TokenKind::KwReturn);
    }
    break;
  case 12:
    return Match("synchronized", TokenKind::KwSynchronized);
  }
  return TokenKind::Identifier;
}

} // namespace

void Lexer::skipWhitespaceAndComments() {
  const size_t End = Source.size();
  while (Pos < End) {
    const char C = Source[Pos];
    if (C == '\n') {
      ++Line;
      LineStart = ++Pos;
      continue;
    }
    if (is(C, Space)) {
      ++Pos;
      continue;
    }
    if (C != '/' || Pos + 1 == End)
      return;
    if (Source[Pos + 1] == '/') {
      // The newline is left for the loop, which counts the line.
      Pos = std::min(Source.find('\n', Pos + 2), End);
      continue;
    }
    if (Source[Pos + 1] != '*')
      return;
    // An unterminated block comment runs to the end of the input.
    for (Pos += 2; Pos < End; ++Pos) {
      if (Source[Pos] == '*' && Pos + 1 < End && Source[Pos + 1] == '/') {
        Pos += 2;
        break;
      }
      if (Source[Pos] == '\n') {
        ++Line;
        LineStart = Pos + 1;
      }
    }
  }
}

bool Lexer::lexToken(Token &T, Error &Failure) {
  const size_t Begin = Pos;
  const size_t End = Source.size();
  const char C = Source[Pos++];

  if (is(C, IdentStart)) {
    while (Pos < End && is(Source[Pos], IdentStart | Digit))
      ++Pos;
    T.Text = Source.substr(Begin, Pos - Begin);
    T.Kind = keywordKind(T.Text);
    return true;
  }

  if (is(C, Digit)) {
    while (Pos < End && is(Source[Pos], Digit))
      ++Pos;
    T.Kind = TokenKind::IntLiteral;
    T.Text = Source.substr(Begin, Pos - Begin);
    // Accumulate with an explicit overflow check: library code must not
    // throw, and a 20-digit literal is a program error, not a crash.
    int64_t Value = 0;
    for (char Digit : T.Text) {
      int64_t Unit = Digit - '0';
      if (Value > (INT64_MAX - Unit) / 10) {
        Failure = Error("integer literal too large", T.Loc.str());
        return false;
      }
      Value = Value * 10 + Unit;
    }
    T.IntValue = Value;
    return true;
  }

  // Consumes a second character \p Next when it follows.
  auto Then = [&](char Next) {
    if (Pos == End || Source[Pos] != Next)
      return false;
    ++Pos;
    return true;
  };
  switch (C) {
  case '{':
    T.Kind = TokenKind::LBrace;
    break;
  case '}':
    T.Kind = TokenKind::RBrace;
    break;
  case '(':
    T.Kind = TokenKind::LParen;
    break;
  case ')':
    T.Kind = TokenKind::RParen;
    break;
  case '[':
    T.Kind = TokenKind::LBracket;
    break;
  case ']':
    T.Kind = TokenKind::RBracket;
    break;
  case ';':
    T.Kind = TokenKind::Semicolon;
    break;
  case ':':
    T.Kind = TokenKind::Colon;
    break;
  case ',':
    T.Kind = TokenKind::Comma;
    break;
  case '.':
    T.Kind = TokenKind::Dot;
    break;
  case '+':
    T.Kind = TokenKind::Plus;
    break;
  case '-':
    T.Kind = TokenKind::Minus;
    break;
  case '*':
    T.Kind = TokenKind::Star;
    break;
  case '/':
    T.Kind = TokenKind::Slash;
    break;
  case '%':
    T.Kind = TokenKind::Percent;
    break;
  case '=':
    T.Kind = Then('=') ? TokenKind::EqEq : TokenKind::Assign;
    break;
  case '!':
    T.Kind = Then('=') ? TokenKind::BangEq : TokenKind::Bang;
    break;
  case '<':
    T.Kind = Then('=') ? TokenKind::LessEq : TokenKind::Less;
    break;
  case '>':
    T.Kind = Then('=') ? TokenKind::GreaterEq : TokenKind::Greater;
    break;
  case '&':
  case '|':
    if (Then(C)) {
      T.Kind = C == '&' ? TokenKind::AmpAmp : TokenKind::PipePipe;
      break;
    }
    [[fallthrough]];
  default:
    Failure =
        Error(formatString("unexpected character '%c'", C), T.Loc.str());
    return false;
  }
  T.Text = Source.substr(Begin, Pos - Begin);
  return true;
}

Result<std::vector<Token>> Lexer::lexAll() {
  std::vector<Token> Tokens;
  // MiniJava sources run about four bytes per token; a third leaves room
  // for dense text without a second allocation.
  Tokens.reserve(Source.size() / 3 + 1);
  Error Failure;
  while (true) {
    skipWhitespaceAndComments();
    Token &T = Tokens.emplace_back();
    T.Loc = currentLoc();
    if (atEnd())
      return Tokens; // T stays the Eof token.
    if (!lexToken(T, Failure))
      return Failure;
  }
}
