//===- lang/Token.h - MiniJava tokens ---------------------------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Token kinds produced by the MiniJava lexer.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_LANG_TOKEN_H
#define NARADA_LANG_TOKEN_H

#include "lang/SourceLoc.h"

#include <cstdint>
#include <string_view>

namespace narada {

/// The lexical categories of the MiniJava language.
enum class TokenKind {
  Eof,
  Identifier,
  IntLiteral,

  // Keywords.
  KwClass,
  KwField,
  KwMethod,
  KwVar,
  KwTest,
  KwIf,
  KwElse,
  KwWhile,
  KwReturn,
  KwSynchronized,
  KwSpawn,
  KwNew,
  KwThis,
  KwNull,
  KwTrue,
  KwFalse,
  KwInt,
  KwBool,
  KwRand,

  // Punctuation.
  LBrace,
  RBrace,
  LParen,
  RParen,
  LBracket,
  RBracket,
  Semicolon,
  Colon,
  Comma,
  Dot,
  Assign,

  // Operators.
  Plus,
  Minus,
  Star,
  Slash,
  Percent,
  EqEq,
  BangEq,
  Less,
  LessEq,
  Greater,
  GreaterEq,
  AmpAmp,
  PipePipe,
  Bang,
};

/// Returns a human-readable spelling for diagnostics ("'{'", "identifier").
const char *tokenKindName(TokenKind Kind);

/// A single lexed token: kind, source text, position, and (for integer
/// literals) the decoded value.  Text is a view into the lexed buffer, so
/// a token is valid only while that buffer is.
struct Token {
  TokenKind Kind = TokenKind::Eof;
  std::string_view Text;
  SourceLoc Loc;
  int64_t IntValue = 0;

  bool is(TokenKind K) const { return Kind == K; }
};

} // namespace narada

#endif // NARADA_LANG_TOKEN_H
