//===- lang/Lexer.h - MiniJava lexer ----------------------------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-written lexer for the MiniJava language.  Supports '//' line comments
/// and '/* */' block comments.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_LANG_LEXER_H
#define NARADA_LANG_LEXER_H

#include "lang/Token.h"
#include "support/Error.h"

#include <string>
#include <string_view>
#include <vector>

namespace narada {

/// Converts a MiniJava source buffer into a token stream.
class Lexer {
public:
  explicit Lexer(std::string_view Source) : Source(Source) {}

  /// Lexes the entire buffer.  On success the returned vector always ends
  /// with an Eof token.
  Result<std::vector<Token>> lexAll();

private:
  Result<Token> lexToken();
  void skipWhitespaceAndComments();
  char peek(size_t Ahead = 0) const;
  char advance();
  bool atEnd() const { return Pos >= Source.size(); }
  SourceLoc currentLoc() const { return SourceLoc{Line, Column}; }

  std::string_view Source;
  size_t Pos = 0;
  int Line = 1;
  int Column = 1;
};

} // namespace narada

#endif // NARADA_LANG_LEXER_H
