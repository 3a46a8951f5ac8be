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
  /// with an Eof token; token texts are views into the buffer.
  Result<std::vector<Token>> lexAll();

private:
  /// Lexes the token that starts at Pos into \p T, whose Loc is set;
  /// false, with \p Failure set, on a character no token starts with or
  /// an integer literal that does not fit in 64 bits.
  bool lexToken(Token &T, Error &Failure);
  void skipWhitespaceAndComments();
  bool atEnd() const { return Pos >= Source.size(); }
  SourceLoc currentLoc() const {
    return SourceLoc{Line, static_cast<int>(Pos - LineStart) + 1};
  }

  std::string_view Source;
  size_t Pos = 0;
  int Line = 1;
  size_t LineStart = 0; ///< Offset of the current line's first character.
};

} // namespace narada

#endif // NARADA_LANG_LEXER_H
