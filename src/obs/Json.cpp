//===- obs/Json.cpp - Minimal JSON writer and parser ---------------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "obs/Json.h"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>

using namespace narada;
using namespace narada::obs;

std::string obs::jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

void JsonWriter::separate() {
  if (AfterKey) {
    AfterKey = false;
    return; // "key": value — no comma between them.
  }
  if (!NeedComma.empty()) {
    if (NeedComma.back())
      Out += ',';
    NeedComma.back() = true;
  }
}

JsonWriter &JsonWriter::beginObject() {
  separate();
  Out += '{';
  NeedComma.push_back(false);
  return *this;
}

JsonWriter &JsonWriter::endObject() {
  Out += '}';
  NeedComma.pop_back();
  return *this;
}

JsonWriter &JsonWriter::beginArray() {
  separate();
  Out += '[';
  NeedComma.push_back(false);
  return *this;
}

JsonWriter &JsonWriter::endArray() {
  Out += ']';
  NeedComma.pop_back();
  return *this;
}

JsonWriter &JsonWriter::key(std::string_view Key) {
  separate();
  Out += '"';
  Out += jsonEscape(Key);
  Out += "\":";
  AfterKey = true;
  return *this;
}

JsonWriter &JsonWriter::value(std::string_view S) {
  separate();
  Out += '"';
  Out += jsonEscape(S);
  Out += '"';
  return *this;
}

JsonWriter &JsonWriter::value(uint64_t N) {
  separate();
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%" PRIu64, N);
  Out += Buf;
  return *this;
}

JsonWriter &JsonWriter::value(int64_t N) {
  separate();
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%" PRId64, N);
  Out += Buf;
  return *this;
}

JsonWriter &JsonWriter::value(double D) {
  separate();
  if (!std::isfinite(D)) {
    Out += "null"; // JSON has no Inf/NaN.
    return *this;
  }
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", D);
  Out += Buf;
  return *this;
}

JsonWriter &JsonWriter::value(bool B) {
  separate();
  Out += B ? "true" : "false";
  return *this;
}

JsonWriter &JsonWriter::null() {
  separate();
  Out += "null";
  return *this;
}

const JsonValue *JsonValue::find(const std::string &Key) const {
  if (K != Kind::Object)
    return nullptr;
  auto It = Members.find(Key);
  return It == Members.end() ? nullptr : &It->second;
}

const JsonValue *
JsonValue::at(std::initializer_list<const char *> Path) const {
  const JsonValue *V = this;
  for (const char *Key : Path) {
    if (!V)
      return nullptr;
    V = V->find(Key);
  }
  return V;
}

namespace {

/// Recursive-descent parser over a string_view cursor.
class Parser {
public:
  explicit Parser(std::string_view Text) : Text(Text) {}

  std::optional<JsonValue> parse() {
    std::optional<JsonValue> V = parseValue();
    if (!V)
      return std::nullopt;
    skipSpace();
    if (Pos != Text.size())
      return std::nullopt; // Trailing garbage.
    return V;
  }

private:
  /// Holds one array or object level open for its lifetime.
  struct Level {
    explicit Level(unsigned &Depth) : Depth(Depth) { ++Depth; }
    ~Level() { --Depth; }
    bool exceeded() const { return Depth > MaxJsonNesting; }
    unsigned &Depth;
  };

  void skipSpace() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  bool consume(char C) {
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool literal(std::string_view Word) {
    if (Text.substr(Pos, Word.size()) == Word) {
      Pos += Word.size();
      return true;
    }
    return false;
  }

  std::optional<std::string> parseString() {
    if (!consume('"'))
      return std::nullopt;
    std::string Out;
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return Out;
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        return std::nullopt;
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      case 'n':
        Out += '\n';
        break;
      case 't':
        Out += '\t';
        break;
      case 'r':
        Out += '\r';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return std::nullopt;
        unsigned Code = 0;
        for (int I = 0; I < 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else
            return std::nullopt;
        }
        // Reports only ever escape control characters; anything in the
        // Latin-1 range round-trips, the rest is replaced.
        Out += Code < 0x100 ? static_cast<char>(Code) : '?';
        break;
      }
      default:
        return std::nullopt;
      }
    }
    return std::nullopt; // Unterminated.
  }

  std::optional<JsonValue> parseValue() {
    skipSpace();
    if (Pos >= Text.size())
      return std::nullopt;
    JsonValue V;
    char C = Text[Pos];
    if (C == '{') {
      Level Open(Depth);
      if (Open.exceeded())
        return std::nullopt;
      ++Pos;
      V.K = JsonValue::Kind::Object;
      skipSpace();
      if (consume('}'))
        return V;
      while (true) {
        skipSpace();
        std::optional<std::string> Key = parseString();
        if (!Key || !consume(':'))
          return std::nullopt;
        std::optional<JsonValue> Member = parseValue();
        if (!Member)
          return std::nullopt;
        V.Members.emplace(std::move(*Key), std::move(*Member));
        if (consume(','))
          continue;
        if (consume('}'))
          return V;
        return std::nullopt;
      }
    }
    if (C == '[') {
      Level Open(Depth);
      if (Open.exceeded())
        return std::nullopt;
      ++Pos;
      V.K = JsonValue::Kind::Array;
      skipSpace();
      if (consume(']'))
        return V;
      while (true) {
        std::optional<JsonValue> Elem = parseValue();
        if (!Elem)
          return std::nullopt;
        V.Elements.push_back(std::move(*Elem));
        if (consume(','))
          continue;
        if (consume(']'))
          return V;
        return std::nullopt;
      }
    }
    if (C == '"') {
      std::optional<std::string> S = parseString();
      if (!S)
        return std::nullopt;
      V.K = JsonValue::Kind::String;
      V.StringVal = std::move(*S);
      return V;
    }
    if (literal("true")) {
      V.K = JsonValue::Kind::Bool;
      V.BoolVal = true;
      return V;
    }
    if (literal("false")) {
      V.K = JsonValue::Kind::Bool;
      V.BoolVal = false;
      return V;
    }
    if (literal("null"))
      return V;
    // Number.
    size_t Start = Pos;
    if (Pos < Text.size() && (Text[Pos] == '-' || Text[Pos] == '+'))
      ++Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '-' || Text[Pos] == '+'))
      ++Pos;
    if (Pos == Start)
      return std::nullopt;
    std::string Num(Text.substr(Start, Pos - Start));
    char *End = nullptr;
    double D = std::strtod(Num.c_str(), &End);
    if (!End || *End != '\0')
      return std::nullopt;
    V.K = JsonValue::Kind::Number;
    V.NumberVal = D;
    return V;
  }

  std::string_view Text;
  size_t Pos = 0;
  unsigned Depth = 0;
};

} // namespace

std::optional<JsonValue> obs::parseJson(std::string_view Text) {
  return Parser(Text).parse();
}
