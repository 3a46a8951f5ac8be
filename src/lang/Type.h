//===- lang/Type.h - MiniJava types -----------------------------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MiniJava type representation: int, bool, class references, null and
/// void.  Types are small value objects; class identity is by name.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_LANG_TYPE_H
#define NARADA_LANG_TYPE_H

#include <string>
#include <utility>

namespace narada {

/// A MiniJava static type.
class Type {
public:
  enum class Kind {
    Invalid, ///< Not yet resolved by semantic analysis.
    Int,
    Bool,
    Class, ///< A reference to a user-defined or builtin class.
    Null,  ///< The type of the 'null' literal; compatible with any class.
    Void,  ///< Methods without a return type.
  };

  Type() = default;
  explicit Type(Kind K) : TheKind(K) {}
  Type(Kind K, std::string ClassName)
      : TheKind(K), ClassName(std::move(ClassName)) {}

  static Type intTy() { return Type(Kind::Int); }
  static Type boolTy() { return Type(Kind::Bool); }
  static Type voidTy() { return Type(Kind::Void); }
  static Type nullTy() { return Type(Kind::Null); }
  static Type classTy(std::string Name) {
    return Type(Kind::Class, std::move(Name));
  }

  Kind kind() const { return TheKind; }
  bool isValid() const { return TheKind != Kind::Invalid; }
  bool isInt() const { return TheKind == Kind::Int; }
  bool isBool() const { return TheKind == Kind::Bool; }
  bool isClass() const { return TheKind == Kind::Class; }
  bool isNull() const { return TheKind == Kind::Null; }
  bool isVoid() const { return TheKind == Kind::Void; }
  bool isPrimitive() const { return isInt() || isBool(); }

  /// The class name; only meaningful for Kind::Class.
  const std::string &className() const { return ClassName; }

  /// Structural equality.  null == null, classes compare by name.
  bool operator==(const Type &Other) const {
    return TheKind == Other.TheKind && ClassName == Other.ClassName;
  }
  bool operator!=(const Type &Other) const { return !(*this == Other); }

  /// True if a value of type \p From may be assigned to a slot of this type
  /// (identical types, or null into any class slot).
  bool acceptsValueOf(const Type &From) const {
    if (*this == From)
      return true;
    return isClass() && From.isNull();
  }

  /// Human-readable spelling.
  std::string str() const {
    switch (TheKind) {
    case Kind::Invalid:
      return "<invalid>";
    case Kind::Int:
      return "int";
    case Kind::Bool:
      return "bool";
    case Kind::Class:
      return ClassName;
    case Kind::Null:
      return "null";
    case Kind::Void:
      return "void";
    }
    return "<invalid>";
  }

private:
  Kind TheKind = Kind::Invalid;
  std::string ClassName;
};

} // namespace narada

#endif // NARADA_LANG_TYPE_H
