//===- runtime/Value.h - Runtime values -------------------------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dynamically-typed runtime values: null, int, bool, and object references.
/// Object identity is an index into the owning Heap.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_RUNTIME_VALUE_H
#define NARADA_RUNTIME_VALUE_H

#include "support/Digest.h"

#include <cassert>
#include <cstdint>
#include <string>

namespace narada {

/// Identifies a heap object.  0 is reserved as "no object".
using ObjectId = uint32_t;

/// The invalid/absent object id.
inline constexpr ObjectId NoObject = 0;

/// A runtime value.
class Value {
public:
  enum class Kind : uint8_t {
    Null,
    Int,
    Bool,
    Ref,
  };

  Value() = default;

  static Value makeNull() { return Value(); }
  static Value makeInt(int64_t V) {
    Value Out;
    Out.TheKind = Kind::Int;
    Out.IntVal = V;
    return Out;
  }
  static Value makeBool(bool B) {
    Value Out;
    Out.TheKind = Kind::Bool;
    Out.IntVal = B ? 1 : 0;
    return Out;
  }
  static Value makeRef(ObjectId Id) {
    assert(Id != NoObject && "use makeNull() for the absent reference");
    Value Out;
    Out.TheKind = Kind::Ref;
    Out.RefVal = Id;
    return Out;
  }

  Kind kind() const { return TheKind; }
  bool isNull() const { return TheKind == Kind::Null; }
  bool isInt() const { return TheKind == Kind::Int; }
  bool isBool() const { return TheKind == Kind::Bool; }
  bool isRef() const { return TheKind == Kind::Ref; }

  int64_t asInt() const {
    assert(isInt() && "value is not an int");
    return IntVal;
  }
  bool asBool() const {
    assert(isBool() && "value is not a bool");
    return IntVal != 0;
  }
  ObjectId asRef() const {
    assert(isRef() && "value is not a reference");
    return RefVal;
  }

  /// The referenced object, or NoObject for null/primitives.
  ObjectId refOrNone() const { return isRef() ? RefVal : NoObject; }

  /// Structural equality (null == null; refs by identity).
  bool operator==(const Value &Other) const {
    if (TheKind != Other.TheKind)
      return false;
    switch (TheKind) {
    case Kind::Null:
      return true;
    case Kind::Int:
    case Kind::Bool:
      return IntVal == Other.IntVal;
    case Kind::Ref:
      return RefVal == Other.RefVal;
    }
    return false;
  }
  bool operator!=(const Value &Other) const { return !(*this == Other); }

  /// Human-readable rendering ("null", "42", "true", "@7").
  std::string str() const {
    switch (TheKind) {
    case Kind::Null:
      return "null";
    case Kind::Int:
      return std::to_string(IntVal);
    case Kind::Bool:
      return IntVal ? "true" : "false";
    case Kind::Ref:
      return "@" + std::to_string(RefVal);
    }
    return "?";
  }

private:
  // Widest member first, so the kind packs into the tail: 16 bytes.
  int64_t IntVal = 0;
  ObjectId RefVal = NoObject;
  Kind TheKind = Kind::Null;
};

static_assert(sizeof(Value) == 16, "Value is copied into every trace event");

/// Extends digest \p H with \p V: its kind, then its payload (null has
/// none), each as one digest::updateU64 word.  Heap::stateHash and the
/// confirmation's observed-value hash both digest values this way.
inline uint64_t digestValue(uint64_t H, const Value &V) {
  H = digest::updateU64(H, static_cast<uint64_t>(V.kind()));
  if (V.isInt())
    return digest::updateU64(H, static_cast<uint64_t>(V.asInt()));
  if (V.isBool())
    return digest::updateU64(H, V.asBool() ? 1 : 0);
  if (V.isRef())
    return digest::updateU64(H, V.asRef());
  return H;
}

} // namespace narada

#endif // NARADA_RUNTIME_VALUE_H
