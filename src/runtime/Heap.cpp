//===- runtime/Heap.cpp - Objects and the heap --------------------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"

using namespace narada;

ObjectId Heap::allocate(const ClassInfo *Class) {
  assert(Class && "allocating an object without a class");
  HeapObject Obj;
  Obj.Class = Class;
  Obj.Fields.resize(Class->Fields.size());
  for (size_t I = 0, E = Class->Fields.size(); I != E; ++I) {
    const Type &Ty = Class->Fields[I].DeclaredType;
    if (Ty.isInt())
      Obj.Fields[I] = Value::makeInt(0);
    else if (Ty.isBool())
      Obj.Fields[I] = Value::makeBool(false);
    else
      Obj.Fields[I] = Value::makeNull();
  }
  Objects.push_back(std::move(Obj));
  return static_cast<ObjectId>(Objects.size());
}

ObjectId Heap::allocateArray(const ClassInfo *ArrayClass, size_t Size) {
  assert(ArrayClass && ArrayClass->IsBuiltin && "not the builtin array class");
  HeapObject Obj;
  Obj.Class = ArrayClass;
  Obj.Elems.assign(Size, 0);
  Objects.push_back(std::move(Obj));
  return static_cast<ObjectId>(Objects.size());
}

uint64_t Heap::stateHash() const {
  // FNV-1a over a canonical serialization of the heap.
  uint64_t Hash = digest::Fnv1aBasis;
  for (const HeapObject &Obj : Objects) {
    for (const Value &V : Obj.Fields)
      Hash = digestValue(Hash, V);
    for (int64_t E : Obj.Elems)
      Hash = digest::updateU64(Hash, static_cast<uint64_t>(E));
    Hash = digest::updateU64(Hash, Obj.Elems.size());
  }
  return Hash;
}
