//===- analysis/HeapMirror.cpp - Trace-replayed heap shadow --------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "analysis/HeapMirror.h"

#include <cassert>
#include <deque>

using namespace narada;

void HeapMirror::apply(const TraceEvent &Event) {
  switch (Event.Kind) {
  case EventKind::Alloc: {
    MirrorObject Obj;
    Obj.ClassName = Event.ClassName;
    Objects[Event.Obj] = std::move(Obj);
    return;
  }
  case EventKind::WriteField: {
    // Objects the VM staged outside of traced code (direct harness
    // allocations) may be first seen here.
    MirrorObject &Obj = Objects[Event.Obj];
    if (!Obj.ClassName)
      Obj.ClassName = Event.ClassName;
    Obj.Fields[*Event.Member] = Event.Val;
    return;
  }
  default:
    return;
  }
}

const MirrorObject &HeapMirror::object(ObjectId Id) const {
  auto It = Objects.find(Id);
  assert(It != Objects.end() && "querying an unknown object");
  return It->second;
}

std::map<ObjectId, AccessPath> HeapMirror::reachableFrom(
    const std::vector<std::pair<int, ObjectId>> &Roots) const {
  std::map<ObjectId, AccessPath> Out;
  std::deque<ObjectId> Queue;

  for (const auto &[RootIndex, Id] : Roots) {
    if (Id == NoObject || Out.count(Id))
      continue;
    Out.emplace(Id, AccessPath(RootIndex, {}));
    Queue.push_back(Id);
  }

  while (!Queue.empty()) {
    ObjectId Id = Queue.front();
    Queue.pop_front();
    auto It = Objects.find(Id);
    if (It == Objects.end())
      continue; // Allocated before tracing began; fields unknown.
    const AccessPath &Base = Out.at(Id);
    for (const auto &[Field, Val] : It->second.Fields) {
      if (!Val.isRef() || Out.count(Val.asRef()))
        continue;
      Out.emplace(Val.asRef(), Base.appended(Field));
      Queue.push_back(Val.asRef());
    }
  }
  return Out;
}

ObjectId HeapMirror::resolve(ObjectId Root,
                             const std::vector<std::string> &Fields) const {
  ObjectId Current = Root;
  for (const std::string &Field : Fields) {
    auto It = Objects.find(Current);
    if (It == Objects.end())
      return NoObject;
    auto FieldIt = It->second.Fields.find(Field);
    if (FieldIt == It->second.Fields.end() || !FieldIt->second.isRef())
      return NoObject;
    Current = FieldIt->second.asRef();
  }
  return Current;
}
