//===- detect/ShadowTable.h - Per-location detector state -------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-location state a passive detector keeps, indexed by the
/// accessed object and then by field slot or element index: two vector
/// lookups per access instead of a hash.  Each object has one row for its
/// fields and one for its array elements, so field slot k and element k
/// are distinct locations.  A row grows only to the highest slot or index
/// touched; the VM bounds-checks element indices before it emits an
/// access, so the table stays proportional to the heap.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_DETECT_SHADOWTABLE_H
#define NARADA_DETECT_SHADOWTABLE_H

#include "trace/TraceEvent.h"

#include <cassert>
#include <vector>

namespace narada {

template <typename State> class ShadowTable {
public:
  /// The state of the location \p Access touches, default-constructed on
  /// first use.  The reference is valid until the next call.
  State &at(const TraceEvent &Access) {
    assert(Access.isAccess() && "only heap accesses have a location");
    if (Access.Obj >= Objects.size())
      Objects.resize(Access.Obj + 1);
    Row &R = Objects[Access.Obj];
    std::vector<State> &Slots = Access.isElemAccess() ? R.Elems : R.Fields;
    if (Access.FieldIndex >= Slots.size())
      Slots.resize(Access.FieldIndex + 1);
    return Slots[Access.FieldIndex];
  }

private:
  struct Row {
    std::vector<State> Fields; ///< Indexed by field slot.
    std::vector<State> Elems;  ///< Indexed by element index.
  };
  std::vector<Row> Objects; ///< Indexed by ObjectId.
};

} // namespace narada

#endif // NARADA_DETECT_SHADOWTABLE_H
