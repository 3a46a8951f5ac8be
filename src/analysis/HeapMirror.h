//===- analysis/HeapMirror.h - Trace-replayed heap shadow -------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A shadow of the program heap reconstructed purely from trace events.
/// The Fig. 7 rules build an abstract heap H as they walk the trace; because
/// our traces record every allocation and field write, the mirror can
/// maintain the exact points-to state at every trace position and answer the
/// two queries the analysis needs: "which objects are reachable from these
/// roots?" (controllability bootstrap R) and "by what field path?" (the src
/// operator of §3.2).
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_ANALYSIS_HEAPMIRROR_H
#define NARADA_ANALYSIS_HEAPMIRROR_H

#include "analysis/AccessPath.h"
#include "runtime/Value.h"
#include "trace/TraceEvent.h"

#include <map>
#include <string>
#include <vector>

namespace narada {

/// Field state of one mirrored object.
struct MirrorObject {
  /// Borrowed from the trace's module, like the event it came from.
  const std::string *ClassName = nullptr;
  std::map<std::string, Value> Fields; ///< By field name; refs only matter.
};

/// The heap shadow.  Feed it every event in trace order via apply().
class HeapMirror {
public:
  /// Updates the mirror for \p Event (Alloc and WriteField matter; all other
  /// kinds are ignored).
  void apply(const TraceEvent &Event);

  /// Whether \p Id has been seen.
  bool knows(ObjectId Id) const { return Objects.count(Id) != 0; }

  /// The mirrored object; it must be known.
  const MirrorObject &object(ObjectId Id) const;

  /// Objects reachable from \p Roots (each pairs a root index with an
  /// object), mapped to their shortest access path (BFS order; the first
  /// discovered path wins, preferring earlier roots).
  std::map<ObjectId, AccessPath>
  reachableFrom(const std::vector<std::pair<int, ObjectId>> &Roots) const;

  /// Resolves \p Fields starting at \p Root through current field values.
  /// Returns NoObject when a hop is null, primitive or unknown.
  ObjectId resolve(ObjectId Root, const std::vector<std::string> &Fields) const;

private:
  std::map<ObjectId, MirrorObject> Objects;
};

} // namespace narada

#endif // NARADA_ANALYSIS_HEAPMIRROR_H
