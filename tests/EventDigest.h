//===- tests/EventDigest.h - A digest of a run's events ---------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
// An observer that folds every event it sees into one digest, so two runs
// can be compared event for event without recording either.
//
//===----------------------------------------------------------------------===//

#ifndef NARADA_TESTS_EVENTDIGEST_H
#define NARADA_TESTS_EVENTDIGEST_H

#include "ir/IR.h"
#include "runtime/Value.h"
#include "support/Digest.h"
#include "trace/TraceEvent.h"

namespace narada {

/// Digests every event of a run: kind, label, thread, function, pc,
/// object, slot and value.  Copyable, so a copy taken mid-run continues
/// the digest of the whole run.
class EventDigest final : public ExecutionObserver {
public:
  void onEvent(const TraceEvent &E) override {
    Hash = digest::updateU64(Hash, static_cast<uint64_t>(E.Kind));
    Hash = digest::updateU64(Hash, E.Label);
    Hash = digest::updateU64(Hash, E.Thread);
    Hash = digest::update(Hash, E.Func ? E.Func->name() : "-");
    Hash = digest::updateU64(Hash, E.Pc);
    Hash = digest::updateU64(Hash, E.Obj);
    Hash = digest::updateU64(Hash, E.FieldIndex);
    Hash = digestValue(Hash, E.Val);
    ++Events;
  }
  uint64_t Hash = digest::Fnv1aBasis;
  uint64_t Events = 0;
};

} // namespace narada

#endif // NARADA_TESTS_EVENTDIGEST_H
