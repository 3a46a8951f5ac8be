//===- obs/MetricsWire.h - Worker metrics delta codec -----------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ships metrics across the process-isolation boundary: an isolated worker
/// (support/ProcessPool.h) resets its registry before each unit, snapshots
/// it afterwards, and appends the delta to the unit's result frame; the
/// supervisor merges each delta into the parent registry.  Sums commute,
/// so the merged totals are independent of which worker ran what when —
/// core pipeline counters stay aligned between in-process and --isolate
/// runs, which is what lets tools/report-diff.py diff the two modes clean.
///
/// Record keys (repeated; values are space-separated fields):
///   ctr=<name> <delta>               counters, merged by inc()
///   gauge=<name> <value>             gauges, merged by max() — only
///                                    peak-style gauges survive isolation
///   phase=<path> <seconds> <count>   phase stats, merged by addPhase()
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_OBS_METRICSWIRE_H
#define NARADA_OBS_METRICSWIRE_H

#include "obs/Metrics.h"
#include "support/Wire.h"

namespace narada {
namespace obs {

/// Appends every non-zero counter/gauge/phase of \p S to \p Out.
/// Histograms are not shipped: none are currently observed inside work
/// units, and bucket merging would need registry surgery for a delta
/// nobody reads.
void appendMetricsDelta(wire::RecordWriter &Out, const MetricsSnapshot &S);

/// Merges a delta read from \p In into \p Registry.
void mergeMetricsDelta(const wire::RecordReader &In,
                       MetricsRegistry &Registry = MetricsRegistry::global());

} // namespace obs
} // namespace narada

#endif // NARADA_OBS_METRICSWIRE_H
