//===- obs/MetricsWire.cpp - Worker metrics delta codec ------------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "obs/MetricsWire.h"

#include "support/StringUtils.h"

#include <cstdlib>

using namespace narada;
using namespace narada::obs;

void obs::appendMetricsDelta(wire::RecordWriter &Out,
                             const MetricsSnapshot &S) {
  for (const auto &[Name, Value] : S.Counters)
    if (Value)
      Out.add("ctr", formatString("%s %llu", Name.c_str(),
                                  static_cast<unsigned long long>(Value)));
  for (const auto &[Name, Value] : S.Gauges)
    if (Value)
      Out.add("gauge", formatString("%s %lld", Name.c_str(),
                                    static_cast<long long>(Value)));
  for (const auto &[Path, Stat] : S.Phases)
    if (Stat.Count)
      Out.add("phase",
              formatString("%s %.17g %llu", Path.c_str(), Stat.Seconds,
                           static_cast<unsigned long long>(Stat.Count)));
}

namespace {

/// Splits "name field1 [field2]" into the name and up to two numeric
/// fields; false when the entry is malformed (skipped, never fatal — a
/// worker from a newer build must not crash the supervisor).
bool splitEntry(const std::string &Entry, std::string &Name, double &A,
                double &B, unsigned Wanted) {
  size_t Space = Entry.find(' ');
  if (Space == std::string::npos || Space == 0)
    return false;
  Name = Entry.substr(0, Space);
  const char *Cursor = Entry.c_str() + Space + 1;
  char *End = nullptr;
  A = std::strtod(Cursor, &End);
  if (End == Cursor)
    return false;
  if (Wanted < 2)
    return true;
  Cursor = End;
  B = std::strtod(Cursor, &End);
  return End != Cursor;
}

} // namespace

void obs::mergeMetricsDelta(const wire::RecordReader &In,
                            MetricsRegistry &Registry) {
  std::string Name;
  double A = 0, B = 0;
  for (const std::string &Entry : In.all("ctr"))
    if (splitEntry(Entry, Name, A, B, 1) && A > 0)
      Registry.counter(Name).inc(static_cast<uint64_t>(A));
  for (const std::string &Entry : In.all("gauge"))
    if (splitEntry(Entry, Name, A, B, 1))
      Registry.gauge(Name).max(static_cast<int64_t>(A));
  for (const std::string &Entry : In.all("phase"))
    if (splitEntry(Entry, Name, A, B, 2) && B > 0)
      Registry.addPhase(Name, A, static_cast<uint64_t>(B));
}
