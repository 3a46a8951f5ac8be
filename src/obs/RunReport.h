//===- obs/RunReport.h - Structured JSON run reports ------------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pipeline's flight recorder: one JSON document per run, combining
/// run identity (tool, command, input, corpus id, seed, options) with a
/// MetricsSnapshot (phase wall times, stage counters, histograms).  The
/// schema is documented in docs/OBSERVABILITY.md; tools/report-diff.py
/// compares two reports for regressions.  Every CLI subcommand
/// (--report/--stats) and every bench driver emits this same document, so
/// BENCH_*.json trajectories are self-describing.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_OBS_RUNREPORT_H
#define NARADA_OBS_RUNREPORT_H

#include "obs/Metrics.h"
#include "support/Error.h"

#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace narada {
namespace obs {

/// One race in a report's "races" array: identity plus outcome, so two
/// runs' confirmed-race sets can be compared structurally (the CI
/// static-verdicts job does exactly that via report-diff.py --races-only).
struct RaceEntry {
  std::string Key;           ///< RaceReport::key() ("Class.field{A~B}").
  std::string StaticVerdict; ///< Static pre-analysis verdict; "" when the
                             ///< run was dynamic-only.
  bool Reproduced = false;   ///< Confirmed by the RaceFuzzer protocol.
  bool Harmful = false;      ///< Reproduction diverged from serial runs.
  /// Provenance for the race database (schema_version >= 3); all three
  /// are serialized only when set, so dynamic-only runs stay compact.
  std::vector<std::string> Detectors; ///< "hb"/"lockset" that reported it.
  bool WriteWrite = false;   ///< Both access sites are writes.
  std::string Witness;       ///< Recorded witness trace path, if any.
};

/// Identity of one pipeline run; everything except the metrics.
struct RunMeta {
  std::string Tool;    ///< "narada-cli", "table4_synthesis", ...
  std::string Command; ///< CLI subcommand; empty for bench drivers.
  std::string Input;   ///< File path or "corpus:Cx".
  std::string CorpusId; ///< "C1".."C9" when the input is a corpus entry.
  std::string FocusClass;
  uint64_t Seed = 0;
  /// Free-form option key/value pairs worth recording (max tests,
  /// detection runs, ...), serialized under "options".
  std::vector<std::pair<std::string, std::string>> Options;
  /// Deduplicated races of the run; serialized (sorted by key) only when
  /// RecordRaces is set, so reports without a detection phase stay
  /// byte-compatible with older readers.
  std::vector<RaceEntry> Races;
  bool RecordRaces = false;

  void addOption(std::string Key, std::string Value) {
    Options.emplace_back(std::move(Key), std::move(Value));
  }

  void addRace(std::string Key, std::string StaticVerdict, bool Reproduced,
               bool Harmful) {
    RaceEntry Race;
    Race.Key = std::move(Key);
    Race.StaticVerdict = std::move(StaticVerdict);
    Race.Reproduced = Reproduced;
    Race.Harmful = Harmful;
    addRace(std::move(Race));
  }

  void addRace(RaceEntry Race) {
    Races.push_back(std::move(Race));
    RecordRaces = true;
  }
};

/// Renders the complete report document (schema narada.run_report/v1).
std::string renderRunReport(const RunMeta &Meta, const MetricsSnapshot &S);

/// Renders against the global registry's current state.
std::string renderRunReport(const RunMeta &Meta);

/// Writes the report to \p Path; false (with a warning log) on I/O error.
bool writeRunReport(const std::string &Path, const RunMeta &Meta);

/// Prints the human-readable --stats summary (phase times, key counters)
/// to \p Out (usually stderr).
void printRunStats(std::FILE *Out, const MetricsSnapshot &S);

/// A parsed narada.run_report/v1 document: identity plus the recorded
/// metrics, reconstructed into the same types the writer consumed.
struct ParsedRunReport {
  /// Writer revision within the v1 schema family; 1 when the report
  /// predates the member.  Diff tooling refuses mismatched versions.
  uint64_t SchemaVersion = 1;
  RunMeta Meta;
  MetricsSnapshot Metrics;
};

/// Parses and validates a run-report document.  Malformed input — a
/// truncated or non-JSON buffer, a wrong/missing schema marker, or a
/// member of the wrong type ("phases" not an object, a counter that is a
/// string, ...) — yields a structured Error naming the offending member,
/// never a crash.  Unknown phase/counter/option names are preserved
/// verbatim: the schema's maps are open-ended by design, so a newer
/// writer's report stays readable.
Result<ParsedRunReport> parseRunReport(std::string_view Text);

} // namespace obs
} // namespace narada

#endif // NARADA_OBS_RUNREPORT_H
