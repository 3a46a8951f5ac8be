//===- support/RaceKey.h - Stable, collision-free race identity -*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The canonical race identity shared by the dynamic detectors, the static
/// verdict annotator, and the race database: `Class.field{labelA~labelB}`
/// with the label pair sorted so the identity is unordered.  The raw
/// concatenation used historically is ambiguous — a class name containing
/// `.` or a label containing `~`/`}` can collide with a different race —
/// so every component is escaped before joining:
///
///   `\`  ->  `\\`        (all components)
///   `{`  ->  `\{`        (all components)
///   `}`  ->  `\}`        (all components)
///   `~`  ->  `\~`        (all components)
///   `.`  ->  `\.`        (class name only; labels/fields keep raw dots)
///
/// The encoding is the identity function on every key the corpus produces
/// today (plain identifiers, `[]` element fields, `Class.method:pc`
/// labels), so existing reports, goldens, and bench baselines do not
/// drift.  parseRaceKey() inverts makeRaceKey() exactly and rejects
/// anything ambiguous; canonicalRaceKey() upgrades keys written by the
/// pre-escaping format on a best-effort split (first `.`, first `{`,
/// first `~`, trailing `}`) so old databases stay readable.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_SUPPORT_RACEKEY_H
#define NARADA_SUPPORT_RACEKEY_H

#include <optional>
#include <string>
#include <string_view>

namespace narada {

/// The four components of a race identity, unescaped.
struct RaceKeyParts {
  std::string ClassName;
  std::string Field;       ///< Field name, or "[]" for array elements.
  std::string FirstLabel;  ///< Sorted: FirstLabel <= SecondLabel.
  std::string SecondLabel;
};

/// Escapes one key component.  \p EscapeDot additionally escapes `.`,
/// which only the class-name position needs (the class/field separator is
/// the first unescaped dot; fields and labels may contain raw dots).
std::string escapeRaceKeyComponent(std::string_view Raw, bool EscapeDot);

/// Builds the canonical escaped key.  The label pair is sorted on the raw
/// (unescaped) strings, matching the historical ordering.
std::string makeRaceKey(std::string_view ClassName, std::string_view Field,
                        std::string_view LabelA, std::string_view LabelB);
std::string makeRaceKey(const RaceKeyParts &Parts);

/// Strict inverse of makeRaceKey(): splits at the first unescaped `.`,
/// first unescaped `{`, first unescaped `~`, and a final unescaped `}`
/// that must terminate the string; any unescaped special character inside
/// a component is a parse failure.  Returns the unescaped components.
std::optional<RaceKeyParts> parseRaceKey(std::string_view Key);

/// One-time migration for keys written before escaping existed: splits on
/// the first `.`, first `{`, first `~` and the trailing `}` with no
/// escape awareness, then re-encodes canonically.  Returns std::nullopt
/// when the key has no recognizable shape at all.
std::optional<RaceKeyParts> parseLegacyRaceKey(std::string_view Key);

/// Canonicalizes \p Key for the race database loader: already-canonical
/// keys pass through byte-identical; legacy keys are re-encoded (setting
/// \p Migrated); unrecognizable keys return std::nullopt.
std::optional<std::string> canonicalRaceKey(std::string_view Key,
                                            bool &Migrated);

} // namespace narada

#endif // NARADA_SUPPORT_RACEKEY_H
