//===- support/Env.h - Environment-variable configuration -------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One policy for reading NARADA_* configuration variables: unset means the
/// caller's default, and a set-but-unusable value falls back to that same
/// default with a stderr warning — never silently, and never escalating to
/// a different behavior than the default (e.g. an unparseable NARADA_JOBS
/// must not degrade to 0/"all hardware threads").  The CLI and every bench
/// driver read NARADA_JOBS/NARADA_EXPLORE through these helpers so the
/// semantics cannot drift between entry points.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_SUPPORT_ENV_H
#define NARADA_SUPPORT_ENV_H

#include "support/Parallel.h"

#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace narada {
namespace env {

/// Reads environment variable \p Var through \p Parse (signature
/// `bool(const char *, T &)`, true on success).  Unset -> \p Default
/// silently; set but rejected -> \p Default with a warning naming the
/// variable, the offending value, and \p FallbackNote (what the fallback
/// behavior is; may be null for just "ignoring").
template <typename T, typename ParseFn>
T readOr(const char *Var, T Default, ParseFn Parse,
         const char *FallbackNote = nullptr) {
  const char *Text = std::getenv(Var);
  if (!Text)
    return Default;
  T Value = Default;
  if (Parse(Text, Value))
    return Value;
  std::fprintf(stderr, "warning: ignoring unparseable %s='%s'%s%s\n", Var,
               Text, FallbackNote ? "; " : "",
               FallbackNote ? FallbackNote : "");
  return Default;
}

/// Worker-thread count from NARADA_JOBS (0 = all hardware threads),
/// defaulting to \p Default — 1, the serial measured configuration,
/// everywhere in the tree today.
inline unsigned jobs(unsigned Default = 1) {
  return readOr("NARADA_JOBS", Default, parseJobs,
                Default == 1 ? "running serial" : nullptr);
}

/// Out-of-process isolation toggle from NARADA_ISOLATE ("1"/"true" on,
/// "0"/"false" off), defaulting to \p Default — the env hook behind the
/// CLI's --isolate flag, so CI fleets can turn crash containment on
/// without touching every invocation.
inline bool isolate(bool Default = false) {
  return readOr(
      "NARADA_ISOLATE", Default,
      [](const char *Text, bool &Out) {
        std::string_view V(Text);
        if (V == "1" || V == "true") {
          Out = true;
          return true;
        }
        if (V == "0" || V == "false") {
          Out = false;
          return true;
        }
        return false;
      },
      Default ? "isolation stays on" : "running in-process");
}

} // namespace env
} // namespace narada

#endif // NARADA_SUPPORT_ENV_H
