//===- synth/ContextDeriver.h - Narada stage 2b -----------------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Q query operator of §3.3 (Fig. 10): given a racy pair, derive the
/// method sequence a client must invoke so both threads' base objects are
/// one shared instance.  The derivation searches the stage-1 databases:
///
///  - *set*: a method assigns a parameter into the target field
///    (bar: I0.x <- I1.w; baz: I0.w <- I1 — the paper's running example);
///  - *concat* / *deep-set*: compose setters when the target is a deep path
///    or the setter's source is a field of its parameter;
///  - constructors count as setters (paper §4), realized as 'new T(S)';
///  - factory methods that wire an argument into the object they return
///    (the hazelcast createSafeWriteBehindQueue pattern) realize the target
///    binding at creation time.
///
/// When no complete derivation exists the deriver falls back to sharing a
/// prefix of the path (paper §4), producing a test that may not expose the
/// race — mirroring the paper's C4 results.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_SYNTH_CONTEXTDERIVER_H
#define NARADA_SYNTH_CONTEXTDERIVER_H

#include "support/RNG.h"
#include "synth/RacyPair.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace narada {

/// A recipe for producing one object instance, possibly constrained so that
/// a given field path resolves to the test's shared object.
struct ProvidePlan {
  enum class Kind {
    SharedObject,   ///< Use the shared object S itself.
    FromSeed,       ///< Any fresh instance obtained from a seed test.
    ViaSetter,      ///< Produce Base, then call Base.Method(..., Value, ...).
    ViaConstructor, ///< new ClassName(..., Value, ...).
    ViaFactory,     ///< Produce the factory (Base), call Base.Method(...,
                    ///< Value, ...) and use its return value.
  };

  Kind K = Kind::FromSeed;
  std::string ClassName; ///< Type of the produced instance.
  std::string Method;    ///< Setter/factory/constructor method name.
  /// Root index (1-based argument position) of the constrained parameter
  /// within Method's signature.
  int ConstrainedParam = 0;
  std::unique_ptr<ProvidePlan> Base;  ///< Mutated instance / factory receiver.
  std::unique_ptr<ProvidePlan> Value; ///< The constrained argument.
  bool Complete = true;

  /// "setter[A.bar(#1=plan)]" style rendering for tests and logs.
  std::string str() const;
};

/// The object-sharing recipe for one racy pair.
struct SharingPlan {
  /// Dynamic class of the shared object S.
  std::string SharedClassName;

  /// Per side: which invocation parameter is constrained (0 = receiver) and
  /// the recipe producing it.  When the side's path is empty the plan is
  /// simply SharedObject (pass S itself).
  struct Side {
    int Root = 0;
    std::unique_ptr<ProvidePlan> Plan;
    AccessPath EffectivePath; ///< Possibly a shortened prefix.
  };
  Side First;
  Side Second;

  /// False when a prefix fallback (or no sharing at all) was used: the test
  /// is still synthesized but may not expose the race.
  bool Complete = true;

  std::string str() const;
};

/// Derives sharing plans from the stage-1 analysis databases.  Keeps no
/// state between calls: every plan is computed from the run's own
/// databases.
class ContextDeriver {
public:
  ContextDeriver(const AnalysisResult &Analysis, const ProgramInfo &Info)
      : Analysis(Analysis), Info(Info) {}

  /// Derives the context for one racy pair.  With \p Seed unset the
  /// deriver deterministically picks the first applicable setter; with a
  /// seed it chooses uniformly among the complete candidate derivations
  /// on a stream private to this call — the paper's §4 behavior
  /// ("randomly selects one of the possible methods").  Pair-indexed
  /// seeds are what make randomized derivation reproducible independent
  /// of pair execution order.
  SharingPlan deriveSharing(const RacyPair &Pair,
                            std::optional<uint64_t> Seed = std::nullopt) const;

  /// Derives a recipe for an instance of \p ClassName whose \p Fields path
  /// resolves to the shared object, selecting by \p Seed as deriveSharing
  /// does.  Never returns null; incomplete plans are marked.  Exposed for
  /// testing.
  std::unique_ptr<ProvidePlan>
  derive(const std::string &ClassName, const std::vector<std::string> &Fields,
         std::optional<uint64_t> Seed = std::nullopt) const;

  /// The static type reached by walking \p Fields from \p ClassName through
  /// declared field types; empty when the walk fails.
  std::string typeAtPath(const std::string &ClassName,
                         const std::vector<std::string> &Fields) const;

  /// The declared class of the constrained root of \p Side (its receiver
  /// class or the parameter's class).
  std::string rootClassOf(const RacySide &Side) const;

private:
  /// The recursive worker behind derive(): \p Rand, when non-null, picks
  /// among complete candidates; null picks the first.
  std::unique_ptr<ProvidePlan> deriveImpl(const std::string &ClassName,
                                          const std::vector<std::string> &Fields,
                                          unsigned Depth, RNG *Rand) const;

  const AnalysisResult &Analysis;
  const ProgramInfo &Info;

  static constexpr unsigned MaxDepth = 5;
};

} // namespace narada

#endif // NARADA_SYNTH_CONTEXTDERIVER_H
