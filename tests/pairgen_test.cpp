//===- tests/pairgen_test.cpp - Pair feasibility unit tests --------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
// Direct tests of the lock-collision logic at the heart of §3.3: two lock
// objects coincide under the planned sharing exactly when both are reached
// *through* the shared object by the same suffix.  These construct
// AccessRecords by hand to cover each geometric case.
//
//===----------------------------------------------------------------------===//

#include "analysis/AccessPath.h"
#include "synth/PairGenerator.h"

#include <gtest/gtest.h>

using namespace narada;

namespace {

AccessPath path(int Root, std::initializer_list<const char *> Fields) {
  std::vector<std::string> Out;
  for (const char *F : Fields)
    Out.emplace_back(F);
  return AccessPath(Root, std::move(Out));
}

AccessRecord record(AccessPath Base,
                    std::vector<std::optional<AccessPath>> Locks) {
  AccessRecord R;
  R.BasePath = std::move(Base);
  R.HeldLockPaths = std::move(Locks);
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// AccessPath
//===----------------------------------------------------------------------===//

TEST(AccessPathTest, StrRendering) {
  EXPECT_EQ(path(0, {}).str(), "I0");
  EXPECT_EQ(path(2, {"x", "o"}).str(), "I2.x.o");
  EXPECT_EQ(path(ReturnRoot, {"queue"}).str(), "Ir.queue");
}

TEST(AccessPathTest, PrefixRelation) {
  AccessPath Base = path(0, {"x"});
  EXPECT_TRUE(path(0, {"x", "o"}).hasPrefix(Base));
  EXPECT_TRUE(Base.hasPrefix(Base));
  EXPECT_FALSE(path(0, {"y", "o"}).hasPrefix(Base));
  EXPECT_FALSE(path(1, {"x", "o"}).hasPrefix(Base)) << "different root";
  EXPECT_FALSE(path(0, {}).hasPrefix(Base)) << "shorter than prefix";
}

TEST(AccessPathTest, SuffixAfter) {
  AccessPath Deep = path(0, {"x", "o", "v"});
  auto Suffix = Deep.suffixAfter(path(0, {"x"}));
  ASSERT_EQ(Suffix.size(), 2u);
  EXPECT_EQ(Suffix[0], "o");
  EXPECT_EQ(Suffix[1], "v");
  EXPECT_TRUE(Deep.suffixAfter(Deep).empty());
}

TEST(AccessPathTest, AppendParentRoundTrip) {
  AccessPath P = path(0, {"x"});
  AccessPath Child = P.appended("o");
  EXPECT_EQ(Child.str(), "I0.x.o");
  EXPECT_EQ(Child.parent(), P);
}

TEST(AccessPathTest, Ordering) {
  EXPECT_LT(path(0, {}), path(1, {}));
  EXPECT_LT(path(0, {"a"}), path(0, {"b"}));
  EXPECT_FALSE(path(0, {"a"}) < path(0, {"a"}));
}

//===----------------------------------------------------------------------===//
// locksCollideUnderSharing — the §3.3 feasibility geometry
//===----------------------------------------------------------------------===//

TEST(LockCollisionTest, NoLocksNeverCollide) {
  AccessRecord A = record(path(0, {}), {});
  AccessRecord B = record(path(0, {}), {});
  EXPECT_FALSE(locksCollideUnderSharing(A, B));
}

TEST(LockCollisionTest, LockOnSharedBaseCollides) {
  // Both sides lock exactly the object being shared: synchronized methods
  // on a shared receiver serialize — no race.
  AccessRecord A = record(path(0, {}), {path(0, {})});
  AccessRecord B = record(path(0, {}), {path(0, {})});
  EXPECT_TRUE(locksCollideUnderSharing(A, B));
}

TEST(LockCollisionTest, LockAboveSharedObjectDoesNotCollide) {
  // Fig. 8/Fig. 13 geometry: lock on the receiver (I0), access through
  // I0.x.  Sharing I0.x keeps the receivers distinct, so the locks differ.
  AccessRecord A = record(path(0, {"x"}), {path(0, {})});
  AccessRecord B = record(path(0, {"x"}), {path(0, {})});
  EXPECT_FALSE(locksCollideUnderSharing(A, B));
}

TEST(LockCollisionTest, LockInsideSharedSubtreeCollides) {
  // The lock is *below* the shared object by the same suffix on both
  // sides: sharing the base forces one lock object.
  AccessRecord A = record(path(0, {"x"}), {path(0, {"x", "mutex"})});
  AccessRecord B = record(path(0, {"x"}), {path(0, {"x", "mutex"})});
  EXPECT_TRUE(locksCollideUnderSharing(A, B));
}

TEST(LockCollisionTest, DifferentSuffixesInsideSubtreeDoNotCollide) {
  AccessRecord A = record(path(0, {"x"}), {path(0, {"x", "m1"})});
  AccessRecord B = record(path(0, {"x"}), {path(0, {"x", "m2"})});
  EXPECT_FALSE(locksCollideUnderSharing(A, B));
}

TEST(LockCollisionTest, ReceiverMutexFieldCollidesUnderReceiverSharing) {
  // synchronized(this.mutex) around an access to a receiver field: sharing
  // the receiver shares the mutex (suffix "mutex" on both sides).
  AccessRecord A = record(path(0, {}), {path(0, {"mutex"})});
  AccessRecord B = record(path(0, {}), {path(0, {"mutex"})});
  EXPECT_TRUE(locksCollideUnderSharing(A, B));
}

TEST(LockCollisionTest, UnknownLockPathNeverCollides) {
  // A monitor on a library-internal object is fresh per invocation.
  AccessRecord A = record(path(0, {}), {std::nullopt});
  AccessRecord B = record(path(0, {}), {std::nullopt});
  EXPECT_FALSE(locksCollideUnderSharing(A, B));
}

TEST(LockCollisionTest, AsymmetricLocksOneSideUnlocked) {
  // Protected write vs unprotected read on the shared object: feasible —
  // the unlocked side never collides with anything.
  AccessRecord A = record(path(0, {}), {});
  AccessRecord B = record(path(0, {}), {path(0, {})});
  EXPECT_FALSE(locksCollideUnderSharing(A, B));
}

TEST(LockCollisionTest, CrossRootSharing) {
  // Thread 1 accesses via its argument (I1), thread 2 via its receiver
  // (I0): sharing arg1 == recv2.  Locks above the shared object differ.
  AccessRecord A = record(path(1, {}), {path(0, {})});
  AccessRecord B = record(path(0, {}), {path(0, {})});
  // A's lock is its receiver (not the shared arg), B's lock IS the shared
  // receiver: A's lock path I0 does not extend A's base I1 -> no collide.
  EXPECT_FALSE(locksCollideUnderSharing(A, B));
}

TEST(LockCollisionTest, MultipleLocksAnyCollisionCounts) {
  AccessRecord A =
      record(path(0, {"x"}), {path(0, {}), path(0, {"x", "guard"})});
  AccessRecord B = record(path(0, {"x"}), {path(0, {"x", "guard"})});
  EXPECT_TRUE(locksCollideUnderSharing(A, B));
}

//===----------------------------------------------------------------------===//
// generatePairs filtering
//===----------------------------------------------------------------------===//

namespace {

AccessRecord libAccess(const std::string &Method, const std::string &Field,
                       bool IsWrite, bool Unprotected, AccessPath Base,
                       std::vector<std::optional<AccessPath>> Locks = {}) {
  AccessRecord R;
  R.ClassName = "Lib";
  R.Method = Method;
  R.Field = Field;
  R.FieldClassName = "Inner";
  R.IsWrite = IsWrite;
  R.Unprotected = Unprotected;
  R.BasePath = std::move(Base);
  R.HeldLockPaths = std::move(Locks);
  return R;
}

} // namespace

TEST(PairGenTest2, ReadReadDoesNotPair) {
  AnalysisResult Analysis;
  Analysis.Accesses.push_back(
      libAccess("m1", "f", false, true, path(0, {})));
  Analysis.Accesses.push_back(
      libAccess("m2", "f", false, true, path(0, {})));
  EXPECT_TRUE(generatePairs(Analysis).empty());
}

TEST(PairGenTest2, WriteAnchorsPair) {
  AnalysisResult Analysis;
  Analysis.Accesses.push_back(libAccess("m1", "f", true, true, path(0, {})));
  Analysis.Accesses.push_back(
      libAccess("m2", "f", false, true, path(0, {})));
  auto Pairs = generatePairs(Analysis);
  // m1/m1 (same label write-write) and m1/m2 in both roles dedupe to two.
  EXPECT_EQ(Pairs.size(), 2u);
}

TEST(PairGenTest2, DifferentFieldsNeverPair) {
  AnalysisResult Analysis;
  Analysis.Accesses.push_back(libAccess("m1", "f", true, true, path(0, {})));
  Analysis.Accesses.push_back(libAccess("m2", "g", true, true, path(0, {})));
  for (const RacyPair &Pair : generatePairs(Analysis))
    EXPECT_EQ(Pair.First.Method, Pair.Second.Method)
        << "cross-field pair " << Pair.str();
}

TEST(PairGenTest2, ProtectedOnlyAccessesNeedUnprotectedAnchor) {
  AnalysisResult Analysis;
  Analysis.Accesses.push_back(libAccess("m1", "f", true, false, path(0, {}),
                                        {path(0, {})}));
  Analysis.Accesses.push_back(libAccess("m2", "f", true, false, path(0, {}),
                                        {path(0, {})}));
  EXPECT_TRUE(generatePairs(Analysis).empty());
}

TEST(PairGenTest2, ConstructorAccessesDiscardedByDefault) {
  AnalysisResult Analysis;
  AccessRecord R = libAccess("init", "f", true, true, path(0, {}));
  R.InConstructor = true;
  Analysis.Accesses.push_back(R);
  EXPECT_TRUE(generatePairs(Analysis).empty());
}

TEST(PairGenTest2, FocusClassFilters) {
  AnalysisResult Analysis;
  Analysis.Accesses.push_back(libAccess("m1", "f", true, true, path(0, {})));
  AccessRecord Other = libAccess("m2", "f", true, true, path(0, {}));
  Other.ClassName = "Elsewhere";
  Analysis.Accesses.push_back(Other);

  PairGenOptions Options;
  Options.FocusClass = "Elsewhere";
  for (const RacyPair &Pair : generatePairs(Analysis, Options)) {
    EXPECT_EQ(Pair.First.ClassName, "Elsewhere");
    EXPECT_EQ(Pair.Second.ClassName, "Elsewhere");
  }
}

TEST(PairGenTest2, UncontrollableBasesAreSkipped) {
  AnalysisResult Analysis;
  AccessRecord R = libAccess("m1", "f", true, true, path(0, {}));
  R.BasePath = std::nullopt;
  R.Unprotected = false; // Uncontrollable accesses are never unprotected.
  Analysis.Accesses.push_back(R);
  EXPECT_TRUE(generatePairs(Analysis).empty());
}

TEST(PairGenTest2, PairKeyIsOrderInsensitive) {
  RacyPair P1, P2;
  P1.FieldClassName = P2.FieldClassName = "C";
  P1.Field = P2.Field = "f";
  P1.First = {"Lib", "m1", "Lib.m1:3", path(0, {}), true};
  P1.Second = {"Lib", "m2", "Lib.m2:5", path(0, {}), false};
  P2.First = P1.Second;
  P2.Second = P1.First;
  EXPECT_EQ(P1.key(), P2.key());
}
