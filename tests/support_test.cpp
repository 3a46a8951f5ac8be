//===- tests/support_test.cpp - support library unit tests ------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "support/Env.h"
#include "support/Error.h"
#include "support/RNG.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <set>
#include <string_view>
#include <vector>

using namespace narada;

TEST(StringUtilsTest, SplitBasic) {
  auto Pieces = split("a,b,c", ',');
  ASSERT_EQ(Pieces.size(), 3u);
  EXPECT_EQ(Pieces[0], "a");
  EXPECT_EQ(Pieces[1], "b");
  EXPECT_EQ(Pieces[2], "c");
}

TEST(StringUtilsTest, SplitKeepsEmptyPieces) {
  auto Pieces = split(",x,", ',');
  ASSERT_EQ(Pieces.size(), 3u);
  EXPECT_EQ(Pieces[0], "");
  EXPECT_EQ(Pieces[1], "x");
  EXPECT_EQ(Pieces[2], "");
}

TEST(StringUtilsTest, SplitOfEmptyStringIsOneEmptyPiece) {
  auto Pieces = split("", ',');
  ASSERT_EQ(Pieces.size(), 1u);
  EXPECT_EQ(Pieces[0], "");
}

TEST(StringUtilsTest, JoinRoundTripsSplit) {
  std::string Input = "p.q.r.s";
  EXPECT_EQ(join(split(Input, '.'), "."), Input);
}

TEST(StringUtilsTest, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringUtilsTest, StartsEndsWith) {
  EXPECT_TRUE(startsWith("Lib.update", "Lib"));
  EXPECT_FALSE(startsWith("Lib", "Library"));
  EXPECT_TRUE(endsWith("Lib.update", "update"));
  EXPECT_FALSE(endsWith("update", "Lib.update"));
}

TEST(StringUtilsTest, FormatString) {
  EXPECT_EQ(formatString("%d tests, %s races", 101, "187"),
            "101 tests, 187 races");
  EXPECT_EQ(formatString("empty"), "empty");
}

TEST(StringUtilsTest, FormatDouble) {
  EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(formatDouble(2.0, 1), "2.0");
}

TEST(StringUtilsTest, Padding) {
  EXPECT_EQ(padLeft("7", 3), "  7");
  EXPECT_EQ(padRight("ab", 4), "ab  ");
  EXPECT_EQ(padLeft("long", 2), "long");
}

TEST(ResultTest, SuccessCarriesValue) {
  Result<int> R = 42;
  ASSERT_TRUE(R);
  EXPECT_EQ(*R, 42);
}

TEST(ResultTest, ErrorCarriesMessage) {
  Result<int> R = Error("boom", "1:2");
  ASSERT_FALSE(R);
  EXPECT_EQ(R.error().message(), "boom");
  EXPECT_EQ(R.error().str(), "1:2: boom");
}

TEST(ResultTest, TakeMovesValue) {
  Result<std::string> R = std::string("payload");
  EXPECT_EQ(R.take(), "payload");
}

TEST(StatusTest, DefaultIsSuccess) {
  Status S;
  EXPECT_TRUE(S.ok());
  EXPECT_TRUE(Status::success().ok());
}

TEST(StatusTest, ErrorStateReportsMessage) {
  Status S = Error("failed");
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.error().message(), "failed");
}

TEST(RNGTest, DeterministicForSeed) {
  RNG A(7);
  RNG B(7);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RNGTest, DifferentSeedsDiverge) {
  RNG A(1);
  RNG B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_LT(Same, 4);
}

TEST(RNGTest, NextBelowStaysInRange) {
  RNG R(99);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.nextBelow(10), 10u);
}

TEST(RNGTest, NextBelowCoversAllValues) {
  RNG R(5);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 500; ++I)
    Seen.insert(R.nextBelow(7));
  EXPECT_EQ(Seen.size(), 7u);
}

TEST(RNGTest, NextBelowEqualsNextModuloBound) {
  // Small bounds take a mask or a constant divisor; every bound must still
  // draw exactly what next() % Bound would.
  std::vector<uint64_t> Bounds;
  for (uint64_t B = 1; B <= 64; ++B)
    Bounds.push_back(B);
  for (uint64_t B : {(1ULL << 32) + 1, (1ULL << 40) + 7, ~0ULL})
    Bounds.push_back(B);
  for (uint64_t B : Bounds) {
    RNG R(B);
    RNG Reference(B);
    for (int I = 0; I < 200; ++I)
      ASSERT_EQ(R.nextBelow(B), Reference.next() % B) << "bound " << B;
  }
}

TEST(RNGTest, ForkProducesIndependentStream) {
  RNG A(11);
  RNG B = A.fork();
  EXPECT_NE(A.next(), B.next());
}

TEST(TimerTest, MeasuresNonNegativeTime) {
  Timer T;
  EXPECT_GE(T.seconds(), 0.0);
  EXPECT_GE(T.millis(), 0.0);
}

// env::readOr / env::jobs: unset means the caller's default, a good value
// parses, and a bad value falls back to the default (with a warning) rather
// than escalating — an unparseable NARADA_JOBS must never become 0/"all".
TEST(EnvTest, ReadOrFallsBackToDefaultNotEscalation) {
  ASSERT_EQ(unsetenv("NARADA_JOBS"), 0);
  EXPECT_EQ(env::jobs(), 1u);
  EXPECT_EQ(env::jobs(3), 3u);

  ASSERT_EQ(setenv("NARADA_JOBS", "4", 1), 0);
  EXPECT_EQ(env::jobs(), 4u);
  EXPECT_EQ(env::jobs(7), 4u) << "a parseable value wins over the default";

  ASSERT_EQ(setenv("NARADA_JOBS", "many", 1), 0);
  EXPECT_EQ(env::jobs(), 1u) << "unparseable -> serial default";
  EXPECT_EQ(env::jobs(2), 2u) << "unparseable -> the caller's default";

  ASSERT_EQ(setenv("NARADA_JOBS", "0", 1), 0);
  EXPECT_EQ(env::jobs(), 0u) << "explicit 0 (all threads) is a valid value";

  ASSERT_EQ(unsetenv("NARADA_JOBS"), 0);
}

TEST(EnvTest, ReadOrSupportsCustomParsers) {
  ASSERT_EQ(setenv("NARADA_TEST_MODE", "fast", 1), 0);
  auto ParseMode = [](const char *Text, int &Out) {
    if (std::string_view(Text) == "fast") {
      Out = 2;
      return true;
    }
    return false;
  };
  EXPECT_EQ(env::readOr("NARADA_TEST_MODE", 1, ParseMode), 2);
  ASSERT_EQ(setenv("NARADA_TEST_MODE", "warp", 1), 0);
  EXPECT_EQ(env::readOr("NARADA_TEST_MODE", 1, ParseMode, "staying slow"), 1);
  ASSERT_EQ(unsetenv("NARADA_TEST_MODE"), 0);
}
