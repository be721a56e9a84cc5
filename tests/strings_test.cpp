// Unit tests for string helpers and the deterministic RNGs.
#include "base/rng.hpp"
#include "base/strings.hpp"

#include <gtest/gtest.h>

namespace hlshc {
namespace {

TEST(Strings, Split) {
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitLinesHandlesCrLfAndMissingFinalNewline) {
  auto lines = split_lines("one\r\ntwo\nthree");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "one");
  EXPECT_EQ(lines[1], "two");
  EXPECT_EQ(lines[2], "three");
}

TEST(Strings, SplitLinesEmpty) {
  EXPECT_TRUE(split_lines("").empty());
  EXPECT_EQ(split_lines("\n").size(), 1u);
}

TEST(Strings, TrimAndBlank) {
  EXPECT_EQ(trim("  x \t"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_TRUE(is_blank(" \t "));
  EXPECT_FALSE(is_blank(" . "));
}

TEST(Strings, FormatFixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.0, 1), "2.0");
}

TEST(Strings, FormatGrouped) {
  EXPECT_EQ(format_grouped(0), "0");
  EXPECT_EQ(format_grouped(999), "999");
  EXPECT_EQ(format_grouped(1182240), "1,182,240");
  EXPECT_EQ(format_grouped(-56780), "-56,780");
}

TEST(Ieee1180Rng, BoundsRespectAsymmetricRange) {
  Ieee1180Rng rng(1);
  for (int i = 0; i < 100000; ++i) {
    long v = rng.next(256, 255);
    EXPECT_GE(v, -255);
    EXPECT_LE(v, 256);
  }
}

TEST(Ieee1180Rng, DeterministicForSeed) {
  Ieee1180Rng a(1), b(1);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(5, 5), b.next(5, 5));
  Ieee1180Rng c(2);
  bool any_diff = false;
  Ieee1180Rng a2(1);
  for (int i = 0; i < 100; ++i)
    if (a2.next(300, 300) != c.next(300, 300)) any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(SplitMix64, RangeHelper) {
  SplitMix64 rng(42);
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.next_in(-2048, 2047);
    EXPECT_GE(v, -2048);
    EXPECT_LE(v, 2047);
  }
}

}  // namespace
}  // namespace hlshc
