// Tests for the word-packed frontier bitmap (PR 9): set/clear/popcount,
// set-bit iteration, union views, and concurrent word updates (the
// TSan-relevant case: many threads hammering bits that share words).

#include "common/bitmap.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace serigraph {
namespace {

TEST(BitmapTest, StartsEmpty) {
  Bitmap b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_EQ(b.WordCount(), 3u);
  EXPECT_EQ(b.Popcount(), 0u);
  EXPECT_FALSE(b.AnySet());
  for (size_t i = 0; i < 130; ++i) EXPECT_FALSE(b.Test(i));
}

TEST(BitmapTest, SetClearTest) {
  Bitmap b(200);
  EXPECT_TRUE(b.Set(0));
  EXPECT_TRUE(b.Set(63));
  EXPECT_TRUE(b.Set(64));
  EXPECT_TRUE(b.Set(199));
  EXPECT_FALSE(b.Set(63)) << "second set of the same bit reports no change";
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(63));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(199));
  EXPECT_FALSE(b.Test(1));
  EXPECT_EQ(b.Popcount(), 4u);
  EXPECT_TRUE(b.AnySet());

  EXPECT_TRUE(b.Clear(63));
  EXPECT_FALSE(b.Clear(63)) << "second clear reports no change";
  EXPECT_FALSE(b.Test(63));
  EXPECT_EQ(b.Popcount(), 3u);
}

TEST(BitmapTest, SerialVariantsMatchAtomic) {
  Bitmap a(150), b(150);
  for (size_t i = 0; i < 150; i += 7) {
    a.Set(i);
    b.SetSerial(i);
  }
  a.Clear(14);
  b.ClearSerial(14);
  ASSERT_EQ(a.WordCount(), b.WordCount());
  for (size_t w = 0; w < a.WordCount(); ++w) EXPECT_EQ(a.word(w), b.word(w));
}

TEST(BitmapTest, SetAllRespectsTailBits) {
  Bitmap b(70);  // 6 trailing bits in the second word must stay clear
  b.SetAll();
  EXPECT_EQ(b.Popcount(), 70u);
  for (size_t i = 0; i < 70; ++i) EXPECT_TRUE(b.Test(i));
  b.ClearAll();
  EXPECT_EQ(b.Popcount(), 0u);
  EXPECT_FALSE(b.AnySet());
}

TEST(BitmapTest, SetAllExactWordBoundary) {
  Bitmap b(128);
  b.SetAll();
  EXPECT_EQ(b.Popcount(), 128u);
  EXPECT_EQ(b.word(1), ~uint64_t{0});
}

TEST(BitmapTest, ResetClearsAndResizes) {
  Bitmap b(64);
  b.SetAll();
  b.Reset(300);
  EXPECT_EQ(b.size(), 300u);
  EXPECT_EQ(b.Popcount(), 0u);
}

TEST(BitmapTest, ForEachSetBitAscendingAndComplete) {
  Bitmap b(513);
  std::vector<size_t> want = {0, 1, 62, 63, 64, 127, 128, 300, 511, 512};
  for (size_t i : want) b.Set(i);
  std::vector<size_t> got;
  b.ForEachSetBit([&](size_t i) { got.push_back(i); });
  EXPECT_EQ(got, want);
}

TEST(BitmapTest, ForEachSetBitSkipsEmpty) {
  Bitmap b(1 << 16);
  b.Set(40000);
  size_t calls = 0, where = 0;
  b.ForEachSetBit([&](size_t i) {
    ++calls;
    where = i;
  });
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(where, 40000u);
}

TEST(BitmapTest, UnionViews) {
  Bitmap a(130), b(130);
  a.Set(3);
  a.Set(64);
  b.Set(64);
  b.Set(129);
  EXPECT_EQ(a.PopcountUnion(b), 3u);
  std::vector<size_t> got;
  a.ForEachSetBitUnion(b, [&](size_t i) { got.push_back(i); });
  EXPECT_EQ(got, (std::vector<size_t>{3, 64, 129}));
}

// A bool callback ends the union walk at its first `false`, even when
// more set bits remain in the same word.
TEST(BitmapTest, UnionWalkStopsMidWord) {
  Bitmap a(200), b(200);
  for (size_t i : {5u, 9u, 20u, 70u}) a.Set(i);
  for (size_t i : {7u, 150u}) b.Set(i);
  std::vector<size_t> got;
  a.ForEachSetBitUnion(b, [&](size_t i) {
    got.push_back(i);
    return i != 9;  // 9 is the third bit of word 0; 20 shares its word
  });
  EXPECT_EQ(got, (std::vector<size_t>{5, 7, 9}));
}

TEST(BitmapTest, UnionWalkStopsAtFirstBit) {
  Bitmap a(130), b(130);
  a.Set(64);
  b.Set(65);
  size_t calls = 0;
  a.ForEachSetBitUnion(b, [&](size_t) {
    ++calls;
    return false;
  });
  EXPECT_EQ(calls, 1u);
}

// Visits stay ascending across the union, whichever side a bit is from,
// and a callback that never says stop sees every bit.
TEST(BitmapTest, UnionWalkAscendingAcrossSides) {
  Bitmap a(300), b(300);
  const std::vector<size_t> from_a = {0, 63, 128, 299};
  const std::vector<size_t> from_b = {1, 64, 127, 200, 299};
  for (size_t i : from_a) a.Set(i);
  for (size_t i : from_b) b.Set(i);
  const std::vector<size_t> want = {0, 1, 63, 64, 127, 128, 200, 299};
  std::vector<size_t> got;
  a.ForEachSetBitUnion(b, [&](size_t i) {
    got.push_back(i);
    return true;
  });
  EXPECT_EQ(got, want);
}

// A void callback keeps the old contract: no early exit, every bit.
TEST(BitmapTest, UnionWalkVoidCallbackVisitsAll) {
  Bitmap a(256), b(256);
  a.SetAll();
  b.Set(17);
  size_t calls = 0;
  a.ForEachSetBitUnion(b, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 256u);
}

// Many threads set interleaved bits that share words: under TSan this
// validates the relaxed fetch_or protocol, and the final popcount
// validates that no RMW was lost.
TEST(BitmapTest, ConcurrentSetSharedWords) {
  constexpr size_t kBits = 64 * 64;  // 64 words
  constexpr int kThreads = 8;
  Bitmap b(kBits);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&b, t] {
      // Thread t owns bits with i % kThreads == t: every word is written
      // by all threads.
      for (size_t i = static_cast<size_t>(t); i < kBits; i += kThreads) {
        b.Set(i);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(b.Popcount(), kBits);
  for (size_t i = 0; i < kBits; ++i) ASSERT_TRUE(b.Test(i));
}

TEST(BitmapTest, ConcurrentSetClearDisjointBits) {
  constexpr size_t kBits = 64 * 32;
  Bitmap b(kBits);
  b.SetAll();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&b, t] {
      // Clear even bits in this thread's quarter, then re-set half of them:
      // clears and sets race on shared words but never on the same bit.
      const size_t begin = kBits / 4 * static_cast<size_t>(t);
      const size_t end = begin + kBits / 4;
      for (size_t i = begin; i < end; i += 2) b.Clear(i);
      for (size_t i = begin; i < end; i += 4) b.Set(i);
    });
  }
  for (auto& th : threads) th.join();
  // Per quarter: odd bits stayed set (kBits/8), every 4th bit re-set
  // (kBits/16).
  EXPECT_EQ(b.Popcount(), kBits / 2 + kBits / 4);
}

TEST(FrontierTest, EligibleCountAndDensity) {
  Frontier f;
  f.Reset(1000);
  for (size_t i = 0; i < 100; ++i) f.active.SetSerial(i);
  for (size_t i = 50; i < 200; ++i) f.pending.SetSerial(i);
  EXPECT_EQ(f.EligibleCount(), 200u);  // union of [0,100) and [50,200)
  EXPECT_EQ(Frontier::DensityMilli(f.EligibleCount(), 1000), 200);
  EXPECT_EQ(Frontier::DensityMilli(0, 1000), 0);
  EXPECT_EQ(Frontier::DensityMilli(1000, 1000), 1000);
  EXPECT_EQ(Frontier::DensityMilli(5, 0), 0) << "empty graph guards div0";
}

}  // namespace
}  // namespace serigraph
