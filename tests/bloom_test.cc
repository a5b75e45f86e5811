// Tests for BloomFilter and the prefix Bloom filters: no false negatives,
// FPR close to the blocked form of Eq. 6, serialization round-trip, range
// probing semantics, and |K_l| prefix counting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "bloom/bloom_filter.h"
#include "bloom/prefix_bloom.h"
#include "util/bits.h"
#include "util/random.h"

namespace proteus {
namespace {

std::vector<uint64_t> RandomSortedKeys(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::set<uint64_t> s;
  while (s.size() < n) s.insert(rng.Next());
  return {s.begin(), s.end()};
}

TEST(BloomFilter, NoFalseNegativesInt) {
  auto keys = RandomSortedKeys(5000, 1);
  BloomFilter bf(keys.size() * 10, BloomFilter::OptimalHashes(keys.size() * 10,
                                                              keys.size()));
  EXPECT_EQ(bf.n_bits() % BloomFilter::kBlockBits, 0u);
  for (uint64_t k : keys) bf.InsertInt(k);
  for (uint64_t k : keys) EXPECT_TRUE(bf.MayContainInt(k));
}

TEST(BloomFilter, StringItems) {
  BloomFilter bf(4096, 4);
  std::vector<std::string> items = {"alpha", "beta", "gamma", std::string("a\0b", 3)};
  for (const auto& s : items) bf.InsertBytes(s);
  for (const auto& s : items) EXPECT_TRUE(bf.MayContainBytes(s));
}

TEST(BloomFilter, SerializationRoundTrip) {
  auto keys = RandomSortedKeys(1000, 4);
  BloomFilter bf(8192, 5);
  for (uint64_t k : keys) bf.InsertInt(k);
  std::string blob;
  bf.AppendTo(&blob);
  std::string_view view = blob;
  BloomFilter parsed;
  ASSERT_TRUE(BloomFilter::ParseFrom(&view, &parsed));
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(parsed.n_bits(), bf.n_bits());
  EXPECT_EQ(parsed.n_hashes(), bf.n_hashes());
  for (uint64_t k : keys) EXPECT_TRUE(parsed.MayContainInt(k));
  Rng rng(15);
  for (int i = 0; i < 2000; ++i) {
    uint64_t q = rng.Next();
    EXPECT_EQ(parsed.MayContainInt(q), bf.MayContainInt(q));
  }
}

TEST(BloomFilter, ParseRejectsTruncated) {
  BloomFilter bf(8192, 5);
  std::string blob;
  bf.AppendTo(&blob);
  for (size_t cut : {0ul, 8ul, 15ul, blob.size() - 1}) {
    std::string_view view(blob.data(), cut);
    BloomFilter parsed;
    EXPECT_FALSE(BloomFilter::ParseFrom(&view, &parsed)) << cut;
  }
}

TEST(BloomFilter, ParseChecksTagAndHashCount) {
  BloomFilter bf(8192, 5);
  std::string blob;
  bf.AppendTo(&blob);
  uint64_t header[2];
  std::memcpy(header, blob.data(), sizeof(header));
  EXPECT_EQ(header[1] >> 32, 1u);
  EXPECT_EQ(static_cast<uint32_t>(header[1]), 5u);
  // Tag 0 (the retired unblocked layout), a future tag, and a hash count
  // the constructor could not have produced are all rejected.
  for (uint64_t word1 : {uint64_t{5}, uint64_t{2} << 32 | 5,
                         uint64_t{1} << 32 | (BloomFilter::kMaxHashes + 1)}) {
    std::string bad = blob;
    std::memcpy(bad.data() + 8, &word1, sizeof(word1));
    std::string_view view = bad;
    BloomFilter parsed;
    EXPECT_FALSE(BloomFilter::ParseFrom(&view, &parsed)) << word1;
  }
  // A default-constructed filter has no bits and no layout: it round-trips,
  // and parses under tag 0 too.
  std::string empty_blob;
  BloomFilter().AppendTo(&empty_blob);
  for (uint64_t tag : {uint64_t{1}, uint64_t{0}}) {
    const uint64_t word1 = tag << 32;
    std::memcpy(empty_blob.data() + 8, &word1, sizeof(word1));
    std::string_view view = empty_blob;
    BloomFilter parsed;
    ASSERT_TRUE(BloomFilter::ParseFrom(&view, &parsed)) << tag;
    EXPECT_TRUE(parsed.empty());
    EXPECT_TRUE(parsed.MayContainInt(42));
  }
}

TEST(BloomFilter, OptimalHashesCap) {
  EXPECT_EQ(BloomFilter::OptimalHashes(1 << 20, 10), 32u);  // capped
  EXPECT_EQ(BloomFilter::OptimalHashes(1000, 1000), 1u);
  EXPECT_EQ(BloomFilter::OptimalHashes(10000, 1000), 7u);  // ceil(10*ln2)=7
}

TEST(BlockedBloomFilter, FprMatchesBlockedTheory) {
  auto keys = RandomSortedKeys(20000, 12);
  std::set<uint64_t> keyset(keys.begin(), keys.end());
  for (uint64_t bpk : {8, 12, 16}) {
    uint64_t m = keys.size() * bpk;
    const uint32_t n_hashes = BloomFilter::OptimalHashes(m, keys.size());
    BloomFilter bf(m, n_hashes);
    for (uint64_t k : keys) bf.InsertInt(k);
    Rng rng(13);
    int fp = 0;
    int probes = 200000;
    for (int i = 0; i < probes; ++i) {
      uint64_t q = rng.Next();
      if (keyset.count(q)) {
        --i;
        continue;
      }
      if (bf.MayContainInt(q)) ++fp;
    }
    double observed = static_cast<double>(fp) / probes;
    // Textbook Eq. 6, as if the k probes spanned the whole array.
    double unblocked = std::pow(
        1.0 - std::exp(-static_cast<double>(n_hashes * keys.size()) / m),
        n_hashes);
    double blocked = BloomFilter::TheoreticalFpr(m, keys.size());
    // Blocking pays a real FPR premium over the textbook formula, and the
    // Poisson-mixture model must price it accurately.
    EXPECT_GT(blocked, unblocked) << "bpk=" << bpk;
    EXPECT_NEAR(observed, blocked, blocked * 0.35 + 0.002) << "bpk=" << bpk;
  }
}

TEST(PrefixBloom, ProbeRangeMatchesPerPrefixProbes) {
  auto keys = RandomSortedKeys(3000, 17);
  PrefixBloom pb(keys, keys.size() * 12, 52);
  Rng rng(18);
  for (int i = 0; i < 3000; ++i) {
    uint64_t first = rng.Next() >> 12;
    uint64_t last = first + rng.NextBelow(40);
    bool expected = false;
    for (uint64_t p = first; p <= last && !expected; ++p) {
      expected = pb.ProbePrefix(p);
    }
    ASSERT_EQ(pb.ProbeRange(first, last), expected)
        << "[" << first << "," << last << "]";
  }
}

TEST(PrefixBloom, NoFalseNegativesOnCoveringRanges) {
  auto keys = RandomSortedKeys(2000, 5);
  for (uint32_t l : {8u, 16u, 24u, 40u, 64u}) {
    PrefixBloom pb(keys, keys.size() * 12, l);
    for (uint64_t k : keys) {
      // Any range containing k must return positive.
      EXPECT_TRUE(pb.MayContain(k, k)) << "l=" << l;
      uint64_t lo = k == 0 ? 0 : k - 1;
      uint64_t hi = k == ~uint64_t{0} ? k : k + 1;
      EXPECT_TRUE(pb.MayContain(lo, hi)) << "l=" << l;
    }
  }
}

TEST(PrefixBloom, ShortPrefixCoarseness) {
  // With an 8-bit prefix, any query inside an occupied 2^56-sized region is
  // an (expected) positive even if far from the key.
  std::vector<uint64_t> keys = {uint64_t{0xAB} << 56};
  PrefixBloom pb(keys, 1 << 12, 8);
  EXPECT_TRUE(pb.MayContain((uint64_t{0xAB} << 56) + 12345,
                            (uint64_t{0xAB} << 56) + 99999));
  // A query in an unoccupied region is almost surely negative at this size.
  int positives = 0;
  for (uint64_t p = 0; p < 200; ++p) {
    uint64_t base = (p % 2 == 0 ? uint64_t{0x10} : uint64_t{0x20}) << 56;
    if (pb.MayContain(base + p * 1000, base + p * 1000 + 10)) ++positives;
  }
  EXPECT_LT(positives, 10);
}

TEST(PrefixBloom, ProbeLimitConservative) {
  std::vector<uint64_t> keys = {1, 2, 3};
  PrefixBloom pb(keys, 4096, 64);
  // A full-key-space query would need 2^64 probes; must return true.
  EXPECT_TRUE(pb.MayContain(0, ~uint64_t{0}, /*probe_limit=*/1024));
}

TEST(StrPrefixBloom, NoFalseNegatives) {
  std::vector<std::string> keys = {"apple",  "apricot", "banana",
                                   "cherry", "damson",  "elderberry"};
  std::sort(keys.begin(), keys.end());
  for (uint32_t l : {8u, 12u, 24u, 48u}) {
    StrPrefixBloom pb(keys, 1 << 14, l);
    for (const auto& k : keys) {
      EXPECT_TRUE(pb.MayContain(k, k)) << "l=" << l << " key=" << k;
      EXPECT_TRUE(pb.MayContain("a", "zzzz")) << "l=" << l;
    }
  }
}

TEST(StrPrefixBloom, PaddingSemantics) {
  // "ab" and "ab\0\0" are indistinguishable under padding (Section 7.1).
  std::vector<std::string> keys = {"ab"};
  StrPrefixBloom pb(keys, 1 << 12, 32);
  std::string padded("ab\0\0", 4);
  EXPECT_TRUE(pb.MayContain(padded, padded));
}

TEST(CountUniquePrefixes, MatchesBruteForce) {
  auto keys = RandomSortedKeys(300, 6);
  auto all = CountUniquePrefixesAll(keys);
  for (uint32_t l = 0; l <= 64; l += 3) {
    std::set<uint64_t> uniq;
    for (uint64_t k : keys) uniq.insert(PrefixBits64(k, l));
    EXPECT_EQ(all[l], uniq.size()) << "l=" << l;
    EXPECT_EQ(CountUniquePrefixes(keys, l), uniq.size()) << "l=" << l;
  }
}

TEST(CountUniquePrefixes, ClusteredKeys) {
  // 256 keys sharing a 48-bit prefix: |K_l| == 1 for l <= 48.
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 256; ++i) {
    keys.push_back((uint64_t{0xABCD} << 48) | i);
  }
  auto all = CountUniquePrefixesAll(keys);
  for (uint32_t l = 1; l <= 48; ++l) EXPECT_EQ(all[l], 1u) << l;
  EXPECT_EQ(all[56], 1u);
  EXPECT_EQ(all[64], 256u);
}

TEST(StrCountUniquePrefixes, MatchesBruteForce) {
  std::vector<std::string> keys = {"aa", "ab", "abc", "b", "ba", "cc"};
  std::sort(keys.begin(), keys.end());
  auto all = StrCountUniquePrefixesAll(keys, 40);
  for (uint32_t l = 1; l <= 40; l += 7) {
    std::set<std::string> uniq;
    for (const auto& k : keys) uniq.insert(StrPrefix(k, l));
    EXPECT_EQ(all[l], uniq.size()) << "l=" << l;
  }
}

}  // namespace
}  // namespace proteus
