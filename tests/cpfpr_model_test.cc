// Tests for the CPFPR model: expected-vs-observed FPR agreement for forced
// configurations (the Figure 4 property), selection sanity across
// workloads, and binned-vs-exact consistency.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/filter_builder.h"
#include "core/one_pbf.h"
#include "core/proteus.h"
#include "core/two_pbf.h"
#include "model/cpfpr.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace proteus {
namespace {

constexpr size_t kKeys = 20000;
constexpr size_t kSamples = 4000;
constexpr size_t kEval = 8000;
constexpr double kBpk = 12.0;

struct Workload {
  std::vector<uint64_t> keys;
  std::vector<RangeQuery> samples;  // for the model
  std::vector<RangeQuery> eval;     // held-out empty queries
};

Workload MakeWorkload(Dataset dataset, const QuerySpec& spec, uint64_t seed) {
  Workload w;
  w.keys = GenerateKeys(dataset, kKeys, seed);
  w.samples = GenerateQueries(w.keys, spec, kSamples, seed * 3 + 1);
  w.eval = GenerateQueries(w.keys, spec, kEval, seed * 7 + 2);
  return w;
}

template <typename Filter>
double ObservedFpr(const Filter& filter, const std::vector<RangeQuery>& qs) {
  size_t fp = 0;
  for (const auto& q : qs) {
    if (filter.MayContain(q.lo, q.hi)) ++fp;
  }
  return static_cast<double>(fp) / static_cast<double>(qs.size());
}

// Expected and observed FPR must agree within a tolerance that accounts for
// sampling noise and binning (Figure 4 shows near-perfect agreement at
// paper scale).
void ExpectClose(double expected, double observed, const char* what) {
  EXPECT_NEAR(expected, observed, 0.05 + 0.25 * expected)
      << what << ": expected=" << expected << " observed=" << observed;
}

TEST(CpfprModel, OnePbfAccuracyAcrossPrefixLengths) {
  QuerySpec spec;
  spec.dist = QueryDist::kUniform;
  spec.range_max = uint64_t{1} << 7;
  Workload w = MakeWorkload(Dataset::kUniform, spec, 101);
  CpfprModel model(w.keys, w.samples);
  uint64_t mem = static_cast<uint64_t>(kBpk * kKeys);
  for (uint32_t l : {30u, 40u, 50u, 56u, 60u, 64u}) {
    auto filter = OnePbfFilter::BuildWithConfig(w.keys, l, kBpk);
    double expected = model.OnePbfFpr(l, mem);
    double observed = ObservedFpr(*filter, w.eval);
    ExpectClose(expected, observed, ("1PBF l=" + std::to_string(l)).c_str());
  }
}

TEST(CpfprModel, OnePbfCaptures64MinusLogRmaxThreshold) {
  // Figure 4a: observed FPR rises sharply once prefix length passes
  // 64 - log2(RMAX).
  QuerySpec spec;
  spec.dist = QueryDist::kUniform;
  spec.range_max = uint64_t{1} << 11;
  Workload w = MakeWorkload(Dataset::kUniform, spec, 102);
  CpfprModel model(w.keys, w.samples);
  uint64_t mem = static_cast<uint64_t>(kBpk * kKeys);
  double fpr_below = model.OnePbfFpr(50, mem);   // below 64-11=53
  double fpr_above = model.OnePbfFpr(62, mem);   // above the threshold
  EXPECT_LT(fpr_below, 0.1);
  EXPECT_GT(fpr_above, fpr_below + 0.1);
}

TEST(CpfprModel, ProteusAccuracyOnSplitWorkload) {
  // The Figure 4c setting: Normal keys, split queries (short correlated +
  // long uniform).
  QuerySpec spec;
  spec.dist = QueryDist::kSplit;
  spec.range_max = uint64_t{1} << 19;
  spec.split_corr_range_max = uint64_t{1} << 3;
  spec.corr_degree = uint64_t{1} << 3;
  Workload w = MakeWorkload(Dataset::kNormal, spec, 103);
  CpfprModel model(w.keys, w.samples);
  uint64_t mem = static_cast<uint64_t>(kBpk * kKeys);
  struct Case {
    uint32_t l1, l2;
  };
  for (Case c : {Case{0, 40}, Case{0, 60}, Case{20, 60}, Case{24, 58},
                 Case{30, 62}}) {
    double expected = model.ProteusFpr(c.l1, c.l2, mem);
    if (expected > 1.0) continue;  // infeasible at this budget
    auto filter = ProteusFilter::BuildWithConfig(
        w.keys, ProteusFilter::Config{c.l1, c.l2}, kBpk);
    double observed = ObservedFpr(*filter, w.eval);
    ExpectClose(expected, observed,
                ("Proteus " + std::to_string(c.l1) + "/" +
                 std::to_string(c.l2)).c_str());
  }
}

TEST(CpfprModel, TwoPbfAccuracy) {
  QuerySpec spec;
  spec.dist = QueryDist::kSplit;
  spec.range_max = uint64_t{1} << 15;
  spec.split_corr_range_max = uint64_t{1} << 3;
  spec.corr_degree = uint64_t{1} << 3;
  Workload w = MakeWorkload(Dataset::kNormal, spec, 104);
  CpfprModel model(w.keys, w.samples);
  uint64_t mem = static_cast<uint64_t>(kBpk * kKeys);
  struct Case {
    uint32_t l1, l2;
  };
  for (Case c : {Case{30, 60}, Case{40, 58}, Case{50, 64}}) {
    double expected = model.TwoPbfFpr(c.l1, c.l2, 0.5, mem);
    auto filter = TwoPbfFilter::BuildWithConfig(
        w.keys, TwoPbfFilter::Config{c.l1, c.l2, 0.5}, kBpk);
    double observed = ObservedFpr(*filter, w.eval);
    ExpectClose(expected, observed,
                ("2PBF " + std::to_string(c.l1) + "/" + std::to_string(c.l2))
                    .c_str());
  }
}

TEST(CpfprModel, BinnedMatchesExact) {
  QuerySpec spec;
  spec.dist = QueryDist::kUniform;
  spec.range_max = uint64_t{1} << 16;  // wide spread of |Q_l|
  Workload w = MakeWorkload(Dataset::kUniform, spec, 105);
  CpfprModel model(w.keys, w.samples);
  uint64_t mem = static_cast<uint64_t>(kBpk * kKeys);
  for (uint32_t l : {40u, 48u, 56u, 64u}) {
    double binned = model.OnePbfFpr(l, mem);
    double exact = model.OnePbfFprExact(l, mem);
    EXPECT_NEAR(binned, exact, 0.02 + 0.1 * exact) << "1PBF l=" << l;
  }
  for (uint32_t l1 : {16u, 24u}) {
    for (uint32_t l2 : {56u, 64u}) {
      double binned = model.ProteusFpr(l1, l2, mem);
      double exact = model.ProteusFprExact(l1, l2, mem);
      if (binned > 1.0 || exact > 1.0) continue;
      EXPECT_NEAR(binned, exact, 0.02 + 0.1 * exact)
          << "Proteus " << l1 << "/" << l2;
    }
  }
}

TEST(CpfprModel, SelectionBeatsFixedDesignsOnSamples) {
  // The selected design's expected FPR must be minimal over the design
  // space (it is chosen by exhaustive search) and must hold up out of
  // sample.
  QuerySpec spec;
  spec.dist = QueryDist::kSplit;
  spec.range_max = uint64_t{1} << 19;
  spec.split_corr_range_max = uint64_t{1} << 3;
  spec.corr_degree = uint64_t{1} << 3;
  Workload w = MakeWorkload(Dataset::kNormal, spec, 106);
  CpfprModel model(w.keys, w.samples);
  uint64_t mem = static_cast<uint64_t>(kBpk * kKeys);
  ProteusDesign design = model.SelectProteus(mem);
  for (uint32_t l1 : {0u, 8u, 16u, 24u, 32u}) {
    for (uint32_t l2 : {0u, 40u, 56u, 64u}) {
      double fpr = model.ProteusFpr(l1, l2, mem);
      if (fpr > 1.0) continue;
      EXPECT_GE(fpr + 1e-12, design.expected_fpr)
          << "config " << l1 << "/" << l2 << " beats the selected design";
    }
  }
  // The FilterBuilder gathers an identical model from the same keys and
  // samples; the materialized filter must realize the selected design.
  FilterBuilder builder(w.keys);
  builder.Sample(w.samples);
  auto filter = ProteusFilter::BuildFromSpec(FilterSpec("proteus"), builder,
                                             nullptr);
  ASSERT_NE(filter, nullptr);
  EXPECT_EQ(filter->config().trie_depth, design.trie_depth);
  EXPECT_EQ(filter->config().bf_prefix_len, design.bf_prefix_len);
  double observed = ObservedFpr(*filter, w.eval);
  ExpectClose(design.expected_fpr, observed, "selected design");
}

TEST(CpfprModel, CorrelatedWorkloadPrefersDeepStructure) {
  // Small correlated queries need long prefixes; uniform large ranges need
  // short ones. The chosen designs must reflect that (Section 5.2).
  QuerySpec corr;
  corr.dist = QueryDist::kCorrelated;
  corr.range_max = uint64_t{1} << 3;
  corr.corr_degree = uint64_t{1} << 10;
  Workload wc = MakeWorkload(Dataset::kUniform, corr, 107);
  CpfprModel mc(wc.keys, wc.samples);
  uint64_t mem = static_cast<uint64_t>(kBpk * kKeys);
  OnePbfDesign dc = mc.SelectOnePbf(mem);

  QuerySpec uni;
  uni.dist = QueryDist::kUniform;
  uni.range_max = uint64_t{1} << 19;
  Workload wu = MakeWorkload(Dataset::kUniform, uni, 108);
  CpfprModel mu(wu.keys, wu.samples);
  OnePbfDesign du = mu.SelectOnePbf(mem);

  EXPECT_GT(dc.prefix_len, du.prefix_len)
      << "correlated=" << dc.prefix_len << " uniform=" << du.prefix_len;
  // Correlated queries land within corr_degree of a key: distinguishing
  // them needs prefixes beyond 64 - log2(corr_degree) = 54.
  EXPECT_GE(dc.prefix_len, 54u);
  // Large uniform ranges want few probes: at most ~2 regions per query.
  EXPECT_LE(du.prefix_len, 64u - 19u + 2u);
}

TEST(CpfprModel, ProteusSelectionNeverWorseThanOnePbf) {
  // Proteus's design space strictly contains 1PBF's (Section 5.1).
  for (uint64_t seed : {201u, 202u, 203u}) {
    QuerySpec spec;
    spec.dist = seed % 2 == 0 ? QueryDist::kUniform : QueryDist::kSplit;
    spec.range_max = uint64_t{1} << 15;
    spec.split_corr_range_max = uint64_t{1} << 4;
    Workload w = MakeWorkload(Dataset::kNormal, spec, seed);
    CpfprModel model(w.keys, w.samples);
    uint64_t mem = static_cast<uint64_t>(kBpk * kKeys);
    EXPECT_LE(model.SelectProteus(mem).expected_fpr,
              model.SelectOnePbf(mem).expected_fpr + 1e-12);
  }
}

TEST(CpfprModel, InfeasibleConfigsFlagged) {
  auto keys = GenerateKeys(Dataset::kUniform, 5000, 9);
  QuerySpec spec;
  auto samples = GenerateQueries(keys, spec, 500, 10);
  CpfprModel model(keys, samples);
  // A 64-deep trie cannot fit in 2 bits per key.
  EXPECT_EQ(model.ProteusFpr(64, 0, keys.size() * 2), CpfprModel::kInfeasible);
}

TEST(CpfprModel, BloomFprMatchesBlockedEqSix) {
  // 10 bits per item, k = 7: Eq. 6 gives (1 - e^{-7/10})^7 ~ 0.00819 over
  // the whole array; averaged over the Poisson load of 512-bit blocks
  // (about 51 items each) it is 0.009528.
  EXPECT_NEAR(CpfprModel::BloomFpr(10000, 1000), 0.009528, 0.000001);
  EXPECT_EQ(CpfprModel::BloomFpr(0, 10), 1.0);
  EXPECT_EQ(CpfprModel::BloomFpr(100, 0), 0.0);
}

}  // namespace
}  // namespace proteus
