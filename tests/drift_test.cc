// Unit tests for the two pure-model halves of adaptive self-design:
// the drift detector's documented thresholds (src/lsm/drift.h) and the
// Monkey bpk allocator's budget conservation (src/model/bpk_alloc.h).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "lsm/drift.h"
#include "model/bpk_alloc.h"

namespace proteus {
namespace {

// ---------------------------------------------------------------------------
// ObservedFpr: false positives over empty-range checks.
// ---------------------------------------------------------------------------

TEST(ObservedFprTest, ConditionsOnEmptyChecks) {
  DriftSignal s;
  s.checks = 1000;
  s.probes = 500;          // 400 true positives, 100 false positives
  s.false_positives = 100;
  // Empty-range checks = 1000 - 400 = 600; 100 of them passed.
  EXPECT_DOUBLE_EQ(ObservedFpr(s), 100.0 / 600.0);
}

TEST(ObservedFprTest, AllEmptyWorkloadIsNotAutomaticallyOne) {
  // Every query empty, filter rejects most: probes == false_positives,
  // but the rate is fp / checks — a good filter scores low even though
  // every probe it let through was by definition a false positive.
  DriftSignal s;
  s.checks = 10000;
  s.probes = 50;
  s.false_positives = 50;
  EXPECT_DOUBLE_EQ(ObservedFpr(s), 50.0 / 10000.0);
}

TEST(ObservedFprTest, NoEmptyChecksIsZero) {
  DriftSignal s;
  s.checks = 100;
  s.probes = 100;  // every check found a key: no empty-range evidence
  s.false_positives = 0;
  EXPECT_DOUBLE_EQ(ObservedFpr(s), 0.0);
  EXPECT_DOUBLE_EQ(ObservedFpr(DriftSignal{}), 0.0);  // no traffic at all
}

// ---------------------------------------------------------------------------
// DetectDrift: synthetic counters through the documented thresholds.
// Defaults: fpr_factor 4, fpr_floor 0.01, min_probes 256,
// signature_bits 8, min_window_samples 64.
// ---------------------------------------------------------------------------

DriftSignal CalmSignal() {
  // A file living its modeled life: FPR at the promise, window unmoved.
  DriftSignal s;
  s.checks = 100000;
  s.probes = 2000;
  s.false_positives = 2000;  // 0.02 observed on all-empty traffic
  s.modeled_fpr = 0.02;
  s.design_signature = 40.0;
  s.live_signature = 40.0;
  s.window_samples = 1000;
  return s;
}

TEST(DetectDriftTest, CalmFileIsNotFlagged) {
  EXPECT_EQ(DetectDrift(CalmSignal(), DriftOptions{}), DriftReason::kNone);
}

TEST(DetectDriftTest, MinProbesGatesEverything) {
  DriftOptions o;
  DriftSignal s = CalmSignal();
  s.false_positives = s.probes;   // blown-out FPR...
  s.checks = s.probes;            // ...of exactly 1.0
  s.live_signature = 0.0;         // and a shifted window
  s.probes = o.min_probes - 1;
  s.false_positives = s.probes;
  s.checks = s.probes;
  EXPECT_EQ(DetectDrift(s, o), DriftReason::kNone);
  s.probes = o.min_probes;  // one more probe arms both triggers
  s.false_positives = s.probes;
  s.checks = s.probes;
  EXPECT_EQ(DetectDrift(s, o), DriftReason::kSignatureShift);
}

TEST(DetectDriftTest, FprTriggerIsStrictlyAboveFactorTimesModeled) {
  DriftOptions o;
  DriftSignal s = CalmSignal();
  // Observed = fp / checks (all-empty traffic). Modeled 0.02 -> the
  // trigger line is exactly 0.08.
  s.checks = 100000;
  s.false_positives = 8000;
  s.probes = 8000;
  EXPECT_EQ(DetectDrift(s, o), DriftReason::kNone);  // == factor * modeled
  s.false_positives = 8001;
  s.probes = 8001;
  EXPECT_EQ(DetectDrift(s, o), DriftReason::kFprExceeded);
}

TEST(DetectDriftTest, FprFloorShieldsTightModels) {
  DriftOptions o;
  DriftSignal s = CalmSignal();
  s.modeled_fpr = 0.0001;  // promise far below the floor
  s.checks = 100000;
  s.false_positives = 3000;  // 0.03 observed: 300x the model...
  s.probes = 3000;
  // ...but only 3x the 0.01 floor, so no flag.
  EXPECT_EQ(DetectDrift(s, o), DriftReason::kNone);
  s.false_positives = 4100;  // 0.041 > 4 * 0.01
  s.probes = 4100;
  EXPECT_EQ(DetectDrift(s, o), DriftReason::kFprExceeded);
}

TEST(DetectDriftTest, NoModelMeansNoFprTrigger) {
  DriftSignal s = CalmSignal();
  s.modeled_fpr = -1.0;
  s.false_positives = s.probes;
  s.checks = s.probes;  // observed 1.0, nothing to compare against
  EXPECT_EQ(DetectDrift(s, DriftOptions{}), DriftReason::kNone);
}

TEST(DetectDriftTest, SignatureShiftNeedsWindowSamples) {
  DriftOptions o;
  DriftSignal s = CalmSignal();
  s.live_signature = s.design_signature + o.signature_bits;  // shifted
  s.window_samples = o.min_window_samples - 1;
  EXPECT_EQ(DetectDrift(s, o), DriftReason::kNone);
  s.window_samples = o.min_window_samples;
  EXPECT_EQ(DetectDrift(s, o), DriftReason::kSignatureShift);
  // Strictly inside the band: no shift.
  s.live_signature = s.design_signature + o.signature_bits - 0.5;
  EXPECT_EQ(DetectDrift(s, o), DriftReason::kNone);
}

TEST(DetectDriftTest, PreWindowDesignCountsAsShiftedOnceWindowExists) {
  DriftOptions o;
  DriftSignal s = CalmSignal();
  s.design_signature = -1.0;  // designed before any query was sampled
  s.live_signature = 40.0;
  EXPECT_EQ(DetectDrift(s, o), DriftReason::kSignatureShift);
  s.live_signature = -1.0;  // still no window: nothing to compare
  EXPECT_EQ(DetectDrift(s, o), DriftReason::kNone);
}

TEST(DetectDriftTest, SignatureCheckedBeforeFpr) {
  DriftOptions o;
  DriftSignal s = CalmSignal();
  s.false_positives = s.probes;
  s.checks = s.probes;  // FPR blowout...
  s.live_signature = s.design_signature + 2.0 * o.signature_bits;
  // ...but a shifted window wins the reason.
  EXPECT_EQ(DetectDrift(s, o), DriftReason::kSignatureShift);
}

// ---------------------------------------------------------------------------
// MonkeyBpkSplit: budget conservation across level shapes.
// ---------------------------------------------------------------------------

double TotalBits(const std::vector<LevelLoad>& levels,
                 const std::vector<double>& split) {
  double total = 0.0;
  for (size_t i = 0; i < levels.size(); ++i) {
    total += static_cast<double>(levels[i].keys) * split[i];
  }
  return total;
}

double TotalKeys(const std::vector<LevelLoad>& levels) {
  double total = 0.0;
  for (const auto& l : levels) total += static_cast<double>(l.keys);
  return total;
}

TEST(MonkeyBpkSplitTest, BudgetConservedAcrossShapes) {
  const double bpk = 14.0;
  const std::vector<std::vector<LevelLoad>> shapes = {
      {{1000, 1.0}},                                          // 1 level
      {{1000, 4.0}, {10000, 1.0}},                            // L0 + L1
      {{500, 3.0}, {4000, 1.0}, {16000, 1.0}},                // 3 levels
      {{100, 2.0}, {1000, 1.0}, {8000, 1.0}, {64000, 1.0}},   // 4 levels
      {{64, 6.0}, {512, 1.0}, {4096, 1.0}, {32768, 1.0}, {262144, 1.0}},
  };
  for (const auto& levels : shapes) {
    auto split = MonkeyBpkSplit(bpk, levels);
    ASSERT_EQ(split.size(), levels.size());
    EXPECT_NEAR(TotalBits(levels, split), bpk * TotalKeys(levels),
                1e-6 * bpk * TotalKeys(levels))
        << levels.size() << " levels";
    for (double b : split) EXPECT_GE(b, 1.0);
  }
}

TEST(MonkeyBpkSplitTest, EmptyLevelsHoldNoBudget) {
  const double bpk = 12.0;
  // Empty L0 and an empty middle level: both get the global default
  // back, and the budget is split over the non-empty levels only.
  std::vector<LevelLoad> levels = {
      {0, 4.0}, {2000, 1.0}, {0, 1.0}, {30000, 1.0}};
  auto split = MonkeyBpkSplit(bpk, levels);
  ASSERT_EQ(split.size(), 4u);
  EXPECT_DOUBLE_EQ(split[0], bpk);
  EXPECT_DOUBLE_EQ(split[2], bpk);
  EXPECT_NEAR(TotalBits(levels, split), bpk * TotalKeys(levels),
              1e-6 * bpk * TotalKeys(levels));
}

TEST(MonkeyBpkSplitTest, SmallProbedLevelsGetRicherFilters) {
  // The Monkey direction: with equal probe weight, bits migrate from
  // the huge last level (where a bit buys little FP reduction per probe)
  // to the small upper level.
  std::vector<LevelLoad> levels = {{1000, 1.0}, {100000, 1.0}};
  auto split = MonkeyBpkSplit(14.0, levels);
  EXPECT_GT(split[0], split[1]);
}

TEST(MonkeyBpkSplitTest, PricesTheBlockedLayout) {
  // An L0 x2 / L1 / L2 shape of 20k / 200k / 2M keys at 14 bpk, split
  // under the blocked Bloom FPR curve the LSM's filters follow. (The
  // textbook whole-array curve would give 25.25 / 19.12 / 13.38.)
  auto split =
      MonkeyBpkSplit(14.0, {{20000, 2.0}, {200000, 1.0}, {2000000, 1.0}});
  ASSERT_EQ(split.size(), 3u);
  EXPECT_NEAR(split[0], 28.00, 0.01);
  EXPECT_NEAR(split[1], 18.75, 0.01);
  EXPECT_NEAR(split[2], 13.38, 0.01);
}

TEST(MonkeyBpkSplitTest, DegenerateInputsFallBackToGlobal) {
  std::vector<LevelLoad> all_empty = {{0, 1.0}, {0, 1.0}};
  for (double b : MonkeyBpkSplit(14.0, all_empty)) EXPECT_DOUBLE_EQ(b, 14.0);
  for (double b : MonkeyBpkSplit(0.0, {{1000, 1.0}})) EXPECT_DOUBLE_EQ(b, 0.0);
  EXPECT_TRUE(MonkeyBpkSplit(14.0, {}).empty());
}

}  // namespace
}  // namespace proteus
