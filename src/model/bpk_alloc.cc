#include "model/bpk_alloc.h"

#include <algorithm>
#include <cmath>

#include "model/cpfpr.h"

namespace proteus {
namespace {

constexpr double kMinBpk = 1.0;
constexpr double kStepBpk = 0.125;
// Span over which the marginal gain is measured. The Bloom FPR curve is
// only piecewise-decreasing in bpk: at each integer hash-count
// transition it jumps up a little, so a one-step (0.125 bpk) difference
// can come out negative and permanently wedge the greedy fill against
// the bump. One full bpk always spans past a transition, giving a
// smoothed — and strictly positive — derivative.
constexpr double kGainSpanBpk = 1.0;

double LevelFpr(const LevelLoad& level, double bpk) {
  const auto m_bits = static_cast<uint64_t>(
      std::llround(bpk * static_cast<double>(level.keys)));
  return level.probe_weight * CpfprModel::BloomFpr(m_bits, level.keys);
}

/// Expected false-positive probes removed per bit when raising this
/// level's allocation from `bpk`.
double MarginalGain(const LevelLoad& level, double bpk) {
  const double drop =
      LevelFpr(level, bpk) - LevelFpr(level, bpk + kGainSpanBpk);
  return drop / (static_cast<double>(level.keys) * kGainSpanBpk);
}

}  // namespace

std::vector<double> MonkeyBpkSplit(double global_bpk,
                                   const std::vector<LevelLoad>& levels) {
  std::vector<double> out(levels.size(), global_bpk);
  if (global_bpk <= kMinBpk) return out;  // no room below the floor

  std::vector<size_t> live;  // indices of levels that hold keys
  double total_keys = 0.0;
  for (size_t i = 0; i < levels.size(); ++i) {
    if (levels[i].keys == 0) continue;
    live.push_back(i);
    total_keys += static_cast<double>(levels[i].keys);
  }
  if (live.size() < 2) return out;  // nothing to trade between

  const double max_bpk = std::max(2.0 * global_bpk, global_bpk + 8.0);
  double remaining = global_bpk * total_keys;  // budget in bits
  for (size_t i : live) {
    out[i] = kMinBpk;
    remaining -= kMinBpk * static_cast<double>(levels[i].keys);
  }

  // Greedy water-filling in kStepBpk increments: each step goes to the
  // level whose filter sheds the most expected false-positive probes per
  // bit. The Bloom FPR curve is convex in bpk, so the greedy fill tracks
  // the Lagrangian optimum to within one step.
  for (;;) {
    size_t best = levels.size();
    double best_gain = 0.0;
    for (size_t i : live) {
      if (out[i] + kStepBpk > max_bpk) continue;
      const double cost = static_cast<double>(levels[i].keys) * kStepBpk;
      if (cost > remaining) continue;
      const double gain = MarginalGain(levels[i], out[i]);
      if (best == levels.size() || gain > best_gain) {
        best = i;
        best_gain = gain;
      }
    }
    if (best == levels.size()) break;
    out[best] += kStepBpk;
    remaining -= static_cast<double>(levels[best].keys) * kStepBpk;
  }

  // Exact budget conservation: hand the sub-step leftover to the levels
  // with the best marginal gain as fractional bpk.
  while (remaining > 1e-9) {
    size_t best = levels.size();
    double best_gain = -1.0;
    for (size_t i : live) {
      if (out[i] >= max_bpk) continue;
      const double gain = MarginalGain(levels[i], out[i]);
      if (gain > best_gain) {
        best = i;
        best_gain = gain;
      }
    }
    if (best == levels.size()) break;  // everyone capped
    const double keys = static_cast<double>(levels[best].keys);
    const double delta = std::min(remaining / keys, max_bpk - out[best]);
    out[best] += delta;
    remaining -= delta * keys;
  }
  return out;
}

}  // namespace proteus
