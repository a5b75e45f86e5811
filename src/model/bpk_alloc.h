// Monkey-style per-level bits-per-key allocation (Dayan et al., "Monkey:
// Optimal Navigable Key-Value Store"), priced through the CPFPR model's
// Bloom FPR curve (CpfprModel::BloomFpr).
//
// A closed Seek consults every level's filters once per overlapping file:
// each L0 file is probed individually (probe_weight = file count), sorted
// levels are probed once each. The expected number of false-positive file
// probes per empty query is therefore
//
//     sum_i  probe_weight_i * fpr(bpk_i)
//
// and a fixed global budget  B = global_bpk * sum_i keys_i  can be split
// unevenly: a bit spent on a small, frequently-probed level removes more
// expected false positives than the same bit spread across the huge last
// level. MonkeyBpkSplit water-fills the budget greedily by marginal FP
// reduction per bit, so smaller/hotter levels end up with richer filters
// and the largest level with leaner ones — the Monkey optimum under
// per-level probe costs. The split conserves the budget exactly:
// sum_i keys_i * bpk_i == global_bpk * sum_i keys_i (unless every level
// hits the per-level cap first).

#ifndef PROTEUS_MODEL_BPK_ALLOC_H_
#define PROTEUS_MODEL_BPK_ALLOC_H_

#include <cstdint>
#include <vector>


namespace proteus {

/// One level's contribution to the allocation problem.
struct LevelLoad {
  uint64_t keys = 0;         // live entry versions stored at the level
  double probe_weight = 1.0; // expected filter probes per closed Seek
                             // (L0: one per file; sorted levels: 1)
};

/// Splits `global_bpk` bits/key across the levels. Returns one bpk per
/// input level; levels with keys == 0 get `global_bpk` back (they hold no
/// budget and no filter). Per-level results are clamped to
/// [1, max(2 * global_bpk, global_bpk + 8)]. A non-positive `global_bpk`
/// or an all-empty shape returns `global_bpk` everywhere.
std::vector<double> MonkeyBpkSplit(double global_bpk,
                                   const std::vector<LevelLoad>& levels);

}  // namespace proteus

#endif  // PROTEUS_MODEL_BPK_ALLOC_H_
