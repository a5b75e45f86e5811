// The benchmark's output oracle.
//
// Every Seek/MultiSeek answer is reduced to a 64-bit digest: 0 for "no key
// in range", 1 for a non-OK Status, otherwise a hash of the returned key
// and value with bit 1 set. The oracle predicts the digest from a sorted
// reference of the keys the harness wrote (values are MakeValuePayload of
// the key), so checking an answer is one comparison.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "lsm/db.h"
#include "surf/surf.h"  // EncodeKeyBE / DecodeKeyBE
#include "workload/datasets.h"

namespace perfbench {

inline constexpr uint64_t kDigestNotFound = 0;
inline constexpr uint64_t kDigestBadStatus = 1;
/// Bit 1 clear and not 0/1: never the digest of an answer.
inline constexpr uint64_t kDigestUnseen = 4;

inline uint64_t DigestOf(std::string_view key, std::string_view value) {
  const uint64_t h = std::hash<std::string_view>{}(key) * 0x9E3779B97F4A7C15ULL ^
                     std::hash<std::string_view>{}(value);
  return h | 2;
}

inline uint64_t Digest(const proteus::SeekResult& r) {
  if (!r.status.ok()) return kDigestBadStatus;
  return r.found ? DigestOf(r.key, r.value) : kDigestNotFound;
}

class Oracle {
 public:
  /// `sorted_keys` must be sorted, unique, and outlive the oracle.
  Oracle(const std::vector<uint64_t>* sorted_keys, size_t value_bytes)
      : keys_(sorted_keys), value_bytes_(value_bytes) {}

  /// The smallest reference key in [lo, hi], if any.
  bool Smallest(uint64_t lo, uint64_t hi, uint64_t* key) const {
    auto it = std::lower_bound(keys_->begin(), keys_->end(), lo);
    if (it == keys_->end() || *it > hi) return false;
    *key = *it;
    return true;
  }

  /// The digest a correct Seek(lo, hi) returns.
  uint64_t Expect(uint64_t lo, uint64_t hi) const {
    uint64_t k = 0;
    if (!Smallest(lo, hi, &k)) return kDigestNotFound;
    return DigestOf(proteus::EncodeKeyBE(k),
                    proteus::MakeValuePayload(k, value_bytes_));
  }

  bool Contains(uint64_t key) const {
    return std::binary_search(keys_->begin(), keys_->end(), key);
  }

  size_t value_bytes() const { return value_bytes_; }

 private:
  const std::vector<uint64_t>* keys_;
  size_t value_bytes_;
};

/// Live-read check while a writer inserts `inserted` keys on top of a
/// fully loaded `preload` set: preload keys are visible throughout, so a
/// correct answer is either the preload answer, or a smaller key in range
/// that the writer may have committed, with its correct value.
inline bool LiveAnswerOk(const proteus::SeekResult& r, uint64_t lo,
                         uint64_t hi, uint64_t preload_digest,
                         const Oracle& preload, const Oracle& inserted) {
  const uint64_t d = Digest(r);
  if (d == preload_digest) return true;
  if (d == kDigestBadStatus || d == kDigestNotFound) return false;
  if (r.key.size() != 8) return false;
  const uint64_t k = proteus::DecodeKeyBE(r.key);
  if (k < lo || k > hi || !inserted.Contains(k)) return false;
  uint64_t first_preload = 0;
  if (preload.Smallest(lo, hi, &first_preload) && first_preload < k) {
    return false;
  }
  return r.value == proteus::MakeValuePayload(k, inserted.value_bytes());
}

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
