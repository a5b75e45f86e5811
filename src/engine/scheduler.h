// The batch execution order of the query engine (docs/ARCHITECTURE.md,
// "Query engine").
//
// Db::MultiSeek admits a batch's queries in ascending order of their lo
// key, ties in arrival order. Order matters because the engine's
// per-SST grouping preserves it: queries sorted by key probe a filter's
// prefix regions and an SST's data blocks in ascending order, turning
// random cache traffic into sequential traffic. No other order is
// offered: arrival order measured no faster on any benchmark workload,
// and bucketing by target file before sorting by lo is the same
// permutation as sorting by lo.

#ifndef PROTEUS_ENGINE_SCHEDULER_H_
#define PROTEUS_ENGINE_SCHEDULER_H_

#include <cstdint>
#include <vector>

#include "core/query.h"

namespace proteus {

/// A batch of inclusive range queries over encoded (byte-string) keys —
/// the unit of admission of the query engine.
using QueryBatch = std::vector<StrRangeQuery>;

/// Carries nothing. It stays in Plan's signature only because the
/// benchmark harness (perfbench/) compiles against that signature to
/// time planning (engine.plan_ns_per_query).
struct ScheduleContext {};

class Scheduler {
 public:
  /// Fills `order` with a permutation of [0, batch.size()): the positions
  /// of `batch` sorted by lo, equal lo keys in arrival order.
  static void Plan(const QueryBatch& batch, const ScheduleContext& context,
                   std::vector<uint32_t>* order);
};

}  // namespace proteus

#endif  // PROTEUS_ENGINE_SCHEDULER_H_
