// QueryEngine: a thin batched front door to a Db. Run is one
// Db::MultiSeek call, which plans every batch in key-sorted order
// (engine/scheduler.h). The class, its "sorted" spec and scheduler()
// remain only as the API the benchmark harness (perfbench/) compiles
// against; servers and benches call Db::MultiSeek directly.

#ifndef PROTEUS_ENGINE_QUERY_ENGINE_H_
#define PROTEUS_ENGINE_QUERY_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "engine/scheduler.h"
#include "lsm/db.h"
#include "util/status.h"

namespace proteus {

class QueryEngine {
 public:
  /// Builds an engine over `db`. The only accepted spec is "sorted";
  /// anything else returns null and fills `status` (InvalidArgument).
  /// The caller keeps `db` alive for the engine's lifetime.
  static std::unique_ptr<QueryEngine> Create(Db* db, const std::string& spec,
                                             Status* status = nullptr);

  explicit QueryEngine(Db* db) : db_(db) {}

  /// Runs one batch through Db::MultiSeek: one pinned view, one
  /// sequence horizon.
  void Run(const QueryBatch& batch, std::vector<MultiSeekResult>* results) {
    db_->MultiSeek(batch, results);
  }

  const Scheduler& scheduler() const { return scheduler_; }

 private:
  Db* db_;
  Scheduler scheduler_;
};

}  // namespace proteus

#endif  // PROTEUS_ENGINE_QUERY_ENGINE_H_
