#include "engine/query_engine.h"

namespace proteus {

std::unique_ptr<QueryEngine> QueryEngine::Create(Db* db,
                                                const std::string& spec,
                                                Status* status) {
  if (spec != "sorted") {
    if (status != nullptr) {
      *status = Status::InvalidArgument("unknown scheduler \"" + spec +
                                        "\"; only \"sorted\" exists");
    }
    return nullptr;
  }
  if (status != nullptr) *status = Status::OK();
  return std::make_unique<QueryEngine>(db);
}

}  // namespace proteus
