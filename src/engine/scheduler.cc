#include "engine/scheduler.h"

#include <algorithm>

namespace proteus {

void Scheduler::Plan(const QueryBatch& batch, const ScheduleContext&,
                     std::vector<uint32_t>* order) {
  order->resize(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    (*order)[i] = static_cast<uint32_t>(i);
  }
  std::stable_sort(order->begin(), order->end(),
                   [&batch](uint32_t a, uint32_t b) {
                     return batch[a].lo < batch[b].lo;
                   });
}

}  // namespace proteus
