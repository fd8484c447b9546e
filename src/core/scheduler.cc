#include "core/scheduler.h"

#include <algorithm>

namespace dflow::core {

void Scheduler::SelectForLaunch(const std::vector<AttributeId>& candidates,
                                int in_flight,
                                std::vector<AttributeId>* out) const {
  out->clear();
  if (candidates.empty()) return;

  const int pool = static_cast<int>(candidates.size()) + in_flight;
  const int target =
      std::max(1, (strategy_.pct_permitted * pool + 99) / 100);
  const int allowed =
      std::min(static_cast<int>(candidates.size()),
               std::max(0, target - in_flight));
  if (allowed <= 0) return;

  out->assign(candidates.begin(), candidates.end());
  if (strategy_.heuristic == Strategy::Heuristic::kCheapest) {
    // Ties break topologically. The candidates arrive in topological order,
    // so this is the stable sort by cost, without its scratch buffer.
    std::sort(out->begin(), out->end(), [this](AttributeId a, AttributeId b) {
      const int ca = schema_->task(a).cost_units;
      const int cb = schema_->task(b).cost_units;
      if (ca != cb) return ca < cb;
      return schema_->topo_index(a) < schema_->topo_index(b);
    });
  }
  // Earliest: candidates are already in ascending topological order.
  out->resize(static_cast<size_t>(allowed));
}

}  // namespace dflow::core
