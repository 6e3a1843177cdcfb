#include "src/fuzz/shrink.h"

#include <algorithm>

namespace tcprx {
namespace fuzz {

ShrinkResult ShrinkFaults(const Scenario& scenario, const StillFailsFn& still_fails) {
  ShrinkResult result;
  result.scenario = scenario;

  const size_t original = scenario.faults.size();
  if (original == 0) {
    return result;
  }

  // Greedy ddmin: for each chunk size from n/2 down to 1, sweep the plan and drop
  // any chunk whose removal preserves the failure. Restart the sweep at the same
  // granularity after a successful removal so later chunks are re-tried against the
  // smaller plan.
  size_t chunk = (result.scenario.faults.size() + 1) / 2;
  while (true) {
    bool reduced = false;
    size_t start = 0;
    while (start < result.scenario.faults.size()) {
      Scenario candidate = result.scenario;
      const size_t end = std::min(start + chunk, candidate.faults.size());
      candidate.faults.erase(candidate.faults.begin() + static_cast<long>(start),
                             candidate.faults.begin() + static_cast<long>(end));
      ++result.runs;
      if (still_fails(candidate)) {
        result.scenario = candidate;
        reduced = true;
        // Do not advance `start`: the next chunk shifted into this position.
      } else {
        start += chunk;
      }
    }
    if (chunk == 1 && !reduced) {
      break;
    }
    // Single events are swept again until a pass removes none; any larger chunk is
    // halved after one pass, since the restart-in-place above already retried it.
    chunk = chunk > 1 ? chunk / 2 : 1;
  }

  result.removed = original - result.scenario.faults.size();
  return result;
}

}  // namespace fuzz
}  // namespace tcprx
