// Cycle-charging sink shared by every stage of the receive path.
//
// A Charger binds the cost parameters and the CycleAccount of one host stack. Only the
// host under test charges: the traffic-generator peers (RemoteNode) run the same
// protocol code with no Charger, because TcpConnection itself charges nothing. The
// per-batch counter lets the host convert a processing pass into CPU busy time.

#ifndef SRC_CPU_CHARGER_H_
#define SRC_CPU_CHARGER_H_

#include <cstdint>

#include "src/cpu/cost_params.h"
#include "src/cpu/cycle_account.h"

namespace tcprx {

class Charger {
 public:
  Charger(const CostParams& costs, CycleAccount& account, bool smp)
      : costs_(costs), account_(account), smp_(smp) {}

  void Charge(Routine routine, uint64_t cycles) {
    batch_cycles_ += cycles;
    account_.Charge(routine, cycles);
  }

  // Charges `sites` lock acquisitions to `routine` at the UP or SMP price.
  void ChargeLocks(Routine routine, uint32_t sites) {
    Charge(routine, static_cast<uint64_t>(sites) * LockSiteCycles(costs_, smp_));
  }

  // Cycles charged since the last TakeBatchCycles(); the host turns this into CPU
  // busy time.
  uint64_t TakeBatchCycles() {
    const uint64_t c = batch_cycles_;
    batch_cycles_ = 0;
    return c;
  }

 private:
  const CostParams& costs_;
  CycleAccount& account_;
  bool smp_;
  uint64_t batch_cycles_ = 0;
};

}  // namespace tcprx

#endif  // SRC_CPU_CHARGER_H_
