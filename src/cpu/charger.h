// Cycle-charging sink shared by every stage of the receive path.
//
// A Charger binds the CycleAccount of one host stack and its kernel type (UP or SMP);
// the costs it charges are the constants of cost_params.h. Only the host under test
// charges: the traffic-generator peers (RemoteNode) run the same protocol code with no
// Charger, because TcpConnection itself charges nothing. The per-batch counter lets
// the host convert a processing pass into CPU busy time.

#ifndef SRC_CPU_CHARGER_H_
#define SRC_CPU_CHARGER_H_

#include <cstdint>

#include "src/cpu/cost_params.h"
#include "src/cpu/cycle_account.h"

namespace tcprx {

class Charger {
 public:
  Charger(CycleAccount& account, bool smp) : account_(account), smp_(smp) {}

  void Charge(Routine routine, uint64_t cycles) {
    batch_cycles_ += cycles;
    account_.Charge(routine, cycles);
  }

  // Charges `sites` lock acquisitions to `routine` at the UP or SMP price.
  void ChargeLocks(Routine routine, uint32_t sites) {
    Charge(routine, static_cast<uint64_t>(sites) * LockSiteCycles(smp_));
  }

  // Cycles charged since the last TakeBatchCycles(); the host turns this into CPU
  // busy time.
  uint64_t TakeBatchCycles() {
    const uint64_t c = batch_cycles_;
    batch_cycles_ = 0;
    return c;
  }

 private:
  CycleAccount& account_;
  bool smp_;
  uint64_t batch_cycles_ = 0;
};

}  // namespace tcprx

#endif  // SRC_CPU_CHARGER_H_
