// Xen network virtualization path model (section 2.4 of the paper).
//
// In the paper's Xen 3.0.4 setup a guest's receive path is: physical NIC -> driver
// domain NIC driver -> [Receive Aggregation, when enabled] -> bridge + netfilter ->
// netback -> I/O channel (hypervisor grant operations + a data copy into the guest) ->
// netfront -> guest TCP/IP stack -> copy to the application. Every stage between the
// driver and the guest stack is per-packet work, which is why virtualization triples
// the receive cost — and why aggregation, placed right after the physical driver,
// shrinks the whole pipeline at once. Netback, netfront and the hypervisor grant work
// scale per *fragment* (page) rather than per host packet, so they shrink less
// (Figure 10), which this model reproduces by splitting their costs into per-packet
// and per-fragment parts.
//
// XenPathModel only charges cycles; the actual packet motion is unchanged, because the
// simulated driver domain and guest share the host's memory in this testbed.

#ifndef SRC_XEN_XEN_PATH_H_
#define SRC_XEN_XEN_PATH_H_

#include <cstdint>

#include "src/buffer/skbuff.h"
#include "src/cpu/cache_model.h"
#include "src/cpu/cost_params.h"
#include "src/cpu/cycle_account.h"

namespace tcprx {

// Charge sink shared with the network stack (defined in cpu/charger.h); forward
// declared here to keep the dependency one-way.
class Charger;

class XenPathModel {
 public:
  explicit XenPathModel(const CacheModel& cache) : cache_(cache) {}

  // Receive direction: charges bridge/netback/hypervisor/netfront work plus the
  // driver-domain -> guest data copy for one host packet (aggregated or not).
  void ChargeGuestRx(Charger& charger, const SkBuff& skb) const;

  // Transmit direction: charges the virtualization path for one guest-transmitted
  // frame (an ACK, a template ACK, or a data segment).
  void ChargeGuestTx(Charger& charger) const;

  // Charged once per interrupt/poll wakeup: domain switches between the driver domain
  // and the guest.
  void ChargeWakeup(Charger& charger) const;

 private:
  const CacheModel& cache_;
};

}  // namespace tcprx

#endif  // SRC_XEN_XEN_PATH_H_
