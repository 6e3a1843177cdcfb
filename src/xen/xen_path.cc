#include "src/xen/xen_path.h"

#include "src/cpu/charger.h"

namespace tcprx {

void XenPathModel::ChargeGuestRx(Charger& charger, const SkBuff& skb) const {
  const uint64_t fragments = skb.frames.size();

  // Driver-domain bridge + netfilter: purely per host packet.
  charger.Charge(Routine::kBrHandleFrame, kCosts.bridge_per_packet);

  // Netback: per host packet plus per transferred fragment.
  charger.Charge(Routine::kNetbkRxAction,
                 kCosts.netback_per_packet + fragments * kCosts.netback_per_fragment);

  // Hypervisor: grant validation / copy setup per fragment plus fixed work.
  charger.Charge(Routine::kGnttabCopy, kCosts.xen_per_packet + fragments * kCosts.xen_per_fragment);

  // Driver-domain buffer management for the packet (sk_buff handling on the backend
  // side), once per host packet.
  charger.Charge(Routine::kAllocSkbDom0, kCosts.xen_backend_buffer_per_packet);

  // The I/O channel copies the packet data from the driver domain into the guest:
  // the first of the two per-byte copies on the Xen receive path (section 2.4). Grant
  // copies cross page boundaries and cannot be streamed as smoothly as an in-kernel
  // copy, hence the penalty factor.
  uint64_t copy_cycles = 0;
  for (const FragmentInfo& fi : skb.fragment_info) {
    copy_cycles += cache_.CopyCycles(fi.payload_len);
  }
  // Headers are copied too.
  copy_cycles += cache_.CopyCycles(skb.view().payload_offset);
  copy_cycles = copy_cycles * kCosts.xen_copy_factor_percent / 100;
  charger.Charge(Routine::kGrantCopyData, copy_cycles);

  // Netfront: per host packet plus per accepted fragment.
  charger.Charge(Routine::kXennetPoll,
                 kCosts.netfront_per_packet + fragments * kCosts.netfront_per_fragment);
}

void XenPathModel::ChargeGuestTx(Charger& charger) const {
  // Transmit traverses the same stages in reverse; single-fragment frames.
  charger.Charge(Routine::kXennetStartXmit,
                 kCosts.netfront_per_packet + kCosts.netfront_per_fragment);
  charger.Charge(Routine::kGnttabCopyTx, kCosts.xen_per_packet + kCosts.xen_per_fragment);
  charger.Charge(Routine::kNetbkTxAction, kCosts.netback_per_packet + kCosts.netback_per_fragment);
  charger.Charge(Routine::kBrHandleFrameTx, kCosts.bridge_per_packet);
}

void XenPathModel::ChargeWakeup(Charger& charger) const {
  charger.Charge(Routine::kXenDomainSwitch, kCosts.xen_per_domain_switch);
}

}  // namespace tcprx
