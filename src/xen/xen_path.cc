#include "src/xen/xen_path.h"

#include "src/cpu/charger.h"

namespace tcprx {

void XenPathModel::ChargeGuestRx(Charger& charger, const SkBuff& skb) const {
  const uint64_t fragments = 1 + skb.frags.size();

  // Driver-domain bridge + netfilter: purely per host packet.
  charger.Charge(Routine::kBrHandleFrame, costs_.bridge_per_packet);

  // Netback: per host packet plus per transferred fragment.
  charger.Charge(Routine::kNetbkRxAction,
                 costs_.netback_per_packet + fragments * costs_.netback_per_fragment);

  // Hypervisor: grant validation / copy setup per fragment plus fixed work.
  charger.Charge(Routine::kGnttabCopy, costs_.xen_per_packet + fragments * costs_.xen_per_fragment);

  // Driver-domain buffer management for the packet (sk_buff handling on the backend
  // side), once per host packet.
  charger.Charge(Routine::kAllocSkbDom0, costs_.xen_backend_buffer_per_packet);

  // The I/O channel copies the packet data from the driver domain into the guest:
  // the first of the two per-byte copies on the Xen receive path (section 2.4). Grant
  // copies cross page boundaries and cannot be streamed as smoothly as an in-kernel
  // copy, hence the penalty factor.
  uint64_t copy_cycles = 0;
  skb.ForEachPayload([&](std::span<const uint8_t> span) {
    copy_cycles += cache_.CopyCycles(span.size());
  });
  // Headers are copied too.
  copy_cycles += cache_.CopyCycles(skb.view().payload_offset);
  copy_cycles = copy_cycles * costs_.xen_copy_factor_percent / 100;
  charger.Charge(Routine::kGrantCopyData, copy_cycles);

  // Netfront: per host packet plus per accepted fragment.
  charger.Charge(Routine::kXennetPoll,
                 costs_.netfront_per_packet + fragments * costs_.netfront_per_fragment);
}

void XenPathModel::ChargeGuestTx(Charger& charger) const {
  // Transmit traverses the same stages in reverse; single-fragment frames.
  charger.Charge(Routine::kXennetStartXmit,
                 costs_.netfront_per_packet + costs_.netfront_per_fragment);
  charger.Charge(Routine::kGnttabCopyTx, costs_.xen_per_packet + costs_.xen_per_fragment);
  charger.Charge(Routine::kNetbkTxAction, costs_.netback_per_packet + costs_.netback_per_fragment);
  charger.Charge(Routine::kBrHandleFrameTx, costs_.bridge_per_packet);
}

void XenPathModel::ChargeWakeup(Charger& charger) const {
  charger.Charge(Routine::kXenDomainSwitch, costs_.xen_per_domain_switch);
}

}  // namespace tcprx
