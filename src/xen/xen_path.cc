#include "src/xen/xen_path.h"

#include "src/cpu/charger.h"

namespace tcprx {

void XenPathModel::ChargeGuestRx(Charger& charger, const SkBuff& skb) const {
  const uint64_t fragments = 1 + skb.frags.size();

  // Driver-domain bridge + netfilter: purely per host packet.
  charger.Charge(CostCategory::kNonProto, costs_.bridge_per_packet, "br_handle_frame");

  // Netback: per host packet plus per transferred fragment.
  charger.Charge(CostCategory::kNetback,
                 costs_.netback_per_packet + fragments * costs_.netback_per_fragment,
                 "netbk_rx_action");

  // Hypervisor: grant validation / copy setup per fragment plus fixed work.
  charger.Charge(CostCategory::kXen,
                 costs_.xen_per_packet + fragments * costs_.xen_per_fragment,
                 "gnttab_copy");

  // Driver-domain buffer management for the packet (sk_buff handling on the backend
  // side), once per host packet.
  charger.Charge(CostCategory::kBuffer, costs_.xen_backend_buffer_per_packet,
                 "__alloc_skb(dom0)");

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
  charger.Charge(CostCategory::kPerByte, copy_cycles, "grant_copy_data");

  // Netfront: per host packet plus per accepted fragment.
  charger.Charge(CostCategory::kNetfront,
                 costs_.netfront_per_packet + fragments * costs_.netfront_per_fragment,
                 "xennet_poll");
}

void XenPathModel::ChargeGuestTx(Charger& charger) const {
  // Transmit traverses the same stages in reverse; single-fragment frames.
  charger.Charge(CostCategory::kNetfront,
                 costs_.netfront_per_packet + costs_.netfront_per_fragment,
                 "xennet_start_xmit");
  charger.Charge(CostCategory::kXen, costs_.xen_per_packet + costs_.xen_per_fragment,
                 "gnttab_copy(tx)");
  charger.Charge(CostCategory::kNetback,
                 costs_.netback_per_packet + costs_.netback_per_fragment,
                 "netbk_tx_action");
  charger.Charge(CostCategory::kNonProto, costs_.bridge_per_packet, "br_handle_frame(tx)");
}

void XenPathModel::ChargeWakeup(Charger& charger) const {
  charger.Charge(CostCategory::kXen, costs_.xen_per_domain_switch, "xen_domain_switch");
}

}  // namespace tcprx
