// Calibrated per-operation CPU cost constants.
//
// `kCosts` is the one cost table, fixed at compile time: no configuration, tool or
// figure can change it. Every constant in it names one operation the Linux 2.6.16
// receive path performs, with a cycle cost calibrated so that the *baseline
// uniprocessor* system lands near the paper's anchor point: ~10,400 busy cycles per
// MTU-sized packet on a 3 GHz Xeon, distributed as in Figure 3 (driver 21%, TCP rx+tx
// 21%, buffer + non-proto 25%, per-byte 17%, misc 16%). Everything else in the
// evaluation — the SMP inflation, the Xen stack-up, and all optimized configurations —
// must then *emerge* from the mechanisms (lock amortization, per-fragment vs
// per-packet stages, aggregation factor), not from per-figure tuning. See
// EXPERIMENTS.md for paper-vs-measured.
//
// Costs that depend on the access pattern (data copies, software checksums) are NOT
// here; CacheModel computes them so that the prefetch-mode sweep of Figure 1 affects
// them.

#ifndef SRC_CPU_COST_PARAMS_H_
#define SRC_CPU_COST_PARAMS_H_

#include <cstdint>

namespace tcprx {

struct CostParams {
  // --- Lock model (section 2.3) -------------------------------------------------
  // On SMP kernels the per-packet protocol routines take spinlocks implemented with
  // lock-prefixed read-modify-write instructions; on UP the same sites compile to
  // plain ops. Buffer management and the copy loop are lock-free in both (as in
  // Linux), so only rx/tx sites are listed.
  uint32_t lock_cycles_up = 8;     // a lock site on a uniprocessor kernel
  uint32_t lock_cycles_smp = 108;  // a lock-prefixed atomic RMW on SMP
  uint32_t tcp_rx_lock_sites = 7;  // lock acquisitions per TCP receive pass
  uint32_t tcp_tx_lock_sites = 8;  // lock acquisitions per ACK transmit pass

  // --- Driver / interrupt context ------------------------------------------------
  uint32_t driver_rx_per_packet = 1219;  // descriptor + irq + napi work per rx frame
  // MAC header processing (eth_type_trans et al.) touches the just-DMA'd header and
  // eats a compulsory cache miss. The paper measures 681 cycles/packet for it; when
  // Receive Aggregation is on, this work moves out of the driver into the aggregation
  // routine's early demux.
  uint32_t driver_mac_processing = 681;
  uint32_t driver_tx_per_packet = 600;  // tx descriptor setup + completion per frame

  // --- Buffer management (section 2.2: dominated by sk_buff memory management) ---
  uint32_t skb_alloc = 500;
  uint32_t skb_free = 300;
  uint32_t pkt_buf_alloc = 60;  // driver ring buffers are recycled cheaply
  uint32_t pkt_buf_free = 40;
  // Attaching one chained payload fragment to an aggregated sk_buff (page ref +
  // frag-array bookkeeping); per fragment beyond the head.
  uint32_t skb_frag_attach = 120;

  // --- TCP/IP protocol processing ------------------------------------------------
  uint32_t ip_rx_per_packet = 250;    // IP validation + route + demux (part of rx)
  uint32_t tcp_rx_per_packet = 450;   // TCP receive state machine per host packet
  uint32_t tcp_rx_per_segment = 400;  // per-fragment work inside an aggregated packet
                                      // (per-segment ACK bookkeeping, cwnd accounting,
                                      // delayed-ACK counting — section 3.4)
  uint32_t tcp_tx_per_ack = 1500;     // TCP ACK construction through the stack
  uint32_t ip_tx_per_packet = 600;    // IP out + routing + qdisc per transmitted packet

  // --- Non-protocol per-packet plumbing -------------------------------------------
  uint32_t nonproto_rx_per_packet = 900;  // softirq dispatch, netfilter hooks, taps
  uint32_t nonproto_tx_per_packet = 700;  // tx-side equivalents

  // --- Miscellaneous (scheduling, timers) ------------------------------------------
  uint32_t misc_rx_per_packet = 1450;  // charged per host packet entering the stack
  uint32_t misc_fixed_per_wakeup = 800;  // per softirq/irq batch wakeup

  // --- Receive Aggregation (section 3.5) -------------------------------------------
  // Early demultiplexing reads the packet headers right after DMA: a compulsory cache
  // miss the paper measures at 789 cycles/packet.
  uint32_t aggr_demux_per_packet = 789;
  uint32_t aggr_match_per_packet = 160;   // hash lookup + in-sequence checks + chaining
  uint32_t aggr_flush_per_host_packet = 170;  // header rewrite + incremental checksums
                                              // (multi-segment aggregates only)

  // --- Acknowledgment Offload (section 4.2) ----------------------------------------
  // Expanding one ACK from the template in the driver: 66-byte copy, ack rewrite,
  // incremental checksum, tx descriptor. Far cheaper than a full stack traversal.
  uint32_t ack_expand_per_ack = 300;
  uint32_t ack_template_build_extra = 120;  // extra TCP-layer work to build a template

  // --- Xen virtualization path (section 2.4) ---------------------------------------
  uint32_t bridge_per_packet = 2200;         // driver-domain bridge + netfilter
  uint32_t guest_nonproto_per_packet = 1100;  // guest-side non-protocol plumbing
  uint32_t netback_per_packet = 1000;        // backend per host packet
  uint32_t netback_per_fragment = 1450;      // backend per transferred fragment
  uint32_t netfront_per_packet = 900;        // frontend per host packet
  uint32_t netfront_per_fragment = 1300;     // frontend per accepted fragment
  uint32_t xen_per_packet = 1500;            // hypervisor fixed work per host packet
  uint32_t xen_per_fragment = 1300;          // grant validation/copy setup per fragment
  uint32_t xen_per_domain_switch = 1900;     // scheduling between driver domain & guest
  uint32_t xen_backend_buffer_per_packet = 900;  // driver-domain sk_buff handling
  uint32_t xen_copy_factor_percent = 120;    // grant-copy penalty over a plain copy
  uint32_t misc_xen_extra_per_packet = 2900;  // extra scheduling/timer load under Xen

  // CPU frequency of the receive host (the paper's server is a 3.0 GHz Xeon).
  uint64_t cpu_hz = 3'000'000'000;
};

// The paper's native-Linux server. SMP/Xen behaviour is selected by StackConfig.
inline constexpr CostParams kCosts{};

// Cycles charged for one lock site given the kernel configuration.
constexpr uint64_t LockSiteCycles(bool smp) {
  return smp ? kCosts.lock_cycles_smp : kCosts.lock_cycles_up;
}

}  // namespace tcprx

#endif  // SRC_CPU_COST_PARAMS_H_
