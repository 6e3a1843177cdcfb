// Per-routine CPU cycle accounting — the simulator's OProfile.
//
// Every stage of the receive path charges its cycles to one fixed Routine, the way
// OProfile attributes samples to kernel symbols (the paper's section 2: "Profile
// statistics are collected and reported using the OProfile tool"). Each routine bills
// exactly one category, set once in the routine table below. The categories are the
// paper's breakdown buckets (Figures 3, 4, 6, 8-10), including the virtualization-path
// buckets used only in Xen mode and the `aggr` bucket that exists only when Receive
// Aggregation is enabled.

#ifndef SRC_CPU_CYCLE_ACCOUNT_H_
#define SRC_CPU_CYCLE_ACCOUNT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace tcprx {

enum class CostCategory {
  kPerByte,   // data copy / software checksum
  kRx,        // TCP/IP protocol receive processing
  kTx,        // TCP/IP protocol transmit processing (ACKs)
  kBuffer,    // sk_buff and packet buffer management
  kNonProto,  // softirq plumbing, netfilter, bridging — per-packet but not protocol
  kDriver,    // device driver and interrupt context (incl. ACK template expansion)
  kAggr,      // the Receive Aggregation routine itself
  kNetback,   // Xen backend driver (driver domain)
  kNetfront,  // Xen frontend driver (guest domain)
  kXen,       // hypervisor: grant operations, domain switches, virtual interrupts
  kMisc,      // scheduling, timers, everything unattributable
};

inline constexpr size_t kCostCategoryCount = 11;

const char* CostCategoryName(CostCategory c);

// Every routine a charge can name, in routine-table order.
enum class Routine {
  // Native receive path (src/stack).
  kIrqEntry,
  kE1000CleanRxIrq,
  kE1000AllocRxBuffers,
  kDoSoftirq,
  kXenSchedMisc,
  kS2ioLroRx,
  kEthTypeTrans,
  kAllocSkb,
  kAggrEarlyDemux,
  kAggrMatch,
  kAggrFlush,
  kSkbFillPageDesc,
  kNetifReceiveSkb,
  kNetifReceiveSkbGuest,
  kIpRcv,
  kCsumPartial,
  kTcpV4Rcv,
  kTcpRcvEstablished,
  kSpinLock,
  kCopyToUser,
  kKfreeSkb,
  // Transmit path (src/stack).
  kTcpSendAck,
  kIpQueueXmit,
  kTcpBuildAckTemplate,
  kSpinLockTx,
  kDevQueueXmit,
  kAllocSkbTx,
  kCopyFromUser,
  kDriverExpandTemplateAck,
  kE1000XmitFrame,
  // Xen I/O path (src/xen).
  kBrHandleFrame,
  kNetbkRxAction,
  kGnttabCopy,
  kAllocSkbDom0,
  kGrantCopyData,
  kXennetPoll,
  kXennetStartXmit,
  kGnttabCopyTx,
  kNetbkTxAction,
  kBrHandleFrameTx,
  kXenDomainSwitch,
  // Multi-core host (src/smp): shared-line touches and software steering.
  kPoolCounters,
  kFibTable,
  kRpsFlowTable,
  kListenerTable,
  kRpsEnqueue,  // the last enumerator: see the static_assert below the table
};

struct RoutineInfo {
  Routine routine;
  std::string_view name;  // the kernel-flavoured symbol a flat profile prints
  CostCategory category;  // the one breakdown bucket this routine bills
};

// The only place that knows which category a routine bills.
inline constexpr RoutineInfo kRoutineTable[] = {
    {Routine::kIrqEntry, "irq_entry", CostCategory::kMisc},
    {Routine::kE1000CleanRxIrq, "e1000_clean_rx_irq", CostCategory::kDriver},
    {Routine::kE1000AllocRxBuffers, "e1000_alloc_rx_buffers", CostCategory::kBuffer},
    {Routine::kDoSoftirq, "__do_softirq", CostCategory::kMisc},
    {Routine::kXenSchedMisc, "xen_sched_misc", CostCategory::kMisc},
    {Routine::kS2ioLroRx, "s2io_lro_rx", CostCategory::kDriver},
    {Routine::kEthTypeTrans, "eth_type_trans", CostCategory::kDriver},
    {Routine::kAllocSkb, "__alloc_skb", CostCategory::kBuffer},
    {Routine::kAggrEarlyDemux, "aggr_early_demux", CostCategory::kAggr},
    {Routine::kAggrMatch, "aggr_match", CostCategory::kAggr},
    {Routine::kAggrFlush, "aggr_flush", CostCategory::kAggr},
    {Routine::kSkbFillPageDesc, "skb_fill_page_desc", CostCategory::kBuffer},
    {Routine::kNetifReceiveSkb, "netif_receive_skb", CostCategory::kNonProto},
    {Routine::kNetifReceiveSkbGuest, "netif_receive_skb(guest)", CostCategory::kNonProto},
    {Routine::kIpRcv, "ip_rcv", CostCategory::kRx},
    {Routine::kCsumPartial, "csum_partial", CostCategory::kPerByte},
    {Routine::kTcpV4Rcv, "tcp_v4_rcv", CostCategory::kRx},
    {Routine::kTcpRcvEstablished, "tcp_rcv_established", CostCategory::kRx},
    {Routine::kSpinLock, "_spin_lock", CostCategory::kRx},
    {Routine::kCopyToUser, "copy_to_user", CostCategory::kPerByte},
    {Routine::kKfreeSkb, "kfree_skb", CostCategory::kBuffer},
    {Routine::kTcpSendAck, "tcp_send_ack", CostCategory::kTx},
    {Routine::kIpQueueXmit, "ip_queue_xmit", CostCategory::kTx},
    {Routine::kTcpBuildAckTemplate, "tcp_build_ack_template", CostCategory::kTx},
    {Routine::kSpinLockTx, "_spin_lock(tx)", CostCategory::kTx},
    {Routine::kDevQueueXmit, "dev_queue_xmit", CostCategory::kNonProto},
    {Routine::kAllocSkbTx, "__alloc_skb(tx)", CostCategory::kBuffer},
    {Routine::kCopyFromUser, "copy_from_user", CostCategory::kPerByte},
    {Routine::kDriverExpandTemplateAck, "driver_expand_template_ack", CostCategory::kDriver},
    {Routine::kE1000XmitFrame, "e1000_xmit_frame", CostCategory::kDriver},
    {Routine::kBrHandleFrame, "br_handle_frame", CostCategory::kNonProto},
    {Routine::kNetbkRxAction, "netbk_rx_action", CostCategory::kNetback},
    {Routine::kGnttabCopy, "gnttab_copy", CostCategory::kXen},
    {Routine::kAllocSkbDom0, "__alloc_skb(dom0)", CostCategory::kBuffer},
    {Routine::kGrantCopyData, "grant_copy_data", CostCategory::kPerByte},
    {Routine::kXennetPoll, "xennet_poll", CostCategory::kNetfront},
    {Routine::kXennetStartXmit, "xennet_start_xmit", CostCategory::kNetfront},
    {Routine::kGnttabCopyTx, "gnttab_copy(tx)", CostCategory::kXen},
    {Routine::kNetbkTxAction, "netbk_tx_action", CostCategory::kNetback},
    {Routine::kBrHandleFrameTx, "br_handle_frame(tx)", CostCategory::kNonProto},
    {Routine::kXenDomainSwitch, "xen_domain_switch", CostCategory::kXen},
    {Routine::kPoolCounters, "pool_counters", CostCategory::kBuffer},
    {Routine::kFibTable, "fib_table", CostCategory::kNonProto},
    {Routine::kRpsFlowTable, "rps_flow_table", CostCategory::kDriver},
    {Routine::kListenerTable, "listener_table", CostCategory::kNonProto},
    {Routine::kRpsEnqueue, "rps_enqueue", CostCategory::kDriver},
};

inline constexpr size_t kRoutineCount = std::size(kRoutineTable);

// Row i describes Routine(i), and every name is non-empty and unique.
constexpr bool RoutineTableIsWellFormed() {
  for (size_t i = 0; i < kRoutineCount; ++i) {
    if (kRoutineTable[i].routine != static_cast<Routine>(i) || kRoutineTable[i].name.empty()) {
      return false;
    }
    for (size_t j = i + 1; j < kRoutineCount; ++j) {
      if (kRoutineTable[i].name == kRoutineTable[j].name) {
        return false;
      }
    }
  }
  return true;
}
static_assert(RoutineTableIsWellFormed());
static_assert(static_cast<size_t>(Routine::kRpsEnqueue) + 1 == kRoutineCount,
              "every Routine needs a row in kRoutineTable");

// Cycles per routine, indexed by Routine.
using RoutineCycles = std::array<uint64_t, kRoutineCount>;
using CategoryCycles = std::array<uint64_t, kCostCategoryCount>;

// Sums per-routine cycles into the category each routine bills.
CategoryCycles FoldCategories(const RoutineCycles& routines);

class CycleAccount {
 public:
  void Charge(Routine routine, uint64_t cycles) {
    routines_[static_cast<size_t>(routine)] += cycles;
  }

  const RoutineCycles& routine_cycles() const { return routines_; }
  uint64_t Get(CostCategory category) const;
  uint64_t Total() const;

  // Event counters used to normalize the breakdown "per network data packet" the way
  // the paper's figures do.
  struct Counters {
    uint64_t net_data_packets = 0;   // network-level TCP data packets received
    uint64_t host_packets = 0;       // host packets delivered to the stack (post-aggregation)
    uint64_t acks_generated = 0;     // ACK packets put on the wire
    uint64_t ack_templates = 0;      // template ACKs built by the TCP layer
    uint64_t aggregated_segments = 0;  // network packets that were coalesced into aggregates
    uint64_t payload_bytes = 0;      // TCP payload bytes delivered to sockets
    uint64_t drops = 0;  // nothing writes it; kept for perfbench's frozen LayerCounts
  };
  Counters& counters() { return counters_; }
  const Counters& counters() const { return counters_; }

 private:
  RoutineCycles routines_{};
  Counters counters_;
};

}  // namespace tcprx

#endif  // SRC_CPU_CYCLE_ACCOUNT_H_
