// Host-time spans around the simulator's layer boundaries, folded into per-layer
// totals as they close.
//
// A span records the host time one call into a layer took. Spans nest: the link
// delivery into the remote sender contains the sender's own transmit into the link.
// A layer's self time is its span's duration minus the durations of the spans it
// directly contains, so the self times of all layers add up to the root span exactly.
// Totals are kept in fixed arrays, so an open or closed span never allocates and the
// heap counts of a traced run match an untraced one.

#ifndef PERFBENCH_SPAN_TRACER_H_
#define PERFBENCH_SPAN_TRACER_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace perfbench {

enum class Layer : uint8_t {
  kLoop,        // EventLoop::RunUntil, the root: dispatch, driver polls, timers
  kNicRx,       // link delivery into SimulatedNic::DeliverFromWire
  kNicTx,       // stack TransmitFn into SimulatedNic::Transmit (and its egress link)
  kLinkSend,    // remote TransmitFn into SimplexLink::Send
  kSender,      // link delivery into RemoteNode::OnWireFrame
  kStackRx,     // RxSink::ReceiveFrame into NetworkStack (single-core host)
  kStackIdle,   // RxSink::OnReceiveQueueEmpty (the work-conserving flush)
  kStackFlush,  // RxSink::FlushDriverBatch
  kCount,
};

inline constexpr size_t kLayerCount = static_cast<size_t>(Layer::kCount);

// Metric-name prefix of each layer, e.g. "nic.rx".
const char* LayerName(Layer layer);

class SpanTracer {
 public:
  using ClockFn = int64_t (*)();

  // `clock` returns nanoseconds; tests pass a scripted clock.
  explicit SpanTracer(ClockFn clock);

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  void Begin(Layer layer);
  void End();

  struct Totals {
    uint64_t calls = 0;
    int64_t inclusive_ns = 0;
    int64_t self_ns = 0;
  };
  const Totals& totals(Layer layer) const { return totals_[static_cast<size_t>(layer)]; }
  // Summed duration of the outermost spans.
  int64_t root_ns() const { return root_ns_; }
  // True if spans nested deeper than the tracer tracks, or End() ran unmatched.
  bool broken() const { return broken_; }

 private:
  static constexpr size_t kMaxDepth = 16;
  struct Open {
    Layer layer = Layer::kLoop;
    int64_t start_ns = 0;
    int64_t child_ns = 0;
  };

  ClockFn clock_;
  bool enabled_ = false;
  bool broken_ = false;
  size_t depth_ = 0;
  std::array<Open, kMaxDepth> open_{};
  std::array<Totals, kLayerCount> totals_{};
  int64_t root_ns_ = 0;
};

// Opens a span for its lifetime when the tracer is enabled at construction.
class ScopedSpan {
 public:
  ScopedSpan(SpanTracer& tracer, Layer layer)
      : tracer_(tracer.enabled() ? &tracer : nullptr) {
    if (tracer_ != nullptr) {
      tracer_->Begin(layer);
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_TRACER_H_
