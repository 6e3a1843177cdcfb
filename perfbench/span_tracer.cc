#include "perfbench/span_tracer.h"

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kLoop:
      return "loop";
    case Layer::kNicRx:
      return "nic.rx";
    case Layer::kNicTx:
      return "nic.tx";
    case Layer::kLinkSend:
      return "link.send";
    case Layer::kSender:
      return "sender";
    case Layer::kStackRx:
      return "stack.rx";
    case Layer::kStackIdle:
      return "stack.idle";
    case Layer::kStackFlush:
      return "stack.flush";
    case Layer::kCount:
      break;
  }
  return "?";
}

SpanTracer::SpanTracer(ClockFn clock) : clock_(clock) {}

void SpanTracer::Begin(Layer layer) {
  if (depth_ >= kMaxDepth) {
    broken_ = true;
    ++depth_;  // keep Begin/End balanced; the span itself is not recorded
    return;
  }
  open_[depth_] = Open{layer, clock_(), 0};
  ++depth_;
}

void SpanTracer::End() {
  if (depth_ == 0) {
    broken_ = true;
    return;
  }
  --depth_;
  if (depth_ >= kMaxDepth) {
    return;
  }
  const Open& span = open_[depth_];
  const int64_t duration = clock_() - span.start_ns;
  Totals& t = totals_[static_cast<size_t>(span.layer)];
  ++t.calls;
  t.inclusive_ns += duration;
  t.self_ns += duration - span.child_ns;
  if (depth_ == 0) {
    root_ns_ += duration;
  } else {
    open_[depth_ - 1].child_ns += duration;
  }
}

}  // namespace perfbench
