#include "src/tcp/reassembly.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "src/util/logging.h"

namespace tcprx {

void ReassemblyQueue::Insert(uint64_t seq, PacketPtr frame) {
  std::span<const uint8_t> data = frame->Payload();
  if (data.empty()) {
    return;
  }
  last_insert_seq_ = seq;
  // Trim against the predecessor segment, if it overlaps our head.
  auto it = std::upper_bound(segments_.begin(), segments_.end(), seq,
                             [](uint64_t s, const Segment& seg) { return s < seg.seq; });
  if (it != segments_.begin()) {
    const uint64_t prev_end = std::prev(it)->end();
    if (seq < prev_end) {
      const uint64_t skip = prev_end - seq;
      if (skip >= data.size()) {
        return;  // fully covered
      }
      data = data.subspan(static_cast<size_t>(skip));
      seq = prev_end;
    }
  }
  // Absorb the successor segments the new data covers, and trim it at the first one it
  // only overlaps. No segment before `it` reaches past `seq`.
  const auto first = it;
  while (it != segments_.end() && it->seq < seq + data.size()) {
    if (it->end() > seq + data.size()) {
      data = data.first(static_cast<size_t>(it->seq - seq));
      break;
    }
    ++it;
  }
  it = segments_.erase(first, it);
  if (!data.empty()) {
    segments_.insert(it, Segment{seq, std::move(frame), data});
  }
}

size_t ReassemblyQueue::PopInOrder(uint64_t next_seq) {
  TCPRX_CHECK_MSG(run_.empty(), "the previous popped run was not released");
  const uint64_t start = next_seq;
  auto first = segments_.begin();
  while (first != segments_.end() && first->end() <= next_seq) {
    ++first;
  }
  // Segments are disjoint, so past the stale ones only the first one popped can start
  // below `next_seq`, and each one after it starts where the run has reached.
  auto it = first;
  for (; it != segments_.end() && it->seq <= next_seq; ++it) {
    it->data = it->data.subspan(static_cast<size_t>(next_seq - it->seq));
    it->seq = next_seq;
    next_seq = it->end();
  }
  run_.insert(run_.end(), std::make_move_iterator(first), std::make_move_iterator(it));
  segments_.erase(segments_.begin(), it);
  return static_cast<size_t>(next_seq - start);
}

size_t ReassemblyQueue::SackBlocks(std::span<SackBlock> out) const {
  // Calls fn(start, end) for each run of adjacent stored segments, ascending.
  const auto for_each_range = [this](auto&& fn) {
    for (size_t i = 0; i < segments_.size();) {
      const uint64_t start = segments_[i].seq;
      uint64_t end = segments_[i].end();
      for (++i; i < segments_.size() && segments_[i].seq == end; ++i) {
        end = segments_[i].end();
      }
      fn(start, end);
    }
  };
  size_t count = 0;
  const auto emit = [&](uint64_t start, uint64_t end) {
    if (count < out.size()) {
      out[count++] = SackBlock{static_cast<uint32_t>(start), static_cast<uint32_t>(end)};
    }
  };
  // The range containing the most recent insertion goes first.
  bool recent_found = false;
  uint64_t recent_start = 0;
  for_each_range([&](uint64_t start, uint64_t end) {
    if (last_insert_seq_ >= start && last_insert_seq_ < end) {
      recent_found = true;
      recent_start = start;
      emit(start, end);
    }
  });
  for_each_range([&](uint64_t start, uint64_t end) {
    if (!recent_found || start != recent_start) {
      emit(start, end);
    }
  });
  return count;
}

size_t ReassemblyQueue::BufferedBytes() const {
  size_t bytes = 0;
  for (const Segment& segment : segments_) {
    bytes += segment.data.size();
  }
  return bytes;
}

}  // namespace tcprx
