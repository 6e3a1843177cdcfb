#include "src/tcp/reassembly.h"

#include <algorithm>
#include <utility>

#include "src/wire/frame_buffer.h"

namespace tcprx {

void ReassemblyQueue::Insert(uint64_t seq, std::span<const uint8_t> data) {
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
  it = Release(first, it);
  if (!data.empty()) {
    buffered_bytes_ += data.size();
    segments_.insert(it, Segment{seq, CopyFrame(data)});
  }
}

size_t ReassemblyQueue::PopInOrder(uint64_t next_seq, std::vector<uint8_t>& out) {
  DropBelow(next_seq);
  const size_t before = out.size();
  // Segments are disjoint, so after DropBelow only the first one popped can start
  // below `next_seq`, and each one after it starts where the run has reached.
  auto it = segments_.begin();
  for (; it != segments_.end() && it->seq <= next_seq; ++it) {
    const auto skip = static_cast<long>(next_seq - it->seq);
    out.insert(out.end(), it->data.begin() + skip, it->data.end());
    next_seq = it->end();
  }
  Release(segments_.begin(), it);
  return out.size() - before;
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

void ReassemblyQueue::DropBelow(uint64_t next_seq) {
  auto it = segments_.begin();
  while (it != segments_.end() && it->end() <= next_seq) {
    ++it;
  }
  Release(segments_.begin(), it);
}

std::vector<ReassemblyQueue::Segment>::iterator ReassemblyQueue::Release(
    std::vector<Segment>::iterator first, std::vector<Segment>::iterator last) {
  for (auto it = first; it != last; ++it) {
    buffered_bytes_ -= it->data.size();
    RecycleFrameBuffer(std::move(it->data));
  }
  return segments_.erase(first, last);
}

}  // namespace tcprx
