#include "sim/resource.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace nvm::sim {

int64_t Resource::Schedule(int64_t earliest_start_ns, int64_t duration_ns) {
  NVM_CHECK(duration_ns >= 0);
  std::lock_guard<std::mutex> lock(mutex_);
  ++num_requests_;
  busy_ns_ += duration_ns;
  if (duration_ns == 0) return earliest_start_ns;

  // Find the earliest gap of length >= duration starting at or after
  // earliest_start_ns.  Walk intervals that end after the candidate start.
  int64_t start = earliest_start_ns;
  auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), start,
      [](int64_t t, const Interval& iv) { return t < iv.start; });
  if (it != intervals_.begin() && std::prev(it)->end > start) {
    start = std::prev(it)->end;  // inside the previous interval
  }
  while (it != intervals_.end() && it->start < start + duration_ns) {
    // Gap before *it is too small (or negative); jump past it.
    start = it->end;
    ++it;
  }
  const int64_t end = start + duration_ns;
  queue_delay_ns_ += start - earliest_start_ns;

  // Insert [start, end) before `it`, coalescing with touching neighbours.
  // The gap search guarantees no overlap, so at most the previous interval
  // (ending at `start`) and `it` (starting at `end`) merge.
  const bool join_prev =
      it != intervals_.begin() && std::prev(it)->end >= start;
  const bool join_next = it != intervals_.end() && it->start <= end;
  if (join_prev && join_next) {
    std::prev(it)->end = it->end;
    intervals_.erase(it);
  } else if (join_prev) {
    std::prev(it)->end = end;
  } else if (join_next) {
    it->start = start;
  } else {
    intervals_.insert(it, {start, end});
  }
  return start;
}

int64_t Resource::Acquire(VirtualClock& clock, int64_t duration_ns) {
  const int64_t arrival = clock.now();
  const int64_t start = Schedule(arrival, duration_ns);
  clock.AdvanceTo(start + duration_ns);
  return start - arrival;
}

int64_t Resource::busy_ns() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return busy_ns_;
}

int64_t Resource::queue_delay_ns() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_delay_ns_;
}

uint64_t Resource::num_requests() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return num_requests_;
}

void Resource::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  intervals_.clear();
  busy_ns_ = 0;
  queue_delay_ns_ = 0;
  num_requests_ = 0;
}

}  // namespace nvm::sim
