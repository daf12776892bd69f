// A serially-serviced hardware resource (SSD channel, NIC, bus).
//
// Each timed operation reserves an interval on the resource's timeline.  A
// request arriving at virtual time `t` is scheduled into the earliest gap of
// sufficient length starting at or after `t` (backfilling).  Gap-filling
// rather than plain FIFO matters because real threads on a small host reach
// the resource in arbitrary real-time order: a process whose virtual clock
// lags must still be able to use virtual-time gaps that chronologically
// "earlier" requests left behind, otherwise run-to-completion scheduling
// would fabricate contention that the modelled machine never had.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "sim/clock.hpp"

namespace nvm::sim {

class Resource {
 public:
  explicit Resource(std::string name) : name_(std::move(name)) {}

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  // Reserve `duration_ns` of exclusive service starting no earlier than
  // `earliest_start_ns`.  Returns the actual start time; the operation
  // completes at start + duration.
  int64_t Schedule(int64_t earliest_start_ns, int64_t duration_ns);

  // Schedule and advance `clock` to the completion time.  Returns the
  // queueing delay experienced (start - earliest_start).
  int64_t Acquire(VirtualClock& clock, int64_t duration_ns);

  const std::string& name() const { return name_; }

  // Total virtual ns of service delivered (device busy time).
  int64_t busy_ns() const;
  // Total queueing delay suffered by all requests.
  int64_t queue_delay_ns() const;
  uint64_t num_requests() const;

  // Drop all reservations and statistics (between benchmark phases).
  void Reset();

 private:
  std::string name_;
  mutable std::mutex mutex_;
  // Busy interval [start, end) of the timeline.
  struct Interval {
    int64_t start;
    int64_t end;
  };
  // Disjoint busy intervals sorted by start, kept in one contiguous array.
  // Touching intervals are coalesced, so streaming access keeps extending
  // the last element in place; a backfill that opens a new interval shifts
  // the elements after the gap it fills.
  std::vector<Interval> intervals_;
  int64_t busy_ns_ = 0;
  int64_t queue_delay_ns_ = 0;
  uint64_t num_requests_ = 0;
};

}  // namespace nvm::sim
