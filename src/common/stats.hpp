// Running statistics and counters for instrumentation.
#pragma once

#include <atomic>
#include <cstdint>

namespace nvm {

// Welford running mean/variance plus min/max.  Not thread-safe; guard
// externally or keep one per thread and Merge().
class RunningStats {
 public:
  void Add(double x);
  void Merge(const RunningStats& other);

  uint64_t count() const { return count_; }
  double mean() const { return mean_; }
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// A named monotonically increasing counter (bytes moved, ops served...).
class Counter {
 public:
  void Add(uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

}  // namespace nvm
