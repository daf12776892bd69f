// Fixed-capacity dynamic bitset used for page dirty/valid tracking in the
// chunk cache.  std::vector<bool> is avoided deliberately: we need popcount,
// find-first-set iteration, and word-level access for fast scans.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/log.hpp"

namespace nvm {

class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(size_t bits)
      : bits_(bits), words_((bits + 63) / 64, 0) {}

  size_t size() const { return bits_; }

  void Set(size_t i) {
    NVM_CHECK(i < bits_);
    words_[i >> 6] |= (1ULL << (i & 63));
  }

  void Clear(size_t i) {
    NVM_CHECK(i < bits_);
    words_[i >> 6] &= ~(1ULL << (i & 63));
  }

  bool Test(size_t i) const {
    NVM_CHECK(i < bits_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  void SetAll() {
    for (auto& w : words_) w = ~0ULL;
    TrimTail();
  }

  void ClearAll() {
    for (auto& w : words_) w = 0;
  }

  size_t PopCount() const {
    size_t n = 0;
    for (uint64_t w : words_) n += static_cast<size_t>(std::popcount(w));
    return n;
  }

  bool Any() const {
    for (uint64_t w : words_)
      if (w != 0) return true;
    return false;
  }

  bool None() const { return !Any(); }
  bool All() const { return PopCount() == bits_; }

  // First set bit at or after `from`, or size() if none.
  size_t FindNextSet(size_t from) const {
    if (from >= bits_) return bits_;
    size_t word = from >> 6;
    uint64_t w = words_[word] & (~0ULL << (from & 63));
    while (true) {
      if (w != 0) {
        const size_t bit = (word << 6) +
                           static_cast<size_t>(std::countr_zero(w));
        return bit < bits_ ? bit : bits_;
      }
      if (++word >= words_.size()) return bits_;
      w = words_[word];
    }
  }

  // Invoke fn(index) for every set bit, in ascending order.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (size_t i = FindNextSet(0); i < bits_; i = FindNextSet(i + 1)) {
      fn(i);
    }
  }

 private:
  void TrimTail() {
    const size_t tail = bits_ & 63;
    if (tail != 0 && !words_.empty()) {
      words_.back() &= (1ULL << tail) - 1;
    }
  }

  size_t bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace nvm
