// NvmRegion — an ssdmalloc'd memory region backed by a file on the
// aggregate NVM store, accessed through mmap-style page residency.
//
// The paper maps a FUSE-backed file with mmap(); byte accesses fault 4 KB
// pages in and out of DRAM, and the FUSE chunk cache underneath talks to
// the store in 256 KB chunks.  NvmRegion models that double buffering
// explicitly so it works under virtual time:
//
//   application --(page faults)--> resident pages (PagePool budget)
//        --(page read/write-back)--> fuselite ChunkCache (64 MB LRU)
//        --(chunk fetch / dirty-page flush)--> aggregate store
//
// The region owns a contiguous backing buffer covering the whole mapping;
// "resident" pages are those the modelled OS currently holds, bounded by
// the node-wide PagePool.  Pin() is the hot-path accessor: it faults the
// covered pages in (charging per-page fault cost plus any cache/store
// traffic) and returns an RAII guard over a raw pointer, so kernels run at
// native speed between faults — exactly the behaviour mmap gives the
// paper's kernels.  While a guard is alive its pages cannot be evicted
// (they behave like pages between two fault-visible instants: a real OS
// would re-dirty them on the next store; our coarser granularity instead
// pins them for the guard's scope).
//
// A separate, genuinely transparent SIGSEGV-based path (TransparentMap in
// transparent.hpp) provides real pointer semantics for applications; this
// class is the deterministic engine the benchmarks use.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/bitmap.hpp"
#include "common/status.hpp"
#include "fuselite/mount.hpp"

namespace nvm {

class NvmRegion;

// Node-wide budget of resident (mapped-in) pages shared by every region on
// the node — the modelled OS page cache available to mmap'd NVM variables.
// Replacement is FIFO (second-chance bookkeeping would cost a lock per
// element access; the paper's workloads are streaming or tile-reuse, where
// FIFO and LRU behave alike).  Pinned pages are skipped; if every resident
// page is pinned the pool briefly overcommits, like mlock'd pages.
class PagePool {
 public:
  explicit PagePool(uint64_t capacity_pages)
      : capacity_pages_(capacity_pages) {}

  uint64_t capacity_pages() const { return capacity_pages_; }
  uint64_t resident_pages() const;
  uint64_t faults() const { return faults_.value(); }
  uint64_t evictions() const { return evictions_.value(); }

 private:
  friend class NvmRegion;
  struct Entry {
    NvmRegion* region;
    uint32_t page;
  };

  // All pager state on a node shares this one mutex: regions and pool
  // interleave arbitrarily during eviction, and a single lock makes that
  // trivially deadlock-free.
  mutable std::mutex mutex_;
  std::deque<Entry> fifo_;
  uint64_t capacity_pages_ = 0;
  uint64_t resident_ = 0;
  Counter faults_;
  Counter evictions_;
};

struct RegionStats {
  uint64_t page_faults = 0;
  uint64_t pages_evicted = 0;
  uint64_t bytes_faulted_in = 0;
  uint64_t bytes_written_back = 0;
};

// Move-only guard over a pinned byte range of a region.  The pointer is
// valid and its pages immune to eviction until destruction.
class [[nodiscard]] PinnedSpan {
 public:
  PinnedSpan() = default;
  PinnedSpan(PinnedSpan&& other) noexcept { *this = std::move(other); }
  PinnedSpan& operator=(PinnedSpan&& other) noexcept;
  ~PinnedSpan() { Release(); }

  PinnedSpan(const PinnedSpan&) = delete;
  PinnedSpan& operator=(const PinnedSpan&) = delete;

  uint8_t* data() const { return data_; }
  uint64_t size() const { return size_; }
  bool valid() const { return region_ != nullptr; }
  void Release();

 private:
  friend class NvmRegion;
  PinnedSpan(NvmRegion* region, uint8_t* data, uint64_t size,
             uint32_t first_page, uint32_t last_page)
      : region_(region),
        data_(data),
        size_(size),
        first_page_(first_page),
        last_page_(last_page) {}

  NvmRegion* region_ = nullptr;
  uint8_t* data_ = nullptr;
  uint64_t size_ = 0;
  uint32_t first_page_ = 0;
  uint32_t last_page_ = 0;
};

// Typed pinned view (array kernels hold these for a block/tile scope).
template <typename T>
class [[nodiscard]] PinnedArray {
 public:
  PinnedArray() = default;
  explicit PinnedArray(PinnedSpan span) : span_(std::move(span)) {}

  T* data() const { return reinterpret_cast<T*>(span_.data()); }
  size_t size() const { return static_cast<size_t>(span_.size() / sizeof(T)); }
  T& operator[](size_t i) const { return data()[i]; }
  bool valid() const { return span_.valid(); }
  void Release() { span_.Release(); }

 private:
  PinnedSpan span_;
};

class NvmRegion {
 public:
  static constexpr uint64_t kPageBytes = 4_KiB;

  // Created via NvmallocRuntime::SsdMalloc; the region assumes the file
  // already exists with `size` bytes fallocated.
  NvmRegion(fuselite::MountPoint& mount, PagePool& pool,
            fuselite::FileHandle file, uint64_t size, bool shared,
            int64_t page_fault_ns);
  ~NvmRegion();

  NvmRegion(const NvmRegion&) = delete;
  NvmRegion& operator=(const NvmRegion&) = delete;

  uint64_t size_bytes() const { return size_; }
  store::FileId file_id() const { return file_.id(); }
  bool shared() const { return shared_; }
  // Persistent variables outlive ssdfree (paper §III-C's lifetime idea).
  bool persistent() const { return persistent_; }
  void set_persistent(bool p) { persistent_ = p; }
  fuselite::FileHandle& file() { return file_; }

  // Fault in and pin all pages covering [offset, offset+len).  With
  // `for_write`, the pages are marked dirty.  Returns a guard whose
  // data() points at the (contiguous) bytes.
  StatusOr<PinnedSpan> Pin(uint64_t offset, uint64_t len, bool for_write);

  // Convenience bulk accessors built on Pin().
  Status Read(uint64_t offset, std::span<uint8_t> out);
  Status Write(uint64_t offset, std::span<const uint8_t> in);

  // Write every dirty resident page down to the fuselite cache and flush
  // the cache to the store — after this the store holds current data
  // (required before checkpoint linking).
  Status Sync();

  // Drop residency without writing back (used when the backing file is
  // deleted by ssdfree).
  void Invalidate();

  RegionStats stats() const;

 private:
  friend class PagePool;
  friend class PinnedSpan;

  // Pool-mutex-held helpers.
  Status FaultPageLocked(sim::VirtualClock& clock, uint32_t page);
  // Returns true if a page was evicted (false: everything pinned).
  StatusOr<bool> EvictOnePageLocked(sim::VirtualClock& clock);
  Status WriteBackPageLocked(sim::VirtualClock& clock, uint32_t page);
  void Unpin(uint32_t first_page, uint32_t last_page);

  fuselite::MountPoint& mount_;
  PagePool& pool_;
  fuselite::FileHandle file_;
  const uint64_t size_;
  const bool shared_;
  bool persistent_ = false;
  const int64_t page_fault_ns_;
  const uint64_t num_pages_;

  std::vector<uint8_t> buffer_;  // full-region backing window
  Bitmap resident_;
  Bitmap dirty_;
  std::vector<uint16_t> pin_counts_;
  RegionStats stats_;
};

// Typed view over a region, with page-block iteration helpers that keep
// per-element overhead off the hot path.
template <typename T>
class NvmArray {
 public:
  NvmArray() = default;
  explicit NvmArray(NvmRegion* region) : region_(region) {}

  size_t size() const {
    return static_cast<size_t>(region_->size_bytes() / sizeof(T));
  }
  NvmRegion* region() const { return region_; }

  // Pin `count` elements starting at `index` for reading.
  StatusOr<PinnedArray<const T>> PinRead(size_t index, size_t count) {
    auto p = region_->Pin(index * sizeof(T), count * sizeof(T), false);
    if (!p.ok()) return p.status();
    return PinnedArray<const T>(std::move(*p));
  }

  // Pin `count` elements starting at `index` for writing.
  StatusOr<PinnedArray<T>> PinWrite(size_t index, size_t count) {
    auto p = region_->Pin(index * sizeof(T), count * sizeof(T), true);
    if (!p.ok()) return p.status();
    return PinnedArray<T>(std::move(*p));
  }

  // Single-element accessors (tests and low-rate paths).
  StatusOr<T> Get(size_t index) {
    NVM_ASSIGN_OR_RETURN(PinnedArray<const T> p, PinRead(index, 1));
    return p[0];
  }
  Status Set(size_t index, T value) {
    NVM_ASSIGN_OR_RETURN(PinnedArray<T> p, PinWrite(index, 1));
    p[0] = value;
    return OkStatus();
  }

 private:
  NvmRegion* region_ = nullptr;
};

}  // namespace nvm
