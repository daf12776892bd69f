// Layer counters read from outside the program.
//
// A Probe snapshots the public stat getters of every layer the benchmark
// names — nvmalloc's page pools, fuselite's chunk caches and daemon lanes,
// the store client, manager, benefactors and WAL, the network's NICs and
// the simulated SSDs — so a measured phase is described by the difference
// of two snapshots.  Nothing inside src/ is instrumented.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "workloads/testbed.hpp"

namespace perfbench {

// Cumulative counters at one instant.  Every field is a running total, so
// `after - before` is the activity in between.
struct Counters {
  // nvmalloc
  uint64_t page_faults = 0;
  uint64_t pages_evicted = 0;
  // fuselite
  uint64_t cache_hits = 0;
  uint64_t fetched_chunks = 0;
  uint64_t prefetched_chunks = 0;
  uint64_t fetch_batches = 0;
  uint64_t fetch_batched_chunks = 0;
  uint64_t cache_evictions = 0;
  uint64_t flushed_pages = 0;
  uint64_t flushed_chunks = 0;
  uint64_t flush_batches = 0;
  uint64_t flush_batched_chunks = 0;
  int64_t daemon_busy_ns = 0;
  int64_t daemon_queue_ns = 0;
  uint64_t daemon_requests = 0;
  // store
  uint64_t meta_round_trips = 0;
  uint64_t read_run_rpcs = 0;
  uint64_t write_run_rpcs = 0;
  uint64_t benefactor_read_requests = 0;
  uint64_t bytes_fetched = 0;
  uint64_t bytes_flushed = 0;
  uint64_t degraded_writes = 0;
  uint64_t corrupt_failovers = 0;
  uint64_t ec_degraded_reads = 0;
  uint64_t ec_parity_bytes = 0;
  uint64_t wal_appends = 0;
  uint64_t wal_bytes = 0;
  // net
  uint64_t remote_bytes = 0;
  int64_t nic_busy_ns = 0;
  int64_t nic_queue_ns = 0;
  uint64_t nic_requests = 0;
  // sim (benefactor SSDs plus the WAL device)
  int64_t ssd_busy_ns = 0;
  int64_t ssd_queue_ns = 0;
  uint64_t ssd_requests = 0;
  uint64_t ssd_bytes_read = 0;
  uint64_t ssd_bytes_programmed = 0;

  Counters operator-(const Counters& before) const;
};

// The handful of counters a traced span carries as deltas: cheap enough to
// read around every call of a single-rank run.
inline constexpr int kSpanCounters = 8;
inline constexpr const char* kSpanCounterNames[kSpanCounters] = {
    "page_faults",   "fetched_chunks",   "prefetched_chunks",
    "flushed_pages", "meta_round_trips", "bytes_fetched",
    "bytes_flushed", "ssd_requests"};
using SpanCounters = std::array<uint64_t, kSpanCounters>;

class Probe {
 public:
  // `client_nodes` are the compute nodes whose runtimes the workload uses.
  Probe(nvm::workloads::Testbed& testbed, std::vector<int> client_nodes);

  Counters Take() const;
  SpanCounters TakeSpan() const;

  // Benefactor bytes held (space accounting, not a running total).
  uint64_t HeldBytes() const;
  uint64_t Files() const;

 private:
  nvm::workloads::Testbed& testbed_;
  std::vector<int> client_nodes_;
};

}  // namespace perfbench
