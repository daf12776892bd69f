#include "runner/probe.hpp"

#include <algorithm>
#include <utility>

#include "store/benefactor.hpp"
#include "store/wal.hpp"

namespace perfbench {

Counters Counters::operator-(const Counters& b) const {
  Counters d = *this;
  d.page_faults -= b.page_faults;
  d.pages_evicted -= b.pages_evicted;
  d.cache_hits -= b.cache_hits;
  d.fetched_chunks -= b.fetched_chunks;
  d.prefetched_chunks -= b.prefetched_chunks;
  d.fetch_batches -= b.fetch_batches;
  d.fetch_batched_chunks -= b.fetch_batched_chunks;
  d.cache_evictions -= b.cache_evictions;
  d.flushed_pages -= b.flushed_pages;
  d.flushed_chunks -= b.flushed_chunks;
  d.flush_batches -= b.flush_batches;
  d.flush_batched_chunks -= b.flush_batched_chunks;
  d.daemon_busy_ns -= b.daemon_busy_ns;
  d.daemon_queue_ns -= b.daemon_queue_ns;
  d.daemon_requests -= b.daemon_requests;
  d.meta_round_trips -= b.meta_round_trips;
  d.read_run_rpcs -= b.read_run_rpcs;
  d.write_run_rpcs -= b.write_run_rpcs;
  d.benefactor_read_requests -= b.benefactor_read_requests;
  d.bytes_fetched -= b.bytes_fetched;
  d.bytes_flushed -= b.bytes_flushed;
  d.degraded_writes -= b.degraded_writes;
  d.corrupt_failovers -= b.corrupt_failovers;
  d.ec_degraded_reads -= b.ec_degraded_reads;
  d.ec_parity_bytes -= b.ec_parity_bytes;
  d.wal_appends -= b.wal_appends;
  d.wal_bytes -= b.wal_bytes;
  d.remote_bytes -= b.remote_bytes;
  d.nic_busy_ns -= b.nic_busy_ns;
  d.nic_queue_ns -= b.nic_queue_ns;
  d.nic_requests -= b.nic_requests;
  d.ssd_busy_ns -= b.ssd_busy_ns;
  d.ssd_queue_ns -= b.ssd_queue_ns;
  d.ssd_requests -= b.ssd_requests;
  d.ssd_bytes_read -= b.ssd_bytes_read;
  d.ssd_bytes_programmed -= b.ssd_bytes_programmed;
  return d;
}

Probe::Probe(nvm::workloads::Testbed& testbed, std::vector<int> client_nodes)
    : testbed_(testbed), client_nodes_(std::move(client_nodes)) {}

namespace {

void AddResource(const nvm::sim::Resource& r, int64_t& busy, int64_t& queue,
                 uint64_t& requests) {
  busy += r.busy_ns();
  queue += r.queue_delay_ns();
  requests += r.num_requests();
}

}  // namespace

Counters Probe::Take() const {
  Counters c;
  auto& store = testbed_.store();
  for (int node : client_nodes_) {
    auto& rt = testbed_.runtime(node);
    c.page_faults += rt.pool().faults();
    c.pages_evicted += rt.pool().evictions();

    auto& cache = rt.mount().cache();
    const auto& t = cache.traffic();
    c.cache_hits += t.hit_chunks.load();
    c.fetched_chunks += t.fetched_chunks.load();
    c.prefetched_chunks += t.prefetched_chunks.load();
    c.fetch_batches += t.batch_fetches.load();
    c.fetch_batched_chunks += t.batched_chunks.load();
    c.cache_evictions += t.evictions.load();
    c.flushed_pages += t.flushed_pages.load();
    c.flushed_chunks += t.flushed_chunks.load();
    c.flush_batches += t.flush_batches.load();
    c.flush_batched_chunks += t.flush_batched_chunks.load();
    const int lanes = std::max(1, cache.config().daemon_threads);
    for (int lane = 0; lane < lanes; ++lane) {
      AddResource(cache.daemon(static_cast<size_t>(lane)), c.daemon_busy_ns,
                  c.daemon_queue_ns, c.daemon_requests);
    }

    const auto& client = rt.mount().client();
    c.meta_round_trips += client.meta_round_trips();
    c.read_run_rpcs += client.run_rpcs();
    c.write_run_rpcs += client.write_run_rpcs();
    c.bytes_fetched += client.bytes_fetched();
    c.bytes_flushed += client.bytes_flushed();
    c.degraded_writes += client.degraded_writes();
    c.corrupt_failovers += client.corrupt_failovers();
    c.ec_degraded_reads += client.ec_degraded_reads();
  }

  c.ec_parity_bytes = store.manager().ec_parity_bytes();
  for (size_t i = 0; i < store.num_benefactors(); ++i) {
    c.benefactor_read_requests += store.benefactor(i).read_requests();
  }
  auto add_ssd = [&c](nvm::sim::SsdDevice& ssd) {
    AddResource(ssd.channel(), c.ssd_busy_ns, c.ssd_queue_ns,
                c.ssd_requests);
    c.ssd_bytes_read += ssd.host_bytes_read();
    c.ssd_bytes_programmed += ssd.device_bytes_programmed();
  };
  for (int node : store.config().benefactor_nodes) {
    add_ssd(testbed_.cluster().node(node).ssd());
  }
  if (auto* wal = store.wal()) {
    c.wal_appends = wal->appends();
    c.wal_bytes = wal->device().host_bytes_written();
    add_ssd(wal->device());
  }

  auto& network = testbed_.cluster().network();
  c.remote_bytes = network.remote_bytes();
  for (size_t n = 0; n < network.num_nodes(); ++n) {
    AddResource(network.nic(static_cast<int>(n)), c.nic_busy_ns,
                c.nic_queue_ns, c.nic_requests);
  }
  return c;
}

SpanCounters Probe::TakeSpan() const {
  SpanCounters s{};
  auto& store = testbed_.store();
  for (int node : client_nodes_) {
    auto& rt = testbed_.runtime(node);
    const auto& t = rt.mount().cache().traffic();
    const auto& client = rt.mount().client();
    s[0] += rt.pool().faults();
    s[1] += t.fetched_chunks.load();
    s[2] += t.prefetched_chunks.load();
    s[3] += t.flushed_pages.load();
    s[4] += client.meta_round_trips();
    s[5] += client.bytes_fetched();
    s[6] += client.bytes_flushed();
  }
  for (int node : store.config().benefactor_nodes) {
    s[7] += testbed_.cluster().node(node).ssd().channel().num_requests();
  }
  return s;
}

uint64_t Probe::HeldBytes() const {
  auto& store = testbed_.store();
  uint64_t held = 0;
  for (size_t i = 0; i < store.num_benefactors(); ++i) {
    held += store.benefactor(i).bytes_used();
  }
  return held;
}

uint64_t Probe::Files() const { return testbed_.store().manager().num_files(); }

}  // namespace perfbench
