// nvm_perfbench — runs one named workload from a seed for a given number of
// host seconds and prints its metrics.
//
//   nvm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--size full|tiny] [--trace-out <path>]
//
// A run repeats whole passes (fresh testbed, set-up, measured phase,
// verification) until `--seconds` have elapsed, and reports the median of
// each metric over its passes.  With --trace 0 it prints the end-to-end
// metrics; with --trace 1 it alternates untraced and traced passes and
// prints the per-layer metrics, including the tracing overhead on host_s.
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "runner/workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Size size = Size::kFull;
  std::string trace_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "nvm_perfbench: %s\nusage: nvm_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--size full|tiny] "
               "[--trace-out <path>]\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0' || val.empty()) Usage("--seed takes an integer");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) Usage("--seconds must be > 0");
    } else if (key == "--trace") {
      if (val != "0" && val != "1") Usage("--trace takes 0 or 1");
      a.trace = val == "1";
    } else if (key == "--size") {
      if (val != "full" && val != "tiny") Usage("--size takes full or tiny");
      a.size = val == "tiny" ? Size::kTiny : Size::kFull;
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      Usage(("unknown flag " + key).c_str());
    }
  }
  if (FindWorkload(a.workload) == nullptr) Usage("unknown --workload");
  return a;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile of a latency sample, p in (0, 1].
int64_t Percentile(std::vector<int64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size()))), 1,
      v.size());
  return v[rank - 1];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::map<std::string, Metric>;

// End-to-end metrics of one untraced pass (host times and memory are added
// by the caller).
Metrics EndToEnd(const PassResult& r) {
  Metrics m;
  const double modelled_s = static_cast<double>(r.modelled_ns) / 1e9;
  m["setup_s"] = {r.setup_s, "s"};
  m["host_s"] = {r.host_s, "s"};
  m["app_mbps"] = {Ratio(static_cast<double>(r.app_bytes_read +
                                             r.app_bytes_written) / 1e6,
                         modelled_s),
                   "MB/s"};
  // The mean, not the median: most ops of a single-rank run cost one of a
  // few fixed amounts (a resident page costs nothing, an uncontended miss
  // a fixed sum), so the median and even p90 sit on plateaus that no seed
  // moves, while the mean follows the hit mix.  p99 reaches the misses
  // that queue behind write-back, which do vary.
  int64_t total_ns = 0;
  for (int64_t v : r.op_ns) total_ns += v;
  m["op_mean_us"] = {Ratio(static_cast<double>(total_ns) / 1e3,
                           static_cast<double>(r.op_ns.size())),
                     "us"};
  m["op_p99_us"] = {static_cast<double>(Percentile(r.op_ns, 0.99)) / 1e3,
                    "us"};
  m["ssd_write_amp"] = {
      Ratio(static_cast<double>(r.delta.ssd_bytes_programmed),
            static_cast<double>(r.app_bytes_written)),
      "ratio"};
  m["space_amp"] = {Ratio(static_cast<double>(r.held_bytes),
                          static_cast<double>(r.live_user_bytes)),
                    "ratio"};
  return m;
}

// Reported beside the metrics for the reader: the latency median and the
// sample counts behind each percentile.
Metrics Info(const PassResult& r) {
  Metrics m;
  m["op_samples"] = {static_cast<double>(r.op_ns.size()), "count"};
  m["op_p50_us"] = {static_cast<double>(Percentile(r.op_ns, 0.50)) / 1e3,
                    "us"};
  m["op_p90_us"] = {static_cast<double>(Percentile(r.op_ns, 0.90)) / 1e3,
                    "us"};
  m["ckpt_samples"] = {static_cast<double>(r.ckpt_ns.size()), "count"};
  return m;
}

// Per-layer metrics of one traced pass.
Metrics PerLayer(const PassResult& r) {
  const Counters& d = r.delta;
  const auto u = [](uint64_t v) { return static_cast<double>(v); };
  const auto i = [](int64_t v) { return static_cast<double>(v); };
  Metrics m;
  m["nvmalloc.page_faults"] = {u(d.page_faults), "count"};
  m["nvmalloc.pages_evicted"] = {u(d.pages_evicted), "count"};
  m["nvmalloc.bytes_written_back"] = {u(r.written_back_bytes), "bytes"};
  int64_t ckpt_vns = 0;
  for (int64_t c : r.ckpt_ns) ckpt_vns += c;
  m["nvmalloc.ckpt_vns"] = {i(ckpt_vns), "ns"};
  m["nvmalloc.ckpt_p50_ms"] = {i(Percentile(r.ckpt_ns, 0.50)) / 1e6, "ms"};
  m["nvmalloc.ckpt_p90_ms"] = {i(Percentile(r.ckpt_ns, 0.90)) / 1e6, "ms"};

  std::vector<const RankTracer*> tracers;
  for (const auto& t : r.tracers) tracers.push_back(t.get());
  const SelfTimes self = ComputeSelfTimes(tracers);
  for (int k = 0; k < kNumOpKinds; ++k) {
    const auto kind = static_cast<OpKind>(k);
    const std::string name =
        kind == OpKind::kStep
            ? "bench.step_self_host_ns"
            : std::string("nvmalloc.call_host_ns.") + OpKindName(kind);
    m[name] = {i(self.host_ns[k]), "ns"};
  }
  m["bench.spans"] = {u(self.spans), "count"};
  m["bench.traced_host_s"] = {r.host_s, "s"};

  const uint64_t chunks_fetched = d.fetched_chunks + d.prefetched_chunks;
  m["fuselite.hit_ratio"] = {
      Ratio(u(d.cache_hits), u(d.cache_hits + d.fetched_chunks)), "ratio"};
  m["fuselite.read_amp"] = {Ratio(u(d.bytes_fetched), u(r.app_bytes_read)),
                            "ratio"};
  m["fuselite.fetched_chunks"] = {u(d.fetched_chunks), "count"};
  m["fuselite.prefetched_chunks"] = {u(d.prefetched_chunks), "count"};
  m["fuselite.chunks_per_fetch_batch"] = {
      Ratio(u(d.fetch_batched_chunks), u(d.fetch_batches)), "chunks"};
  m["fuselite.evictions"] = {u(d.cache_evictions), "count"};
  m["fuselite.flushed_pages"] = {u(d.flushed_pages), "count"};
  // Flush windows of one chunk are not counted as batches by the cache.
  m["fuselite.chunks_per_flush_batch"] = {
      d.flush_batches > 0 ? Ratio(u(d.flush_batched_chunks), u(d.flush_batches))
                          : (d.flushed_chunks > 0 ? 1.0 : 0.0),
      "chunks"};
  m["fuselite.daemon_busy_ns"] = {i(d.daemon_busy_ns), "ns"};
  m["fuselite.daemon_queue_ns"] = {i(d.daemon_queue_ns), "ns"};

  m["store.meta_round_trips"] = {u(d.meta_round_trips), "count"};
  m["store.wal_appends"] = {u(d.wal_appends), "count"};
  m["store.wal_bytes"] = {u(d.wal_bytes), "bytes"};
  m["store.read_run_rpcs"] = {u(d.read_run_rpcs), "count"};
  m["store.chunks_per_read_run"] = {
      Ratio(u(chunks_fetched), u(d.benefactor_read_requests)), "chunks"};
  m["store.write_run_rpcs"] = {u(d.write_run_rpcs), "count"};
  m["store.bytes_fetched"] = {u(d.bytes_fetched), "bytes"};
  m["store.bytes_flushed"] = {u(d.bytes_flushed), "bytes"};
  m["store.read_p50_us"] = {i(r.store_read_p50_ns) / 1e3, "us"};
  m["store.read_p99_us"] = {i(r.store_read_p99_ns) / 1e3, "us"};
  m["store.write_p50_us"] = {i(r.store_write_p50_ns) / 1e3, "us"};
  m["store.write_p99_us"] = {i(r.store_write_p99_ns) / 1e3, "us"};
  m["store.ec_parity_bytes"] = {u(d.ec_parity_bytes), "bytes"};
  m["store.files"] = {u(r.files), "count"};
  m["store.degraded_writes"] = {u(d.degraded_writes), "count"};
  m["store.corrupt_failovers"] = {u(d.corrupt_failovers), "count"};
  m["store.ec_degraded_reads"] = {u(d.ec_degraded_reads), "count"};

  m["net.remote_bytes"] = {u(d.remote_bytes), "bytes"};
  m["net.nic_busy_ns"] = {i(d.nic_busy_ns), "ns"};
  m["net.nic_queue_ns"] = {i(d.nic_queue_ns), "ns"};
  m["net.nic_requests"] = {u(d.nic_requests), "count"};

  m["sim.ssd_busy_ns"] = {i(d.ssd_busy_ns), "ns"};
  m["sim.ssd_queue_ns"] = {i(d.ssd_queue_ns), "ns"};
  m["sim.ssd_requests"] = {u(d.ssd_requests), "count"};
  m["sim.ssd_bytes_read"] = {u(d.ssd_bytes_read), "bytes"};
  m["sim.ssd_bytes_programmed"] = {u(d.ssd_bytes_programmed), "bytes"};
  m["sim.resource_requests"] = {
      u(d.ssd_requests + d.nic_requests + d.daemon_requests), "count"};
  return m;
}

// Median of each metric over passes.
Metrics MedianOf(const std::vector<Metrics>& passes) {
  Metrics out;
  for (const auto& [name, first] : passes.front()) {
    std::vector<double> v;
    for (const Metrics& m : passes) v.push_back(m.at(name).value);
    out[name] = {Median(v), first.unit};
  }
  return out;
}

// Everything a pass reports in modelled time, for the single-rank
// workloads' same-seed-same-result check.
uint64_t ModelledSignature(const PassResult& r) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) { h = (h ^ v) * 0x100000001b3ULL; };
  mix(static_cast<uint64_t>(r.modelled_ns));
  for (int64_t v : r.op_ns) mix(static_cast<uint64_t>(v));
  for (int64_t v : r.ckpt_ns) mix(static_cast<uint64_t>(v));
  const Counters& d = r.delta;
  for (uint64_t v : {d.page_faults, d.fetched_chunks, d.flushed_pages,
                     d.meta_round_trips, d.ssd_requests, d.nic_requests,
                     d.ssd_bytes_programmed, r.held_bytes}) {
    mix(v);
  }
  mix(static_cast<uint64_t>(d.ssd_busy_ns));
  mix(static_cast<uint64_t>(d.nic_queue_ns));
  return h;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  const WorkloadFn run = FindWorkload(args.workload);
  const bool single_rank = args.workload != "stream_triad";

  // Untraced passes give the end-to-end metrics; in trace mode every other
  // pass is traced and gives the per-layer metrics.
  std::vector<Metrics> plain, traced, info;
  uint64_t attempted = 0, failed = 0, digest = 0, signature = 0;
  bool repeat_ok = true;
  PassResult last_traced;
  const auto start = HostClock::now();
  const size_t min_passes = args.trace ? 4 : 3;
  for (size_t pass = 0;; ++pass) {
    const bool trace_pass = args.trace && pass % 2 == 1;
    PassResult r = run({.seed = args.seed, .size = args.size,
                        .trace = trace_pass});
    attempted += r.attempted;
    failed += r.failed;
    for (const auto& e : r.errors) {
      std::fprintf(stderr, "error: %s\n", e.c_str());
    }
    std::fprintf(stderr, "pass %zu%s: setup %.4f s, measured %.4f s\n", pass,
                 trace_pass ? " (traced)" : "", r.setup_s, r.host_s);
    if (r.failed > 0) break;
    digest = r.op_stream_digest;
    if (single_rank) {
      const uint64_t sig = ModelledSignature(r);
      if (pass > 0) {
        ++attempted;
        if (sig != signature) repeat_ok = false;
      }
      signature = sig;
    }
    if (trace_pass) {
      traced.push_back(PerLayer(r));
      last_traced = std::move(r);
    } else {
      plain.push_back(EndToEnd(r));
      info.push_back(Info(r));
    }
    const double elapsed = std::chrono::duration<double>(
                               HostClock::now() - start).count();
    if (pass + 1 >= min_passes && elapsed >= args.seconds) break;
  }

  const bool have_all = !plain.empty() && (!args.trace || !traced.empty());
  if (!repeat_ok) {
    std::fprintf(stderr,
                 "error: passes of one seed gave different modelled results\n");
    ++failed;
  }
  const bool correct = failed == 0 && have_all;

  Metrics out;
  if (have_all && !args.trace) {
    out = MedianOf(plain);
    out["peak_rss_mb"] = {PeakRssMb(), "MB"};
  } else if (have_all) {
    out = MedianOf(traced);
    const double untraced = MedianOf(plain).at("host_s").value;
    const double with = out.at("bench.traced_host_s").value;
    out["bench.untraced_host_s"] = {untraced, "s"};
    out["bench.trace_overhead_pct"] = {(with / untraced - 1) * 100, "%"};
    if (!args.trace_out.empty()) {
      std::vector<const RankTracer*> tracers;
      for (const auto& t : last_traced.tracers) tracers.push_back(t.get());
      if (!WriteSpans(tracers, args.trace_out)) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     args.trace_out.c_str());
        return 1;
      }
    }
  }

  std::printf("workload %s seed %llu passes %zu+%zu op_stream_digest %016llx "
              "op_fail_frac %.6g\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              plain.size(), traced.size(),
              static_cast<unsigned long long>(digest),
              attempted ? static_cast<double>(failed) / attempted : 1.0);
  if (!info.empty()) {
    for (const auto& [name, m] : MedianOf(info)) {
      std::printf("info   %-36s %.10g %s\n", name.c_str(), m.value, m.unit);
    }
  }
  for (const auto& [name, m] : out) {
    std::printf("metric %-36s %.10g %s\n", name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, m] : out) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit);
    first = false;
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
