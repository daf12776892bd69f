// The benchmark's workloads.  Each one runs a whole pass — set-up,
// measured phase, verification — against a fresh Testbed and reports what
// it saw.  Workloads drive the system only through public functions:
// workloads::Testbed, NvmallocRuntime / NvmRegion, and the layers' stat
// getters (through Probe).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runner/probe.hpp"
#include "runner/trace.hpp"

namespace perfbench {

// `kTiny` shrinks every size so the benchmark's own tests run in seconds;
// the benchmark proper always uses `kFull`.
enum class Size { kFull, kTiny };

struct PassOptions {
  uint64_t seed = 1;
  Size size = Size::kFull;
  bool trace = false;
};

struct PassResult {
  double setup_s = 0;  // host: testbed, allocation, preload, op stream
  double host_s = 0;   // host: measured phase

  // Modelled (virtual-time) results of the measured phase.
  int64_t modelled_ns = 0;        // makespan
  std::vector<int64_t> op_ns;     // latency of every op
  std::vector<int64_t> ckpt_ns;   // latency of every SsdCheckpoint
  uint64_t app_bytes_read = 0;
  uint64_t app_bytes_written = 0;
  uint64_t live_user_bytes = 0;   // logical bytes of live files
  uint64_t held_bytes = 0;        // benefactor bytes holding them
  uint64_t files = 0;
  uint64_t written_back_bytes = 0;  // NvmRegion page write-back
  Counters delta;                   // layer activity in the measured phase
  // Foreground store latencies (QoS histograms, measured phase only).
  int64_t store_read_p50_ns = 0, store_read_p99_ns = 0;
  int64_t store_write_p50_ns = 0, store_write_p99_ns = 0;

  // Correctness.
  uint64_t attempted = 0;  // nvmalloc calls + end-of-run checks
  uint64_t failed = 0;     // non-OK statuses + byte mismatches
  std::vector<std::string> errors;  // the first few, for the report

  uint64_t op_stream_digest = 0;  // identifies the generated inputs

  // Traced passes only.
  std::vector<std::unique_ptr<RankTracer>> tracers;
};

using WorkloadFn = PassResult (*)(const PassOptions&);

// Look up a workload by name; nullptr if unknown.
WorkloadFn FindWorkload(const std::string& name);

}  // namespace perfbench
