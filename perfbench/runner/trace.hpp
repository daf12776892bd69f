// Spans around the benchmark's own calls into nvmalloc.
//
// One span per benchmark call (Pin/Read/Write, Sync, SsdCheckpoint, ...) plus
// a parent "step" span per workload step.  Each carries host and modelled
// start/end times, the rank, its op kind and parent, and — on single-rank
// workloads — the deltas of a few layer counters.  Spans stay in memory
// (one buffer per rank, so ranks never contend) and are written out as
// JSON lines when the benchmark ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "runner/probe.hpp"
#include "sim/clock.hpp"

namespace perfbench {

// Kinds of benchmark call.  kStep is the benchmark's own parent span; the rest
// are calls into nvmalloc.
enum class OpKind : uint8_t {
  kStep,
  kRead,
  kWrite,
  kSync,
  kCheckpoint,
  kRelease,
  kRestart,
};
inline constexpr int kNumOpKinds = 7;
const char* OpKindName(OpKind kind);

using HostClock = std::chrono::steady_clock;

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = none
  int rank = 0;
  OpKind kind = OpKind::kStep;
  int64_t host_start_ns = 0;  // since the pass's trace origin
  int64_t host_end_ns = 0;
  int64_t virt_start_ns = 0;
  int64_t virt_end_ns = 0;
  bool has_counters = false;
  SpanCounters counter_delta{};
};

// Per-rank span buffer.  A null RankTracer* means tracing is off; the
// ScopedSpan helper then does nothing beyond a pointer test.
class RankTracer {
 public:
  RankTracer(int rank, HostClock::time_point origin, const Probe* probe);

  // Spans nest and close in LIFO order on one rank.
  void Begin(OpKind kind, const nvm::sim::VirtualClock& clock);
  void End(const nvm::sim::VirtualClock& clock);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  int rank_;
  HostClock::time_point origin_;
  const Probe* probe_;  // non-null: record counter deltas
  std::vector<Span> spans_;
  std::vector<size_t> open_;  // indices of unfinished spans (a stack)
  std::vector<SpanCounters> open_counters_;
};

class ScopedSpan {
 public:
  ScopedSpan(RankTracer* tracer, OpKind kind,
             const nvm::sim::VirtualClock& clock)
      : tracer_(tracer), clock_(clock) {
    if (tracer_ != nullptr) tracer_->Begin(kind, clock);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(clock_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  RankTracer* tracer_;
  const nvm::sim::VirtualClock& clock_;
};

// Self time of every span (its duration minus the part of it covered by
// its children), summed per op kind, in host ns.
struct SelfTimes {
  int64_t host_ns[kNumOpKinds] = {};
  uint64_t spans = 0;
};
SelfTimes ComputeSelfTimes(const std::vector<const RankTracer*>& tracers);

// Write every span as one JSON object per line.  Returns false on I/O
// failure.
bool WriteSpans(const std::vector<const RankTracer*>& tracers,
                const std::string& path);

}  // namespace perfbench
