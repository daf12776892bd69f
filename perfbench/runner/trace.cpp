#include "runner/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kStep: return "step";
    case OpKind::kRead: return "read";
    case OpKind::kWrite: return "write";
    case OpKind::kSync: return "sync";
    case OpKind::kCheckpoint: return "checkpoint";
    case OpKind::kRelease: return "release";
    case OpKind::kRestart: return "restart";
  }
  return "?";
}

namespace {

int64_t HostSince(HostClock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             HostClock::now() - origin)
      .count();
}

// Span ids are unique across ranks: rank in the high bits, 1-based index
// below, so 0 can mean "no parent".
constexpr int kRankShift = 40;

}  // namespace

RankTracer::RankTracer(int rank, HostClock::time_point origin,
                       const Probe* probe)
    : rank_(rank), origin_(origin), probe_(probe) {}

void RankTracer::Begin(OpKind kind, const nvm::sim::VirtualClock& clock) {
  Span s;
  s.id = (static_cast<uint64_t>(rank_) << kRankShift) | (spans_.size() + 1);
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.rank = rank_;
  s.kind = kind;
  s.virt_start_ns = clock.now();
  if (probe_ != nullptr) open_counters_.push_back(probe_->TakeSpan());
  open_.push_back(spans_.size());
  spans_.push_back(s);
  // Last, so the counter read above is not charged to the span.
  spans_.back().host_start_ns = HostSince(origin_);
}

void RankTracer::End(const nvm::sim::VirtualClock& clock) {
  const int64_t host_end = HostSince(origin_);
  Span& s = spans_[open_.back()];
  s.host_end_ns = host_end;
  s.virt_end_ns = clock.now();
  if (probe_ != nullptr) {
    const SpanCounters after = probe_->TakeSpan();
    const SpanCounters& before = open_counters_.back();
    for (int i = 0; i < kSpanCounters; ++i) {
      s.counter_delta[i] = after[i] - before[i];
    }
    s.has_counters = true;
    open_counters_.pop_back();
  }
  open_.pop_back();
}

SelfTimes ComputeSelfTimes(const std::vector<const RankTracer*>& tracers) {
  SelfTimes out;
  for (const RankTracer* t : tracers) {
    const auto& spans = t->spans();
    out.spans += spans.size();
    // Children of each span as [start, end) host intervals.
    std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
        children;
    for (const Span& s : spans) {
      if (s.parent != 0) {
        children[s.parent].emplace_back(s.host_start_ns, s.host_end_ns);
      }
    }
    for (const Span& s : spans) {
      int64_t covered = 0;
      auto it = children.find(s.id);
      if (it != children.end()) {
        auto& iv = it->second;
        std::sort(iv.begin(), iv.end());
        int64_t run_start = 0, run_end = -1;
        for (auto [a, b] : iv) {
          a = std::max(a, s.host_start_ns);
          b = std::min(b, s.host_end_ns);
          if (b <= a) continue;
          if (a > run_end) {
            if (run_end > run_start) covered += run_end - run_start;
            run_start = a;
            run_end = b;
          } else {
            run_end = std::max(run_end, b);
          }
        }
        if (run_end > run_start) covered += run_end - run_start;
      }
      out.host_ns[static_cast<int>(s.kind)] +=
          (s.host_end_ns - s.host_start_ns) - covered;
    }
  }
  return out;
}

bool WriteSpans(const std::vector<const RankTracer*>& tracers,
                const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const RankTracer* t : tracers) {
    for (const Span& s : t->spans()) {
      std::fprintf(f,
                   "{\"id\":%llu,\"parent\":%llu,\"rank\":%d,\"op\":\"%s\","
                   "\"host_start_ns\":%lld,\"host_end_ns\":%lld,"
                   "\"virt_start_ns\":%lld,\"virt_end_ns\":%lld",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.rank,
                   OpKindName(s.kind), static_cast<long long>(s.host_start_ns),
                   static_cast<long long>(s.host_end_ns),
                   static_cast<long long>(s.virt_start_ns),
                   static_cast<long long>(s.virt_end_ns));
      if (s.has_counters) {
        std::fprintf(f, ",\"counters\":{");
        for (int i = 0; i < kSpanCounters; ++i) {
          std::fprintf(f, "%s\"%s\":%llu", i ? "," : "", kSpanCounterNames[i],
                       static_cast<unsigned long long>(s.counter_delta[i]));
        }
        std::fprintf(f, "}");
      }
      std::fprintf(f, "}\n");
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
