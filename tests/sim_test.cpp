// Unit tests for the virtual-time substrate: clocks, resources (interval
// scheduling, contention, backfilling), device models (Table I profiles,
// wear accounting), and the clock-syncing barrier.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/clock.hpp"
#include "sim/device.hpp"
#include "sim/resource.hpp"
#include "sim/sync.hpp"
#include "sim/worker.hpp"

namespace nvm::sim {
namespace {

TEST(VirtualClockTest, AdvanceAndAdvanceTo) {
  VirtualClock c;
  EXPECT_EQ(c.now(), 0);
  c.Advance(100);
  EXPECT_EQ(c.now(), 100);
  c.Advance(-5);  // negative advances are ignored
  EXPECT_EQ(c.now(), 100);
  c.AdvanceTo(50);  // never moves backwards
  EXPECT_EQ(c.now(), 100);
  c.AdvanceTo(250);
  EXPECT_EQ(c.now(), 250);
  c.Reset();
  EXPECT_EQ(c.now(), 0);
}

TEST(ContextTest, DefaultContextExists) {
  auto& ctx = CurrentContext();
  EXPECT_EQ(ctx.name, "main");
  CurrentClock().Advance(10);
  EXPECT_GE(CurrentClock().now(), 10);
  CurrentClock().Reset();
}

TEST(ContextTest, InstalledContextWins) {
  ExecutionContext mine;
  mine.name = "test";
  mine.clock.Advance(777);
  SetCurrentContext(&mine);
  EXPECT_EQ(CurrentContext().name, "test");
  EXPECT_EQ(CurrentClock().now(), 777);
  SetCurrentContext(nullptr);
  EXPECT_EQ(CurrentContext().name, "main");
}

TEST(ResourceTest, UncontendedRequestStartsImmediately) {
  Resource r("dev");
  EXPECT_EQ(r.Schedule(100, 50), 100);
  EXPECT_EQ(r.busy_ns(), 50);
  EXPECT_EQ(r.num_requests(), 1u);
  EXPECT_EQ(r.queue_delay_ns(), 0);
}

TEST(ResourceTest, BackToBackRequestsQueue) {
  Resource r("dev");
  EXPECT_EQ(r.Schedule(0, 100), 0);
  // Arrives while the first is in service: waits.
  EXPECT_EQ(r.Schedule(50, 100), 100);
  EXPECT_EQ(r.queue_delay_ns(), 50);
}

TEST(ResourceTest, BackfillsEarlierGaps) {
  Resource r("dev");
  // Occupy [1000, 1100).
  EXPECT_EQ(r.Schedule(1000, 100), 1000);
  // A logically earlier request fits entirely before it.
  EXPECT_EQ(r.Schedule(0, 500), 0);
  // A request too big for the [500,1000) gap goes after.
  EXPECT_EQ(r.Schedule(500, 600), 1100);
  // A request that fits the remaining gap takes it.
  EXPECT_EQ(r.Schedule(500, 400), 500);
}

TEST(ResourceTest, ZeroDurationIsFree) {
  Resource r("dev");
  EXPECT_EQ(r.Schedule(42, 0), 42);
  EXPECT_EQ(r.busy_ns(), 0);
}

TEST(ResourceTest, AcquireAdvancesClock) {
  Resource r("dev");
  VirtualClock c;
  EXPECT_EQ(r.Acquire(c, 100), 0);  // no queueing
  EXPECT_EQ(c.now(), 100);
  VirtualClock c2;  // contends with the first interval
  EXPECT_EQ(r.Acquire(c2, 100), 100);
  EXPECT_EQ(c2.now(), 200);
}

TEST(ResourceTest, TotalServiceConservedUnderThreads) {
  // However real threads interleave, total busy time must equal the sum
  // of service requests, and intervals must never overlap (i.e. the last
  // completion is at least the total service time).
  Resource r("dev");
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 200;
  constexpr int64_t kService = 1000;
  std::vector<std::thread> threads;
  std::vector<int64_t> finals(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      VirtualClock c;
      for (int i = 0; i < kOpsPerThread; ++i) r.Acquire(c, kService);
      finals[static_cast<size_t>(t)] = c.now();
    });
  }
  for (auto& th : threads) th.join();
  const int64_t total = kThreads * kOpsPerThread * kService;
  EXPECT_EQ(r.busy_ns(), total);
  int64_t max_final = 0;
  for (int64_t f : finals) max_final = std::max(max_final, f);
  EXPECT_GE(max_final, total);  // serialised service
}

TEST(ResourceTest, ResetClearsEverything) {
  Resource r("dev");
  r.Schedule(0, 100);
  r.Reset();
  EXPECT_EQ(r.busy_ns(), 0);
  EXPECT_EQ(r.num_requests(), 0u);
  EXPECT_EQ(r.Schedule(0, 100), 0);  // timeline empty again
}

// Oracle for the differential test below: the same gap search, backfill
// and coalescing rules as Resource, written over an ordered map, so the
// two can be compared request by request.
class MapTimeline {
 public:
  int64_t Schedule(int64_t earliest_start_ns, int64_t duration_ns) {
    ++num_requests_;
    busy_ns_ += duration_ns;
    if (duration_ns == 0) return earliest_start_ns;
    int64_t start = earliest_start_ns;
    auto it = intervals_.upper_bound(start);
    if (it != intervals_.begin()) {
      auto prev = std::prev(it);
      if (prev->second > start) start = prev->second;
    }
    while (it != intervals_.end() && it->first < start + duration_ns) {
      start = it->second;
      ++it;
    }
    const int64_t end = start + duration_ns;
    queue_delay_ns_ += start - earliest_start_ns;
    int64_t new_start = start;
    int64_t new_end = end;
    auto lo = intervals_.lower_bound(new_start);
    if (lo != intervals_.begin()) {
      auto prev = std::prev(lo);
      if (prev->second >= new_start) {
        new_start = prev->first;
        new_end = std::max(new_end, prev->second);
        lo = prev;
      }
    }
    while (lo != intervals_.end() && lo->first <= new_end) {
      new_end = std::max(new_end, lo->second);
      lo = intervals_.erase(lo);
    }
    intervals_[new_start] = new_end;
    return start;
  }
  void Reset() {
    intervals_.clear();
    busy_ns_ = 0;
    queue_delay_ns_ = 0;
    num_requests_ = 0;
  }
  int64_t busy_ns() const { return busy_ns_; }
  int64_t queue_delay_ns() const { return queue_delay_ns_; }
  uint64_t num_requests() const { return num_requests_; }

 private:
  std::map<int64_t, int64_t> intervals_;
  int64_t busy_ns_ = 0;
  int64_t queue_delay_ns_ = 0;
  uint64_t num_requests_ = 0;
};

// Seeded request streams mixing every shape the timeline has to handle:
// tail appends (touching, overlapping and past the tail), requests
// against a random earlier point (touching and overlapping neighbours,
// backfill into old gaps), deep backfill far behind the tail, zero
// durations and the occasional Reset().  Every start and every statistic
// must match the ordered-map oracle exactly.
TEST(ResourceTest, FlatTimelineMatchesMapOracle) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Xoshiro256 rng(seed);
    Resource r("dev");
    MapTimeline oracle;
    int64_t tail = 0;  // latest completion handed out so far
    for (int i = 0; i < 4000; ++i) {
      const uint64_t pick = rng.NextBelow(100);
      int64_t duration = static_cast<int64_t>(rng.NextBelow(400)) + 1;
      if (pick < 4) duration = 0;
      int64_t at = 0;
      if (pick < 35) {
        // At, just before, or just past the current tail.
        at = std::max<int64_t>(
            0, tail - 200 + static_cast<int64_t>(rng.NextBelow(400)));
      } else if (pick < 45) {
        at = tail;  // exactly touching the last interval
      } else if (pick < 80) {
        // Somewhere recent: overlaps, touches or fills nearby gaps.
        at = std::max<int64_t>(
            0, tail - static_cast<int64_t>(rng.NextBelow(5000)));
      } else if (pick < 99) {
        // Deep backfill anywhere on the timeline so far.
        at = static_cast<int64_t>(
            rng.NextBelow(static_cast<uint64_t>(tail) + 1));
      } else {
        r.Reset();
        oracle.Reset();
        tail = 0;
        continue;
      }
      const int64_t got = r.Schedule(at, duration);
      const int64_t want = oracle.Schedule(at, duration);
      ASSERT_EQ(got, want) << "seed " << seed << " request " << i;
      tail = std::max(tail, got + duration);
    }
    EXPECT_EQ(r.busy_ns(), oracle.busy_ns()) << "seed " << seed;
    EXPECT_EQ(r.queue_delay_ns(), oracle.queue_delay_ns()) << "seed " << seed;
    EXPECT_EQ(r.num_requests(), oracle.num_requests()) << "seed " << seed;
  }
}

// Hand-built corner cases of the coalescing step: a request exactly
// filling a gap joins both neighbours, one touching only the left or the
// right joins that side, and later requests see the merged interval.
TEST(ResourceTest, GapFillCoalescesWithTouchingNeighbours) {
  Resource r("dev");
  EXPECT_EQ(r.Schedule(0, 100), 0);      // [0,100)
  EXPECT_EQ(r.Schedule(200, 100), 200);  // [200,300)
  EXPECT_EQ(r.Schedule(400, 100), 400);  // [400,500)
  EXPECT_EQ(r.Schedule(0, 100), 100);    // fills [100,200): one interval
  // [0,300) is now solid: a request at 50 waits for its end.
  EXPECT_EQ(r.Schedule(50, 50), 300);    // [300,350) joins the left side
  EXPECT_EQ(r.Schedule(0, 50), 350);     // [350,400) joins both sides
  EXPECT_EQ(r.Schedule(0, 10), 500);     // everything up to 500 is busy
  EXPECT_EQ(r.queue_delay_ns(), 100 + 250 + 350 + 500);
}

TEST(DeviceProfileTest, TableIValues) {
  EXPECT_EQ(IntelX25E().read_bw_mbps, 250.0);
  EXPECT_EQ(IntelX25E().write_bw_mbps, 170.0);
  EXPECT_EQ(IntelX25E().read_latency_ns, 75'000);
  EXPECT_EQ(IntelX25E().capacity_bytes, 32_GiB);
  EXPECT_EQ(FusionIoDriveDuo().read_bw_mbps, 1500.0);
  EXPECT_EQ(FusionIoDriveDuo().capacity_bytes, 640_GiB);
  EXPECT_EQ(OczRevoDrive().read_bw_mbps, 540.0);
  EXPECT_EQ(Ddr3_1600().read_bw_mbps, 12800.0);
  EXPECT_EQ(TableIDevices().size(), 4u);
}

TEST(DeviceProfileTest, TransferNs) {
  // 1 MB at 1000 MB/s = 1 ms, plus latency.
  EXPECT_EQ(TransferNs(1'000'000, 1000.0, 5000), 1'005'000);
  EXPECT_EQ(TransferNs(0, 1000.0, 5000), 5000);
}

TEST(SsdDeviceTest, ReadChargesBandwidthAndLatency) {
  SsdDevice ssd("ssd", IntelX25E());
  VirtualClock c;
  ssd.ChargeRead(c, 0, 250'000'000);  // 250 MB at 250 MB/s = 1 s
  EXPECT_NEAR(static_cast<double>(c.now()), 1e9 + 75'000, 1e5);
  EXPECT_EQ(ssd.host_bytes_read(), 250'000'000u);
}

TEST(SsdDeviceTest, SubPageWriteAmplifies) {
  SsdDevice ssd("ssd", IntelX25E());
  VirtualClock c;
  ssd.ChargeWrite(c, 100, 1);  // 1 byte -> 1 page programmed
  EXPECT_EQ(ssd.host_bytes_written(), 1u);
  EXPECT_EQ(ssd.device_bytes_programmed(), SsdDevice::kPageBytes);
  EXPECT_EQ(ssd.write_amplification(), 4096.0);
}

TEST(SsdDeviceTest, StraddlingWriteTouchesBothPages) {
  SsdDevice ssd("ssd", IntelX25E());
  VirtualClock c;
  ssd.ChargeWrite(c, SsdDevice::kPageBytes - 1, 2);  // straddles 2 pages
  EXPECT_EQ(ssd.device_bytes_programmed(), 2 * SsdDevice::kPageBytes);
}

TEST(SsdDeviceTest, WearAccumulatesPerBlock) {
  SsdDevice ssd("ssd", IntelX25E());
  VirtualClock c;
  // Program one erase block's worth of pages at the same block.
  const uint64_t pages_per_block =
      SsdDevice::kEraseBlockBytes / SsdDevice::kPageBytes;
  for (uint64_t p = 0; p < pages_per_block; ++p) {
    ssd.ChargeWrite(c, p * SsdDevice::kPageBytes, SsdDevice::kPageBytes);
  }
  EXPECT_EQ(ssd.max_block_erases(), 1u);
  EXPECT_GT(ssd.wear_fraction(), 0.0);
  ssd.ResetStats();
  EXPECT_EQ(ssd.max_block_erases(), 0u);
  EXPECT_EQ(ssd.host_bytes_written(), 0u);
}

TEST(DramDeviceTest, ChargesFullBandwidth) {
  DramDevice dram("dram", Ddr3_1600());
  VirtualClock c;
  dram.ChargeRead(c, 12'800'000);  // 12.8 MB at 12.8 GB/s = 1 ms
  EXPECT_NEAR(static_cast<double>(c.now()), 1e6, 1e3);
}

TEST(CpuModelTest, FlopsToTime) {
  CpuModel cpu(2.4, 4.0);  // 9.6 Gflop/s
  VirtualClock c;
  cpu.ChargeFlops(c, 9'600'000'000ULL);
  EXPECT_NEAR(static_cast<double>(c.now()), 1e9, 1e6);
}

TEST(VirtualBarrierTest, SynchronisesClocksToMax) {
  constexpr size_t kParties = 4;
  VirtualBarrier barrier(kParties, /*barrier_cost_ns=*/100);
  std::vector<std::thread> threads;
  std::vector<int64_t> after(kParties);
  for (size_t t = 0; t < kParties; ++t) {
    threads.emplace_back([&, t] {
      VirtualClock c;
      c.Advance(static_cast<int64_t>(t) * 1000);  // ranks at 0,1000,2000,3000
      barrier.Arrive(c);
      after[t] = c.now();
    });
  }
  for (auto& th : threads) th.join();
  for (int64_t v : after) EXPECT_EQ(v, 3100);
}

TEST(VirtualBarrierTest, Reusable) {
  VirtualBarrier barrier(2, 0);
  for (int round = 0; round < 3; ++round) {
    std::vector<int64_t> after(2);
    std::thread t1([&] {
      VirtualClock c(10 * (round + 1));
      barrier.Arrive(c);
      after[0] = c.now();
    });
    std::thread t2([&] {
      VirtualClock c(20 * (round + 1));
      barrier.Arrive(c);
      after[1] = c.now();
    });
    t1.join();
    t2.join();
    EXPECT_EQ(after[0], 20 * (round + 1));
    EXPECT_EQ(after[1], 20 * (round + 1));
  }
}

TEST(VirtualWorkerTest, RunsTasksInPostOrderOnOneClock) {
  VirtualWorker w("svc");
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    w.Post([&order, i](VirtualClock& c) {
      c.Advance(10);
      order.push_back(i);
    });
  }
  w.Drain();
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
  // All eight tasks charged the same worker clock.
  EXPECT_EQ(w.now_ns(), 80);
}

TEST(VirtualWorkerTest, DrainObservesSelfRepostingChains) {
  // A task that re-posts while still running extends the chain before the
  // queue ever goes empty, so one Drain() sees the whole cascade.
  VirtualWorker w("svc");
  std::function<void(VirtualClock&)> step = [&](VirtualClock& c) {
    c.Advance(5);
    if (c.now() < 50) w.Post(step);
  };
  w.Post(step);
  w.Drain();
  EXPECT_EQ(w.now_ns(), 50);
}

TEST(VirtualWorkerTest, NowIsReadableFromOtherThreadsMidStream) {
  VirtualWorker w("svc");
  for (int i = 0; i < 4; ++i) {
    w.Post([](VirtualClock& c) { c.Advance(100); });
  }
  // now_ns() is a monotonic snapshot — never ahead of completed work.
  const int64_t seen = w.now_ns();
  EXPECT_GE(seen, 0);
  EXPECT_LE(seen, 400);
  w.Drain();
  EXPECT_EQ(w.now_ns(), 400);
}

TEST(VirtualWorkerTest, DestructorRunsPendingTasks) {
  int ran = 0;
  {
    VirtualWorker w("svc");
    for (int i = 0; i < 16; ++i) {
      w.Post([&ran](VirtualClock& c) {
        c.Advance(1);
        ++ran;
      });
    }
  }  // dtor joins after the queue empties
  EXPECT_EQ(ran, 16);
}

}  // namespace
}  // namespace nvm::sim
