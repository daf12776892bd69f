// Storage / memory device models.
//
// DeviceProfile carries exactly the characteristics from Table I of the
// paper (October 2011 market data); SsdDevice and DramDevice turn a profile
// into a timed resource.  SsdDevice additionally models the flash traits the
// paper's design optimises for: page-granularity programming (4 KB), erase
// blocks (256 KB), and a per-block wear counter so benchmarks can report
// write volume and wear alongside time.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "sim/resource.hpp"

namespace nvm::sim {

enum class MediaType : uint8_t { kSlcFlash, kMlcFlash, kDram };
enum class InterfaceType : uint8_t { kSata, kPcie, kDimm };

struct DeviceProfile {
  std::string name;
  MediaType media;
  InterfaceType interface;
  double read_bw_mbps;    // decimal MB/s, as in the datasheet
  double write_bw_mbps;
  int64_t read_latency_ns;   // per-request fixed cost
  int64_t write_latency_ns;
  uint64_t capacity_bytes;
  double cost_usd;
  // Flash endurance: program/erase cycles per block before wear-out.
  // (SLC ~100k, MLC ~10k; 0 for DRAM.)
  uint64_t pe_cycles;
};

// The four devices of Table I.
const DeviceProfile& IntelX25E();        // SLC SATA   250/170 MB/s, 75 us
const DeviceProfile& FusionIoDriveDuo(); // MLC PCIe   1500/1000 MB/s, <30 us
const DeviceProfile& OczRevoDrive();     // MLC PCIe   540/480 MB/s
const DeviceProfile& Ddr3_1600();        // DIMM       12800 MB/s, 10-14 ns
// All Table I rows, in paper order, for reporting.
const std::vector<const DeviceProfile*>& TableIDevices();

// Service time for moving `bytes` at `bw_mbps` plus the fixed latency.
int64_t TransferNs(uint64_t bytes, double bw_mbps, int64_t latency_ns);

// A flash device: a timed channel plus wear accounting.
class SsdDevice {
 public:
  static constexpr uint64_t kPageBytes = 4_KiB;
  static constexpr uint64_t kEraseBlockBytes = 256_KiB;

  // `wear_leveling`: model a log-structured FTL that spreads erases
  // evenly over every block it has ever touched (how real SSDs extend
  // life); false models a naive in-place FTL where hot blocks wear out
  // first.
  SsdDevice(std::string name, const DeviceProfile& profile,
            bool wear_leveling = true);

  // Charge a read/write of `bytes` at device offset `offset` to `clock`.
  // Writes are rounded up to whole flash pages (the device cannot program
  // less than a page) and bump the erase counter of each touched block.
  // A request is one command/queueing slot and pays the per-request fixed
  // latency once: a streamed multi-chunk run (a run RPC) charges its later
  // chunks with `first_in_run` false, so they stream at bandwidth.
  void ChargeRead(VirtualClock& clock, uint64_t offset, uint64_t bytes,
                  bool first_in_run = true);
  void ChargeWrite(VirtualClock& clock, uint64_t offset, uint64_t bytes,
                   bool first_in_run = true);

  const DeviceProfile& profile() const { return profile_; }
  Resource& channel() { return channel_; }

  uint64_t host_bytes_written() const { return host_bytes_written_.value(); }
  uint64_t device_bytes_programmed() const {
    return device_bytes_programmed_.value();
  }
  uint64_t host_bytes_read() const { return host_bytes_read_.value(); }
  // device programmed / host written — page-granularity amplification.
  double write_amplification() const;
  // Highest per-block erase count: with wear levelling, total erases
  // spread over the touched footprint; without, the hottest block's own
  // count.
  uint64_t max_block_erases() const;
  // Fraction of rated endurance consumed by the most-worn block, in [0,1].
  double wear_fraction() const;
  bool wear_leveling() const { return wear_leveling_; }

  void ResetStats();

 private:
  DeviceProfile profile_;
  Resource channel_;
  const bool wear_leveling_;
  Counter host_bytes_written_;
  Counter host_bytes_read_;
  Counter device_bytes_programmed_;
  mutable std::mutex wear_mutex_;
  std::unordered_map<uint64_t, uint64_t> block_program_bytes_;
  std::unordered_map<uint64_t, uint64_t> block_erases_;
  uint64_t total_erases_ = 0;
};

// Node-local DRAM as a timed resource (for modelling memory bandwidth in
// STREAM-style kernels).
class DramDevice {
 public:
  DramDevice(std::string name, const DeviceProfile& profile);

  void ChargeRead(VirtualClock& clock, uint64_t bytes);
  void ChargeWrite(VirtualClock& clock, uint64_t bytes);

  const DeviceProfile& profile() const { return profile_; }
  Resource& channel() { return channel_; }

 private:
  DeviceProfile profile_;
  Resource channel_;
};

// Per-core compute model: charges virtual time for arithmetic work so that
// compute phases and I/O phases share one time base.  Each simulated core is
// independent (no shared resource), matching the paper's dedicated cores.
class CpuModel {
 public:
  // Defaults match the HAL cluster: 2.4 GHz cores; flops_per_cycle covers
  // SSE-era superscalar throughput for dense kernels.
  explicit CpuModel(double ghz = 2.4, double flops_per_cycle = 4.0)
      : ns_per_flop_(1.0 / (ghz * flops_per_cycle)) {}

  void ChargeFlops(VirtualClock& clock, uint64_t flops) const {
    clock.Advance(static_cast<int64_t>(static_cast<double>(flops) *
                                       ns_per_flop_));
  }

  // Branchy/integer work (sort comparisons etc.): one op ~ one flop here.
  void ChargeOps(VirtualClock& clock, uint64_t ops) const {
    ChargeFlops(clock, ops);
  }

  double ns_per_flop() const { return ns_per_flop_; }

 private:
  double ns_per_flop_;
};

}  // namespace nvm::sim
