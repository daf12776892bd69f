#include "sim/device.hpp"

#include <algorithm>
#include <cmath>

namespace nvm::sim {

const DeviceProfile& IntelX25E() {
  static const DeviceProfile p{
      .name = "Intel X25-E",
      .media = MediaType::kSlcFlash,
      .interface = InterfaceType::kSata,
      .read_bw_mbps = 250.0,
      .write_bw_mbps = 170.0,
      .read_latency_ns = 75'000,
      .write_latency_ns = 85'000,
      .capacity_bytes = 32_GiB,
      .cost_usd = 589.0,
      .pe_cycles = 100'000,
  };
  return p;
}

const DeviceProfile& FusionIoDriveDuo() {
  static const DeviceProfile p{
      .name = "Fusion IO ioDrive Duo",
      .media = MediaType::kMlcFlash,
      .interface = InterfaceType::kPcie,
      .read_bw_mbps = 1500.0,
      .write_bw_mbps = 1000.0,
      .read_latency_ns = 30'000,
      .write_latency_ns = 30'000,
      .capacity_bytes = 640_GiB,
      .cost_usd = 15'378.0,
      .pe_cycles = 10'000,
  };
  return p;
}

const DeviceProfile& OczRevoDrive() {
  static const DeviceProfile p{
      .name = "OCZ RevoDrive",
      .media = MediaType::kMlcFlash,
      .interface = InterfaceType::kPcie,
      .read_bw_mbps = 540.0,
      .write_bw_mbps = 480.0,
      // Latency not published in Table I; modelled between the SATA and
      // high-end PCIe parts.
      .read_latency_ns = 50'000,
      .write_latency_ns = 50'000,
      .capacity_bytes = 240_GiB,
      .cost_usd = 531.0,
      .pe_cycles = 10'000,
  };
  return p;
}

const DeviceProfile& Ddr3_1600() {
  static const DeviceProfile p{
      .name = "Memory (DDR3-1600)",
      .media = MediaType::kDram,
      .interface = InterfaceType::kDimm,
      .read_bw_mbps = 12'800.0,
      .write_bw_mbps = 12'800.0,
      .read_latency_ns = 12,
      .write_latency_ns = 12,
      .capacity_bytes = 16_GiB,
      .cost_usd = 150.0,
      .pe_cycles = 0,
  };
  return p;
}

const std::vector<const DeviceProfile*>& TableIDevices() {
  static const std::vector<const DeviceProfile*> all = {
      &IntelX25E(), &FusionIoDriveDuo(), &OczRevoDrive(), &Ddr3_1600()};
  return all;
}

int64_t TransferNs(uint64_t bytes, double bw_mbps, int64_t latency_ns) {
  const double ns =
      static_cast<double>(bytes) / (bw_mbps * 1e6) * 1e9;
  return latency_ns + static_cast<int64_t>(std::llround(ns));
}

SsdDevice::SsdDevice(std::string name, const DeviceProfile& profile,
                     bool wear_leveling)
    : profile_(profile),
      channel_(std::move(name)),
      wear_leveling_(wear_leveling) {}

void SsdDevice::ChargeRead(VirtualClock& clock, uint64_t offset,
                           uint64_t bytes, bool first_in_run) {
  (void)offset;
  host_bytes_read_.Add(bytes);
  channel_.Acquire(
      clock, TransferNs(bytes, profile_.read_bw_mbps,
                        first_in_run ? profile_.read_latency_ns : 0));
}

void SsdDevice::ChargeWrite(VirtualClock& clock, uint64_t offset,
                            uint64_t bytes, bool first_in_run) {
  if (bytes == 0) return;
  host_bytes_written_.Add(bytes);
  // Flash programs whole pages: the device touches every page the byte
  // range overlaps, which is where small-write amplification comes from.
  const uint64_t first_page = offset / kPageBytes;
  const uint64_t last_page = (offset + bytes - 1) / kPageBytes;
  const uint64_t programmed = (last_page - first_page + 1) * kPageBytes;
  device_bytes_programmed_.Add(programmed);

  {
    std::lock_guard<std::mutex> lock(wear_mutex_);
    // Wear: a block is erased every time its capacity worth of pages has
    // been programmed into it (simplified log-structured FTL).
    const uint64_t first_block = offset / kEraseBlockBytes;
    const uint64_t last_block = (offset + bytes - 1) / kEraseBlockBytes;
    for (uint64_t b = first_block; b <= last_block; ++b) {
      const uint64_t block_lo = b * kEraseBlockBytes;
      const uint64_t block_hi = block_lo + kEraseBlockBytes;
      const uint64_t lo = std::max(offset, block_lo);
      const uint64_t hi = std::min(offset + bytes, block_hi);
      const uint64_t pages =
          (hi - 1) / kPageBytes - lo / kPageBytes + 1;
      uint64_t& acc = block_program_bytes_[b];
      acc += pages * kPageBytes;
      while (acc >= kEraseBlockBytes) {
        acc -= kEraseBlockBytes;
        ++block_erases_[b];
        ++total_erases_;
      }
    }
  }

  channel_.Acquire(
      clock, TransferNs(programmed, profile_.write_bw_mbps,
                        first_in_run ? profile_.write_latency_ns : 0));
}

double SsdDevice::write_amplification() const {
  const uint64_t host = host_bytes_written_.value();
  if (host == 0) return 1.0;
  return static_cast<double>(device_bytes_programmed_.value()) /
         static_cast<double>(host);
}

uint64_t SsdDevice::max_block_erases() const {
  std::lock_guard<std::mutex> lock(wear_mutex_);
  if (wear_leveling_) {
    // The FTL remaps hot logical blocks over its whole touched footprint:
    // every physical block carries an equal share of the erases.
    const size_t footprint = block_program_bytes_.size();
    if (footprint == 0) return 0;
    return CeilDiv(total_erases_, footprint);
  }
  uint64_t max_erases = 0;
  for (const auto& [block, erases] : block_erases_) {
    max_erases = std::max(max_erases, erases);
  }
  return max_erases;
}

double SsdDevice::wear_fraction() const {
  if (profile_.pe_cycles == 0) return 0.0;
  return static_cast<double>(max_block_erases()) /
         static_cast<double>(profile_.pe_cycles);
}

void SsdDevice::ResetStats() {
  host_bytes_written_.Reset();
  host_bytes_read_.Reset();
  device_bytes_programmed_.Reset();
  channel_.Reset();
  std::lock_guard<std::mutex> lock(wear_mutex_);
  block_program_bytes_.clear();
  block_erases_.clear();
  total_erases_ = 0;
}

DramDevice::DramDevice(std::string name, const DeviceProfile& profile)
    : profile_(profile), channel_(std::move(name)) {}

void DramDevice::ChargeRead(VirtualClock& clock, uint64_t bytes) {
  channel_.Acquire(clock, TransferNs(bytes, profile_.read_bw_mbps,
                                     profile_.read_latency_ns));
}

void DramDevice::ChargeWrite(VirtualClock& clock, uint64_t bytes) {
  channel_.Acquire(clock, TransferNs(bytes, profile_.write_bw_mbps,
                                     profile_.write_latency_ns));
}

}  // namespace nvm::sim
