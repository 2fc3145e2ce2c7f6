/// \file
/// DRAM channel model: fixed access latency plus a bandwidth-limited bus
/// (token-bucket over cycles). One instance models the simulated SM's
/// 1/num_sms share of the GPU memory system.

#pragma once

#include <cstdint>

namespace stemroot::sim {

/// Bandwidth/latency DRAM model.
class DramModel {
 public:
  /// bytes_per_cycle is the bus share; latency_cycles the pin-to-pin
  /// access latency. Throws std::invalid_argument on non-positive
  /// bandwidth.
  DramModel(double bytes_per_cycle, uint32_t latency_cycles);

  /// Issue one line fetch of `bytes` at time `now`; returns the cycle at
  /// which the data arrives. The bus is serialized: concurrent requests
  /// queue behind each other.
  double Request(double now, uint32_t bytes);

  /// Total bytes transferred.
  uint64_t BytesTransferred() const { return bytes_transferred_; }

  /// Cycles the bus spent actually transferring data (sum of transfer
  /// times, excluding the fixed latency). With the serialized-bus model
  /// this is the bandwidth-bound lower bound on memory time.
  double BusyCycles() const { return busy_cycles_; }

  /// Reset queue and stats (between kernels if desired).
  void Reset();

 private:
  double bytes_per_cycle_;
  uint32_t latency_cycles_;
  double bus_free_ = 0.0;  ///< next cycle the bus can start a transfer
  uint64_t bytes_transferred_ = 0;
  double busy_cycles_ = 0.0;
};

}  // namespace stemroot::sim
