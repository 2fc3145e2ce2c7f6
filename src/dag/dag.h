/// \file
/// DAG-structured multi-device workloads (the paper's Sec. 6.2 future
/// work): "using Chakra ET (execution trace), which is a standard method
/// of representing multi-device ML workloads with a DAG of operations and
/// dependencies. Node and edge sampling on such DAG-style ETs would be a
/// decent starting point."
///
/// A DagWorkload is a topologically ordered list of operations -- compute
/// kernels pinned to a device, and communication collectives/P2P transfers
/// spanning devices -- with explicit dependency edges. ScheduleDag replays
/// the DAG with device- and link-serialized resources to obtain the
/// makespan, the multi-GPU analogue of total execution time.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/kernel.h"

namespace stemroot::dag {

/// Operation kinds in a multi-device execution trace.
enum class OpKind : uint8_t {
  kCompute,        ///< GPU kernel on one device
  kCollective,     ///< all-device collective (all-reduce style)
  kPointToPoint,   ///< transfer between two devices
};

/// One node of the execution trace.
struct DagOp {
  OpKind kind = OpKind::kCompute;
  uint32_t device = 0;        ///< executing device (sender for P2P)
  uint32_t peer_device = 0;   ///< receiver for P2P; unused otherwise
  uint32_t kernel_id = 0;     ///< name-table index (op type)
  uint32_t context_id = 0;    ///< hidden ground-truth context
  KernelBehavior behavior;    ///< compute ops: behaviour descriptor
  uint64_t comm_bytes = 0;    ///< communication ops: payload size
  /// Indices (into the workload's op array) this op depends on; all must
  /// be smaller than the op's own index (topological order).
  std::vector<uint32_t> deps;
  /// Profiled duration in microseconds (resource-exclusive time).
  double duration_us = 0.0;
};

/// A complete multi-device workload.
class DagWorkload {
 public:
  DagWorkload() = default;
  DagWorkload(std::string name, uint32_t num_devices)
      : name_(std::move(name)), num_devices_(num_devices) {}

  const std::string& Name() const { return name_; }
  uint32_t NumDevices() const { return num_devices_; }

  /// Register an op-type name; returns its kernel_id.
  uint32_t InternKernel(const std::string& kernel_name);
  size_t NumKernelTypes() const { return name_to_id_.size(); }

  /// Append an op; validates device/dep indices. Returns the op index.
  uint32_t Add(DagOp op);

  size_t NumOps() const { return ops_.size(); }
  const DagOp& At(size_t i) const { return ops_.at(i); }
  DagOp& At(size_t i) { return ops_.at(i); }
  const std::vector<DagOp>& Ops() const { return ops_; }

  /// Op indices grouped by (kernel_id): the unit STEM-DAG clusters.
  std::vector<std::vector<uint32_t>> GroupByKernel() const;

  /// Sum of all op durations (resource-time; lower bound context for
  /// speedup accounting).
  double TotalDurationUs() const;

 private:
  std::string name_;
  uint32_t num_devices_ = 1;
  std::unordered_map<std::string, uint32_t> name_to_id_;
  std::vector<DagOp> ops_;
};

/// Result of replaying the DAG on its resources.
struct ScheduleResult {
  double makespan_us = 0.0;
  /// Start time per op (timeline order).
  std::vector<double> start_us;
  double compute_time_us = 0.0;  ///< sum of compute durations
  double comm_time_us = 0.0;     ///< sum of communication durations
};

/// List-schedule the DAG: each device serializes its compute ops, the
/// interconnect serializes communication ops, and every op additionally
/// waits for its dependencies. Durations must be filled. Throws
/// std::invalid_argument on unprofiled ops.
ScheduleResult ScheduleDag(const DagWorkload& workload);

/// Re-schedule with substituted durations (same DAG): the plug-in
/// estimator used by sampled makespan estimation. durations_us must have
/// one entry per op.
ScheduleResult ScheduleDagWith(const DagWorkload& workload,
                               std::span<const double> durations_us);

}  // namespace stemroot::dag
