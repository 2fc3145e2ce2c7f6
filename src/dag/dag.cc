#include "dag/dag.h"

#include <algorithm>
#include <stdexcept>

namespace stemroot::dag {

uint32_t DagWorkload::InternKernel(const std::string& kernel_name) {
  const uint32_t next = static_cast<uint32_t>(name_to_id_.size());
  return name_to_id_.try_emplace(kernel_name, next).first->second;
}

uint32_t DagWorkload::Add(DagOp op) {
  if (op.kernel_id >= name_to_id_.size())
    throw std::invalid_argument("DagWorkload::Add: unregistered kernel_id");
  if (op.device >= num_devices_)
    throw std::invalid_argument("DagWorkload::Add: device out of range");
  if (op.kind == OpKind::kPointToPoint && op.peer_device >= num_devices_)
    throw std::invalid_argument("DagWorkload::Add: peer out of range");
  const uint32_t index = static_cast<uint32_t>(ops_.size());
  for (uint32_t dep : op.deps) {
    if (dep >= index)
      throw std::invalid_argument(
          "DagWorkload::Add: dependency on a later op (not topological)");
  }
  ops_.push_back(std::move(op));
  return index;
}

std::vector<std::vector<uint32_t>> DagWorkload::GroupByKernel() const {
  std::vector<std::vector<uint32_t>> groups(name_to_id_.size());
  for (uint32_t i = 0; i < ops_.size(); ++i)
    groups[ops_[i].kernel_id].push_back(i);
  return groups;
}

double DagWorkload::TotalDurationUs() const {
  double total = 0.0;
  for (const DagOp& op : ops_) total += op.duration_us;
  return total;
}

ScheduleResult ScheduleDagWith(const DagWorkload& workload,
                               std::span<const double> durations_us) {
  if (durations_us.size() != workload.NumOps())
    throw std::invalid_argument("ScheduleDagWith: arity mismatch");

  ScheduleResult result;
  result.start_us.resize(workload.NumOps());
  // Resource-ready times: one per device plus one interconnect channel.
  std::vector<double> device_free(workload.NumDevices(), 0.0);
  double link_free = 0.0;
  std::vector<double> finish(workload.NumOps(), 0.0);

  for (uint32_t i = 0; i < workload.NumOps(); ++i) {
    const DagOp& op = workload.At(i);
    const double duration = durations_us[i];
    if (duration <= 0.0)
      throw std::invalid_argument("ScheduleDag: non-positive duration");

    double ready = 0.0;
    for (uint32_t dep : op.deps) ready = std::max(ready, finish[dep]);

    double start;
    switch (op.kind) {
      case OpKind::kCompute:
        start = std::max(ready, device_free[op.device]);
        device_free[op.device] = start + duration;
        result.compute_time_us += duration;
        break;
      case OpKind::kCollective:
        // A collective occupies the interconnect and synchronizes every
        // device: it cannot start before all devices are free, and all
        // devices resume after it.
        start = std::max(ready, link_free);
        for (double free_at : device_free) start = std::max(start, free_at);
        link_free = start + duration;
        for (double& free_at : device_free) free_at = start + duration;
        result.comm_time_us += duration;
        break;
      case OpKind::kPointToPoint:
        start = std::max(ready, link_free);
        link_free = start + duration;
        result.comm_time_us += duration;
        break;
      default:
        throw std::invalid_argument("ScheduleDag: bad op kind");
    }
    result.start_us[i] = start;
    finish[i] = start + duration;
    result.makespan_us = std::max(result.makespan_us, finish[i]);
  }
  return result;
}

ScheduleResult ScheduleDag(const DagWorkload& workload) {
  std::vector<double> durations;
  durations.reserve(workload.NumOps());
  for (const DagOp& op : workload.Ops()) durations.push_back(op.duration_us);
  return ScheduleDagWith(workload, durations);
}

}  // namespace stemroot::dag
