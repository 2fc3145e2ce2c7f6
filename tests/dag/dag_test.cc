#include "dag/dag.h"
#include "dag/network.h"

#include <gtest/gtest.h>

namespace stemroot::dag {
namespace {

DagOp Compute(uint32_t kernel, uint32_t device, double duration,
              std::vector<uint32_t> deps = {}) {
  DagOp op;
  op.kind = OpKind::kCompute;
  op.kernel_id = kernel;
  op.device = device;
  op.duration_us = duration;
  op.deps = std::move(deps);
  return op;
}

TEST(DagWorkloadTest, InternAndAdd) {
  DagWorkload workload("w", 2);
  const uint32_t k = workload.InternKernel("fwd");
  EXPECT_EQ(workload.InternKernel("fwd"), k);
  EXPECT_EQ(workload.NumKernelTypes(), 1u);
  const uint32_t a = workload.Add(Compute(k, 0, 1.0));
  const uint32_t b = workload.Add(Compute(k, 1, 1.0, {a}));
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(workload.NumOps(), 2u);
  EXPECT_DOUBLE_EQ(workload.TotalDurationUs(), 2.0);
}

TEST(DagWorkloadTest, AddValidation) {
  DagWorkload workload("w", 2);
  const uint32_t k = workload.InternKernel("fwd");
  EXPECT_THROW(workload.Add(Compute(k + 1, 0, 1.0)), std::invalid_argument);
  EXPECT_THROW(workload.Add(Compute(k, 5, 1.0)), std::invalid_argument);
  // Forward (non-topological) dependency rejected.
  EXPECT_THROW(workload.Add(Compute(k, 0, 1.0, {7})),
               std::invalid_argument);
  DagOp p2p;
  p2p.kind = OpKind::kPointToPoint;
  p2p.kernel_id = k;
  p2p.device = 0;
  p2p.peer_device = 9;
  EXPECT_THROW(workload.Add(p2p), std::invalid_argument);
}

TEST(ScheduleTest, IndependentOpsOnDifferentDevicesOverlap) {
  DagWorkload workload("w", 2);
  const uint32_t k = workload.InternKernel("fwd");
  workload.Add(Compute(k, 0, 10.0));
  workload.Add(Compute(k, 1, 10.0));
  const ScheduleResult schedule = ScheduleDag(workload);
  EXPECT_DOUBLE_EQ(schedule.makespan_us, 10.0);  // parallel
  EXPECT_DOUBLE_EQ(schedule.compute_time_us, 20.0);
}

TEST(ScheduleTest, SameDeviceSerializes) {
  DagWorkload workload("w", 2);
  const uint32_t k = workload.InternKernel("fwd");
  workload.Add(Compute(k, 0, 10.0));
  workload.Add(Compute(k, 0, 10.0));
  EXPECT_DOUBLE_EQ(ScheduleDag(workload).makespan_us, 20.0);
}

TEST(ScheduleTest, DependenciesChain) {
  DagWorkload workload("w", 2);
  const uint32_t k = workload.InternKernel("fwd");
  const uint32_t a = workload.Add(Compute(k, 0, 10.0));
  workload.Add(Compute(k, 1, 5.0, {a}));  // other device, but depends
  const ScheduleResult schedule = ScheduleDag(workload);
  EXPECT_DOUBLE_EQ(schedule.makespan_us, 15.0);
  EXPECT_DOUBLE_EQ(schedule.start_us[1], 10.0);
}

TEST(ScheduleTest, CollectiveSynchronizesAllDevices) {
  DagWorkload workload("w", 2);
  const uint32_t k = workload.InternKernel("fwd");
  const uint32_t comm = workload.InternKernel("allreduce");
  workload.Add(Compute(k, 0, 10.0));
  workload.Add(Compute(k, 1, 4.0));
  DagOp collective;
  collective.kind = OpKind::kCollective;
  collective.kernel_id = comm;
  collective.duration_us = 3.0;
  collective.deps = {0, 1};
  workload.Add(collective);
  // Post-collective work on the fast device still starts after it.
  workload.Add(Compute(k, 1, 1.0, {2}));
  const ScheduleResult schedule = ScheduleDag(workload);
  EXPECT_DOUBLE_EQ(schedule.start_us[2], 10.0);  // waits for slowest
  EXPECT_DOUBLE_EQ(schedule.makespan_us, 14.0);
  EXPECT_DOUBLE_EQ(schedule.comm_time_us, 3.0);
}

TEST(ScheduleTest, LinkSerializesTransfers) {
  DagWorkload workload("w", 3);
  const uint32_t send = workload.InternKernel("send");
  for (int i = 0; i < 2; ++i) {
    DagOp p2p;
    p2p.kind = OpKind::kPointToPoint;
    p2p.kernel_id = send;
    p2p.device = 0;
    p2p.peer_device = static_cast<uint32_t>(i + 1);
    p2p.duration_us = 5.0;
    workload.Add(p2p);
  }
  EXPECT_DOUBLE_EQ(ScheduleDag(workload).makespan_us, 10.0);
}

TEST(ScheduleTest, RejectsUnprofiledAndMismatchedInput) {
  DagWorkload workload("w", 1);
  const uint32_t k = workload.InternKernel("fwd");
  workload.Add(Compute(k, 0, 0.0));  // unprofiled
  EXPECT_THROW(ScheduleDag(workload), std::invalid_argument);
  const std::vector<double> wrong_arity = {1.0, 2.0};
  EXPECT_THROW(ScheduleDagWith(workload, wrong_arity),
               std::invalid_argument);
}

TEST(ScheduleTest, SubstitutedDurationsChangeMakespan) {
  DagWorkload workload("w", 1);
  const uint32_t k = workload.InternKernel("fwd");
  workload.Add(Compute(k, 0, 10.0));
  workload.Add(Compute(k, 0, 10.0, {0}));
  const std::vector<double> faster = {1.0, 1.0};
  EXPECT_DOUBLE_EQ(ScheduleDagWith(workload, faster).makespan_us, 2.0);
}

TEST(NetworkModelTest, CollectiveScalesWithRingFactor) {
  NetworkModel network;
  network.link_gbps = 100.0;
  network.latency_us = 1.0;
  // 2 devices: wire bytes = 2 * (1/2) * bytes = bytes.
  EXPECT_NEAR(network.CollectiveTimeUs(100'000'000, 2),
              100'000'000 / (100.0 * 1e3) + 2.0, 1e-9);
  // More devices move more wire bytes (factor 2(n-1)/n grows).
  EXPECT_GT(network.CollectiveTimeUs(100'000'000, 8),
            network.CollectiveTimeUs(100'000'000, 2));
  // Single device: latency only.
  EXPECT_DOUBLE_EQ(network.CollectiveTimeUs(1 << 20, 1), 1.0);
  EXPECT_THROW(network.CollectiveTimeUs(1, 0), std::invalid_argument);
}

TEST(NetworkModelTest, P2pAndValidation) {
  NetworkModel network;
  network.link_gbps = 200.0;
  network.latency_us = 8.0;
  EXPECT_NEAR(network.P2pTimeUs(200'000'000), 1000.0 + 8.0, 1e-9);
  NetworkModel bad;
  bad.link_gbps = 0.0;
  EXPECT_THROW(bad.Validate(), std::invalid_argument);
}

}  // namespace
}  // namespace stemroot::dag
