/// \file
/// NCU-like per-kernel metric profiler: the 12 instruction-level features
/// PKA clusters on (paper Table 1: "12 instr. level metrics").
///
/// The features are deliberately *static/instruction-level*: dynamic
/// instruction counts, mix fractions, launch geometry, divergence. They see
/// nothing of cache locality or runtime memory behaviour -- which is
/// exactly the blind spot the paper's Fig. 10 demonstrates: contexts of the
/// same kernel that differ only in data placement produce identical
/// features here but very different execution times.

#pragma once

#include <array>
#include <cstdint>

#include "trace/trace.h"

namespace stemroot::profiler {

/// PKA feature vector: 12 instruction-level metrics, in index order
/// log2 dynamic instructions, memory / shared / fp16 / fp32 / control
/// instruction fractions, log2 CTA count, threads per CTA, warps per CTA,
/// branch divergence, ILP and instructions per warp.
struct PkaFeatures {
  static constexpr size_t kDim = 12;
  std::array<double, kDim> values{};
};

/// Extract PKA features for every invocation of a trace. Deterministic:
/// NCU replays kernels until counters are stable, so (unlike timing)
/// features carry no run-to-run noise.
class MetricProfiler {
 public:
  /// Features of a single invocation.
  static PkaFeatures Extract(const KernelTrace& trace,
                             const KernelInvocation& inv);
};

}  // namespace stemroot::profiler
