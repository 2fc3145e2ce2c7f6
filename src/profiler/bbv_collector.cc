#include "profiler/bbv_collector.h"

#include <cmath>
#include <stdexcept>

namespace stemroot::profiler {

Bbv BbvCollector::Extract(const KernelTrace& trace,
                          const KernelInvocation& inv) {
  const KernelType& type = trace.TypeOf(inv);
  const double per_warp_instrs =
      static_cast<double>(inv.behavior.instructions) /
      static_cast<double>(std::max<uint64_t>(1, inv.launch.TotalWarps()));

  Bbv bbv(type.block_weights.size());
  // Hot loop blocks (the heavier static weights) have input-dependent
  // trip counts; prologue/epilogue blocks execute a constant number of
  // times per warp. This makes the BBV *shape*, not just its magnitude,
  // input-dependent -- matching how real trip counts behave.
  const double input = std::max(1e-4, static_cast<double>(
                                          inv.behavior.input_scale));
  for (size_t block = 0; block < bbv.size(); ++block) {
    const double weight = type.block_weights[block];
    const bool loop_block = weight > 1.0 / static_cast<double>(bbv.size());
    const double trip_scale = loop_block ? input : 1.0;
    bbv[block] = per_warp_instrs * weight * trip_scale + 1.0;
  }
  return bbv;
}

double BbvCollector::NormalizedDistance(const Bbv& a, const Bbv& b) {
  if (a.size() != b.size())
    throw std::invalid_argument("Bbv: dimension mismatch");
  double sum_a = 0.0;
  double sum_b = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    sum_a += a[i];
    sum_b += b[i];
  }
  if (sum_a <= 0.0 || sum_b <= 0.0)
    throw std::invalid_argument("Bbv: non-positive mass");
  double dist = 0.0;
  for (size_t i = 0; i < a.size(); ++i)
    dist += std::abs(a[i] / sum_a - b[i] / sum_b);
  return dist;
}

}  // namespace stemroot::profiler
