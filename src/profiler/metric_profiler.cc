#include "profiler/metric_profiler.h"

#include <cmath>
#include <algorithm>

namespace stemroot::profiler {

PkaFeatures MetricProfiler::Extract(const KernelTrace& trace,
                                    const KernelInvocation& inv) {
  (void)trace;
  const KernelBehavior& b = inv.behavior;
  const LaunchConfig& l = inv.launch;
  PkaFeatures f;
  const double instrs = static_cast<double>(b.instructions);
  f.values[0] = std::log2(std::max(1.0, instrs));
  f.values[1] = b.mem_fraction;
  f.values[2] = b.shared_fraction;
  f.values[3] = b.fp16_fraction;
  f.values[4] = b.fp32_fraction;
  // Control-flow fraction grows with divergence (more re-converge code).
  f.values[5] = 0.05 + 0.2 * static_cast<double>(b.branch_divergence);
  f.values[6] = std::log2(std::max<double>(1.0,
                                           static_cast<double>(l.NumCtas())));
  f.values[7] = l.ThreadsPerCta();
  f.values[8] = l.WarpsPerCta();
  f.values[9] = b.branch_divergence;
  f.values[10] = b.ilp;
  f.values[11] =
      instrs / std::max<double>(1.0, static_cast<double>(l.TotalWarps()));
  return f;
}

}  // namespace stemroot::profiler
