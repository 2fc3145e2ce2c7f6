/// \file
/// Pipeline-stage view of a telemetry snapshot, plus the export plumbing
/// shared by the CLI, the benches, and the CLI drills:
///
/// - StageReport folds span aggregates into the canonical
///   generate/profile/cluster/sample/evaluate stage rows and renders the
///   human-readable "where did the time go" table `stemroot run` prints.
/// - WriteTelemetry dumps a snapshot to disk (JSON, or CSV when the path
///   ends in ".csv").
/// - ValidateTelemetryJson / ValidateTelemetryCsv are dependency-free
///   schema checks (the JSON grammar lives in common/json.h) used by
///   `stemroot validate telemetry` and the telemetry tests, so CI can
///   gate on a malformed export without external JSON libraries.

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/telemetry.h"

namespace stemroot::eval {

/// Canonical stage span names, pipeline order (paper Fig. 5).
const std::vector<std::string>& PipelineStageNames();

/// Per-stage rollup of one snapshot's spans (aggregated over parents).
class StageReport {
 public:
  struct Stage {
    std::string name;
    uint64_t count = 0;    ///< span instances
    double total_us = 0.0; ///< summed wall time
  };

  /// Canonical stages first (those that occurred), then any other span
  /// names alphabetically.
  static StageReport FromSnapshot(const telemetry::Snapshot& snapshot);

  const std::vector<Stage>& Stages() const { return stages_; }
  bool HasStage(std::string_view name) const;
  double TotalUs() const;

  /// Text table: stage, count, wall time, share of the stage total.
  std::string ToText() const;

 private:
  std::vector<Stage> stages_;
};

/// Write a snapshot to `path`: CSV when the path ends in ".csv", JSON
/// otherwise. Throws std::runtime_error when the file cannot be written.
void WriteTelemetry(const telemetry::Snapshot& snapshot,
                    const std::string& path);

/// Strict validation of a telemetry JSON export: full grammar parse (no
/// external deps) plus schema checks -- top-level object with a
/// "stemroot-telemetry-v1" schema tag, numeric "counters", summary-object
/// "distributions", and a "spans" array whose entries carry
/// name/parent/count/total_us. On success, `span_names` (when non-null)
/// receives every span name in file order. On failure, `error` (when
/// non-null) gets a one-line reason.
bool ValidateTelemetryJson(std::string_view json, std::string* error,
                           std::vector<std::string>* span_names = nullptr);

/// Strict validation of a telemetry CSV export (the fixed 10-column
/// kind,name,parent,count,min,mean,max,p50,p99,total layout): exact
/// header, known row kinds, numeric columns numeric and unused columns
/// empty per kind. On success, `span_names` (when non-null) receives the
/// name of every span row in file order.
bool ValidateTelemetryCsv(std::string_view csv, std::string* error,
                          std::vector<std::string>* span_names = nullptr);

}  // namespace stemroot::eval
