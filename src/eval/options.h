/// \file
/// Typed option structs for every stemroot front end (CLI commands,
/// benches, the resident service), replacing per-command ad-hoc flag
/// plumbing with one validated path:
///
///   Flags -> ParseCommonOptions() -> CommonOptions -> ApplyCommonOptions()
///
/// CommonOptions carries the flags every command understands (--seed,
/// --scale, --threads, --trace, --log-level) plus the
/// pipeline-command trio (--cache, --manifest, --ledger). Parsing marks
/// the flags consumed, so each command's trailing Flags::CheckAllRead()
/// still rejects unknown flags with the usual single error format;
/// Validate() rejects conflicting or out-of-range values the same way
/// (std::invalid_argument, "options: ..." messages).
///
/// ResolveSuite/ResolveGpu are the one place a suite or GPU token is
/// turned into its typed value with an exhaustive "available: ..." error,
/// shared by the CLI commands and service::Service.

#pragma once

#include <cstdint>
#include <string>

#include "common/flags.h"
#include "eval/pipeline.h"
#include "hw/gpu_spec.h"
#include "workloads/suite.h"

namespace stemroot::eval {

/// The resolved common configuration of one front-end invocation.
struct CommonOptions {
  uint64_t seed = 42;          ///< master seed (per-stage streams derive)
  double scale = 1.0;          ///< workload size scale
  int threads = 0;             ///< 0 = auto
  std::string trace_path;      ///< "" = trace events off
  std::string log_level;       ///< "" = leave the log level untouched
  std::string cache_dir;       ///< "" = leave untouched; "none" = disabled
  std::string manifest_path;   ///< "" = no manifest file
  std::string ledger_path;     ///< "" = no ledger append
  /// --trace-chunk-invocations: chunk capacity of the out-of-core trace
  /// view (0 = fully in-memory, the default; results are byte-identical
  /// either way -- see Pipeline::Options).
  uint64_t trace_chunk_invocations = 0;
  /// --trace-spill: directory for the chunked on-disk spill ("" = off).
  std::string trace_spill_dir;

  /// The pipeline-facing subset (seed + scale).
  Pipeline::Options ToPipelineOptions() const;

  /// Range/consistency checks; throws std::invalid_argument.
  void Validate() const;
};

/// Read the common flags out of `flags` (marking them consumed so
/// CheckAllRead stays strict). `pipeline_command` additionally consumes
/// --cache/--manifest/--ledger and defaults cache_dir to the process
/// default; non-pipeline commands leave all three empty. The result is
/// already Validate()d.
CommonOptions ParseCommonOptions(const Flags& flags, bool pipeline_command);

/// Apply the process-global side of the options: thread count, telemetry
/// and trace-event switches (manifest/ledger emission turns telemetry
/// collection on, and with it logical mem accounting -- common/resource.h),
/// log level, and the profiled-trace cache directory.
/// Idempotent; call once per invocation before pipeline work starts.
void ApplyCommonOptions(const CommonOptions& options);

/// Parse a suite token ("rodinia" / "casio" / "huggingface"); throws
/// std::invalid_argument listing the available suites.
workloads::SuiteId ResolveSuite(const std::string& name);

/// Parse a GPU preset token; throws std::invalid_argument listing the
/// available presets.
hw::GpuSpec ResolveGpu(const std::string& name);

}  // namespace stemroot::eval
