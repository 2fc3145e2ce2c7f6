/// \file
/// The flags shared by the stemroot front ends (CLI commands and
/// benches), in the one flag grammar (common/flags.h). They come in two
/// blocks, each declared once here, and those tables hold the defaults:
/// every command and bench takes EveryCommandFlags() (--threads --trace
/// --log-level); the commands that run the pipeline also take
/// PipelineFlags() (--seed --scale --cache --manifest --ledger
/// --trace-chunk-invocations --trace-spill). A front end parses its table,
/// checks and applies the common flags, then reads the rest:
///
///   Flags::Parse -> CheckCommonFlags -> ApplyCommonFlags
///
/// ResolveSuite/ResolveGpu are the one place a suite or GPU token is
/// turned into its typed value with an exhaustive "available: ..." error,
/// shared by the CLI commands and service::Service.

#pragma once

#include <string>
#include <vector>

#include "common/flags.h"
#include "eval/pipeline.h"
#include "hw/gpu_spec.h"
#include "workloads/suite.h"

namespace stemroot::eval {

/// --threads, --trace and --log-level.
const std::vector<FlagSpec>& EveryCommandFlags();

/// --seed, --scale, --cache, --manifest, --ledger,
/// --trace-chunk-invocations and --trace-spill.
const std::vector<FlagSpec>& PipelineFlags();

/// The checks no flag kind makes: --scale > 0, a known --log-level, and
/// --manifest and --ledger naming different files; throws FlagError.
void CheckCommonFlags(const Flags& flags);

/// Apply the every-command block's process-global switches: thread
/// count, trace events and log level. Call once per invocation, after
/// CheckCommonFlags, before any work starts.
void ApplyCommonFlags(const Flags& flags);

/// The pipeline block as Pipeline::Options (seed, scale, trace view).
Pipeline::Options PipelineOptions(const Flags& flags);

/// Parse a suite token ("rodinia" / "casio" / "huggingface"); throws
/// std::invalid_argument listing the available suites.
workloads::SuiteId ResolveSuite(const std::string& name);

/// Parse a GPU preset token; throws std::invalid_argument listing the
/// available presets.
hw::GpuSpec ResolveGpu(const std::string& name);

}  // namespace stemroot::eval
