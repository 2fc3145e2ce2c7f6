/// \file
/// Report formatting shared by the bench binaries: text tables in the
/// paper's layout plus CSV dumps of the raw series.

#pragma once

#include <string>

#include "eval/runner.h"

namespace stemroot::eval {

/// Per-workload table (one row per workload, one speedup+error column pair
/// per method) -- the layout of Figs. 7/8 as a table.
std::string FormatSuiteTable(const SuiteResults& results,
                             const std::string& title);

/// Dump raw rows as CSV (workload, method, speedup, error_pct,
/// theoretical_error_pct, samples, clusters).
void WriteResultsCsv(const SuiteResults& results, const std::string& path);

}  // namespace stemroot::eval
