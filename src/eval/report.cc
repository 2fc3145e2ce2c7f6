#include "eval/report.h"

#include <algorithm>

#include "common/csv.h"
#include "common/str.h"
#include "common/table.h"

namespace stemroot::eval {

std::string FormatSuiteTable(const SuiteResults& results,
                             const std::string& title) {
  const auto methods = results.Methods();
  std::vector<std::string> headers = {"Workload"};
  for (const std::string& m : methods) {
    headers.push_back(m + " spd(x)");
    headers.push_back(m + " err(%)");
  }
  TextTable table(headers);
  table.SetTitle(title);

  std::vector<std::string> seen;
  for (const EvalResult& row : results.rows) {
    if (std::find(seen.begin(), seen.end(), row.workload) != seen.end())
      continue;
    seen.push_back(row.workload);
    std::vector<std::string> cells = {row.workload};
    const auto wl_rows = results.ForWorkload(row.workload);
    for (const std::string& m : methods) {
      bool found = false;
      for (const EvalResult& r : wl_rows) {
        if (r.method == m) {
          cells.push_back(TextTable::Num(r.speedup, 2));
          cells.push_back(TextTable::Num(r.error_pct, 2));
          found = true;
          break;
        }
      }
      if (!found) {
        cells.push_back("N/A");
        cells.push_back("N/A");
      }
    }
    table.AddRow(std::move(cells));
  }
  return table.Render();
}

void WriteResultsCsv(const SuiteResults& results, const std::string& path) {
  CsvWriter csv(path);
  csv.WriteHeader({"workload", "method", "speedup", "error_pct",
                   "theoretical_error_pct", "samples", "clusters"});
  for (const EvalResult& row : results.rows) {
    csv.WriteRow({row.workload, row.method, Format("%.4f", row.speedup),
                  Format("%.4f", row.error_pct),
                  Format("%.4f", row.theoretical_error_pct),
                  std::to_string(row.num_samples),
                  std::to_string(row.num_clusters)});
  }
  csv.Flush();
}

}  // namespace stemroot::eval
