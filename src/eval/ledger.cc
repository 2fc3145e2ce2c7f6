#include "eval/ledger.h"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace stemroot::eval {

std::string Ledger::DefaultPath() { return "bench_results/ledger.jsonl"; }

void Ledger::Append(const RunManifest& manifest, const std::string& path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);  // best effort
  }
  errno = 0;
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out)
    throw std::runtime_error("ledger: cannot open " + path + ": " +
                             std::strerror(errno));
  // A silently dropped ledger line would poison every later regression
  // baseline, so the append is flushed and the stream state checked before
  // the run is allowed to report success.
  out << manifest.ToJson(/*pretty=*/false) << '\n';
  out.flush();
  if (!out)
    throw std::runtime_error("ledger: append to " + path +
                             " failed (disk full or permission lost?)");
}

Ledger Ledger::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("ledger: cannot open " + path);

  Ledger ledger;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    RunManifest manifest;
    if (RunManifest::FromJson(line, manifest, nullptr))
      ledger.entries_.push_back(std::move(manifest));
    else
      ++ledger.num_skipped_;
  }
  return ledger;
}

std::vector<const RunManifest*> Ledger::Baseline(const RunManifest& reference,
                                                 size_t before,
                                                 size_t window) const {
  const std::string fingerprint = reference.Fingerprint();
  std::vector<const RunManifest*> matching;
  const size_t limit = before < entries_.size() ? before : entries_.size();
  for (size_t i = 0; i < limit; ++i) {
    const RunManifest& entry = entries_[i];
    if (entry.completed && entry.Fingerprint() == fingerprint)
      matching.push_back(&entry);
  }
  if (window > 0 && matching.size() > window)
    matching.erase(matching.begin(),
                   matching.end() - static_cast<ptrdiff_t>(window));
  return matching;
}

}  // namespace stemroot::eval
