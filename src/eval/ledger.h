/// \file
/// The perf/accuracy ledger: an append-only JSONL file of run manifests,
/// the longitudinal memory behind `stemroot regress`.
///
/// Every completed `stemroot` command run with `--ledger` and every bench
/// appends its manifest as one compact JSON line (schema
/// "stemroot-manifest-v1", src/eval/manifest.h) to the ledger -- by
/// default bench_results/ledger.jsonl, which is committed so the perf
/// trajectory survives across PRs. Append never rewrites existing bytes,
/// so a crash mid-append costs at most the final line; Load() tolerates
/// exactly that by skipping unparseable lines and counting them.
///
/// Reading is line-ordered (append order == chronological order); queries
/// filter over that order. Baseline matching uses
/// RunManifest::Fingerprint(): two entries belong to the same series when
/// their tool, command, and full resolved config (including threads)
/// agree -- only then are wall times comparable.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "eval/manifest.h"

namespace stemroot::eval {

class Ledger {
 public:
  /// The committed default, shared with the benches: ResultsDir-relative
  /// "bench_results/ledger.jsonl".
  static std::string DefaultPath();

  /// Append one manifest as a compact line, creating the file (and parent
  /// directories) on first use. Throws std::runtime_error on I/O failure.
  static void Append(const RunManifest& manifest, const std::string& path);

  /// Load a ledger file. Unparseable lines (e.g. the torn tail of a
  /// crashed append) are skipped and counted in num_skipped(). Throws
  /// std::runtime_error when the file cannot be opened.
  static Ledger Load(const std::string& path);

  /// An empty in-memory ledger (for building query fixtures in tests).
  Ledger() = default;

  /// Append an entry to the in-memory view (not the file).
  void Add(RunManifest manifest) { entries_.push_back(std::move(manifest)); }

  /// All entries, file order (chronological).
  const std::vector<RunManifest>& Entries() const { return entries_; }
  size_t num_skipped() const { return num_skipped_; }
  bool empty() const { return entries_.empty(); }

  /// The most recent `window` completed entries (0 = all) sharing
  /// `reference`'s fingerprint, newest last, excluding entries at or past
  /// index `before` (pass Entries().size() to include everything, or the
  /// index of the newest run to get its baseline).
  std::vector<const RunManifest*> Baseline(const RunManifest& reference,
                                           size_t before,
                                           size_t window) const;

 private:
  std::vector<RunManifest> entries_;
  size_t num_skipped_ = 0;
};

}  // namespace stemroot::eval
