/// \file
/// Compile-time build provenance: which source revision, compiler, build
/// type, and sanitizer mode produced this binary.
///
/// Every run manifest (src/eval/manifest.h) embeds this stamp so a ledger
/// entry can always be traced back to the code that produced it -- a perf
/// or accuracy shift in `stemroot regress` is only actionable when the two
/// runs' revisions are known.
///
/// The values are injected by CMake at configure time (see
/// src/CMakeLists.txt): `git rev-parse` supplies the hash, `git status
/// --porcelain` the dirty flag, and the compiler/build-type/sanitizer
/// fields come from the CMake variables of the configured tree. A tree
/// configured before new commits reports the hash of the configure-time
/// HEAD; re-run cmake to refresh the stamp. Outside a git checkout the
/// hash is "unknown".

#pragma once

#include <string>

namespace stemroot {

/// Immutable description of how this binary was built.
struct BuildInfo {
  std::string git_hash;    ///< abbreviated HEAD hash, or "unknown"
  bool git_dirty = false;  ///< uncommitted changes at configure time
  std::string compiler;    ///< e.g. "GNU 13.2.0"
  std::string build_type;  ///< CMAKE_BUILD_TYPE, e.g. "RelWithDebInfo"
  std::string sanitizer;   ///< SR_SANITIZE: "", "thread", or "address"
};

/// The stamp baked into this binary.
const BuildInfo& GetBuildInfo();

}  // namespace stemroot
