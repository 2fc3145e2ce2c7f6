#include "common/build_info.h"

// CMake injects these through set_source_files_properties on this file
// only, so a hash change never rebuilds the whole library.
#ifndef SR_GIT_HASH
#define SR_GIT_HASH "unknown"
#endif
#ifndef SR_GIT_DIRTY
#define SR_GIT_DIRTY 0
#endif
#ifndef SR_COMPILER_ID
#define SR_COMPILER_ID "unknown"
#endif
#ifndef SR_BUILD_TYPE
#define SR_BUILD_TYPE ""
#endif
#ifndef SR_SANITIZE_MODE
#define SR_SANITIZE_MODE ""
#endif

namespace stemroot {

const BuildInfo& GetBuildInfo() {
  static const BuildInfo kInfo = {SR_GIT_HASH, SR_GIT_DIRTY != 0,
                                  SR_COMPILER_ID, SR_BUILD_TYPE,
                                  SR_SANITIZE_MODE};
  return kInfo;
}

}  // namespace stemroot
