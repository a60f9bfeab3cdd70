// provenance.hpp — build identity baked in at configure time.
//
// cmake/Obs.cmake defines SMN_GIT_SHA / SMN_BUILD_TYPE /
// SMN_SIMD_BACKEND_NAME on the global smn::obs_flags interface target;
// this header turns them into one struct so smn_lab can stamp a
// run-provenance record ahead of its results. Falls back to "unknown"
// when built outside the CMake tree.
#pragma once

#ifndef SMN_GIT_SHA
#define SMN_GIT_SHA "unknown"
#endif
#ifndef SMN_BUILD_TYPE
#define SMN_BUILD_TYPE "unknown"
#endif
#ifndef SMN_SIMD_BACKEND_NAME
#define SMN_SIMD_BACKEND_NAME "unknown"
#endif

namespace smn::obs {

/// Identity of the binary producing a run: enough to reproduce the build.
struct BuildInfo {
    const char* git_sha;
    const char* build_type;
    const char* simd_backend;
    bool obs_enabled;  ///< always true: telemetry is part of every build
};

[[nodiscard]] inline BuildInfo build_info() noexcept {
    return BuildInfo{SMN_GIT_SHA, SMN_BUILD_TYPE, SMN_SIMD_BACKEND_NAME, true};
}

}  // namespace smn::obs
