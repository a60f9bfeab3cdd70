# Build provenance for src/obs (telemetry).
#
# Every smn target compiles against the interface library smn::obs_flags,
# which carries the git sha, build type and the Simd.cmake backend name
# as string defines so smn_lab can emit a run provenance record
# (obs/provenance.hpp). Include after Simd.cmake: SMN_SIMD_BACKEND must
# already be set.

add_library(smn_obs_flags INTERFACE)
add_library(smn::obs_flags ALIAS smn_obs_flags)

execute_process(
  COMMAND git rev-parse --short=12 HEAD
  WORKING_DIRECTORY ${PROJECT_SOURCE_DIR}
  OUTPUT_VARIABLE SMN_GIT_SHA
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET
  RESULT_VARIABLE smn_git_sha_rc)
if(NOT smn_git_sha_rc EQUAL 0 OR SMN_GIT_SHA STREQUAL "")
  set(SMN_GIT_SHA "unknown")
endif()

set(smn_build_type "${CMAKE_BUILD_TYPE}")
if(smn_build_type STREQUAL "")
  set(smn_build_type "unspecified")
endif()

target_compile_definitions(smn_obs_flags INTERFACE
  SMN_GIT_SHA="${SMN_GIT_SHA}"
  SMN_BUILD_TYPE="${smn_build_type}"
  SMN_SIMD_BACKEND_NAME="${SMN_SIMD_BACKEND}")

message(STATUS "smn: git ${SMN_GIT_SHA}")
