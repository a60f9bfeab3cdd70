# Configure-time SIMD backend selection for src/util/simd.hpp.
#
# Every smn target (library modules, tests, benches, tools) compiles against
# the interface library smn::simd so the whole build uses ONE instruction
# set — mixing ISAs across translation units that include the same inline
# kernels would be an ODR violation waiting to happen.
#
# Selection between the two backends, AVX2 and scalar (see src/util/simd.hpp
# for the kernel-facing contract):
#  * -DSMN_DISABLE_SIMD=ON  — force the scalar backend everywhere. This is
#    the CI force-scalar leg; determinism tests compare its goldens against
#    the vectorized build's.
#  * x86-64 where the compiler accepts -mavx2 — AVX2. Note this makes the
#    binaries require an AVX2-capable host (any x86-64-v3 machine, i.e.
#    Haswell 2013 onward); pass SMN_DISABLE_SIMD=ON to build for older CPUs.
#  * anything else (AArch64 included) — scalar.

include(CheckCXXSourceCompiles)

option(SMN_DISABLE_SIMD "Force the scalar kernel backend (no AVX2)" OFF)

add_library(smn_simd INTERFACE)
add_library(smn::simd ALIAS smn_simd)

if(SMN_DISABLE_SIMD)
  target_compile_definitions(smn_simd INTERFACE SMN_DISABLE_SIMD=1)
  set(SMN_SIMD_BACKEND "scalar (forced by SMN_DISABLE_SIMD)")
elseif(CMAKE_SYSTEM_PROCESSOR MATCHES "^(x86_64|amd64|AMD64)$")
  set(CMAKE_REQUIRED_FLAGS "-mavx2")
  check_cxx_source_compiles("
    #include <immintrin.h>
    int main() {
      __m256i v = _mm256_set1_epi32(1);
      v = _mm256_add_epi32(v, v);
      return _mm256_extract_epi32(v, 0) - 2;
    }" SMN_HAVE_AVX2)
  unset(CMAKE_REQUIRED_FLAGS)
  if(SMN_HAVE_AVX2)
    target_compile_options(smn_simd INTERFACE -mavx2)
    set(SMN_SIMD_BACKEND "avx2")
  else()
    set(SMN_SIMD_BACKEND "scalar (no AVX2 compiler support)")
  endif()
else()
  set(SMN_SIMD_BACKEND "scalar (not x86-64)")
endif()

message(STATUS "smn: SIMD backend: ${SMN_SIMD_BACKEND}")
