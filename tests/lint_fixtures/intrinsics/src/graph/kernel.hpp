// A kernel that bypasses util/simd.hpp. Comments may say _mm256_add_epi64
// or vaddq_u64 without a finding.
#pragma once
#include <immintrin.h>
#include <arm_neon.h>
#include "util/simd.hpp"

inline __m256i sum(__m256i a, __m256i b) { return _mm256_add_epi64(a, b); }
inline uint64x2_t sum2(uint64x2_t a, uint64x2_t b) { return vaddq_u64(a, b); }
inline int plain(int vq, int value_q) { return vq + value_q; }
inline const char* name() { return "_mm256_add_epi64"; }
