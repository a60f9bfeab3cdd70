// The SIMD layer: the one file allowed to name intrinsics.
#pragma once
#include <immintrin.h>

inline __m256i twice(__m256i v) { return _mm256_add_epi64(v, v); }
