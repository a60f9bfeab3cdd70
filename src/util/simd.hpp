// simd.hpp — fixed-width portable SIMD lanes for the hot kernels.
//
// The walk kernel (walk/ensemble.cpp, walk/decode.hpp),
// gossip's row merge (MultiRumorState::merge_row, core/rumor.hpp) and the
// visibility pass's window gather and move tally (graph/visibility.cpp)
// are written once against the U64x4 lane type below; gossip's
// per-rumor tally (core/gossip.cpp) uses the two byte-lane kernels
// add_bit_lanes and fold_byte_lanes. All of it is compiled against one of
// two backends, selected at CONFIGURE time (never at runtime — a runtime
// dispatch would put an unpredictable branch in loops that run billions of
// times):
//
//  * AVX2   — x86-64 with -mavx2 (cmake/Simd.cmake probes the compiler and
//             adds the flag; the binary then requires an AVX2 host).
//  * scalar — everything else (AArch64 included), or any build configured
//             with -DSMN_DISABLE_SIMD=ON. Plain loops over small arrays;
//             the force-scalar CI leg runs the full test suite against it.
//
// A new op goes into both backends. Only these two are built, tested and
// benchmarked; another ISA's backend belongs here once a CI runner and a
// benchmark host of that ISA can exercise it.
//
// The lane width is fixed at 4×uint64 on both backends so kernel code
// never branches on width. A lane may also hold two int32 halves, as the
// walk's grid::Point does (cmpgt_halves). Masks are carried as lane
// vectors (all-ones per true lane or half).
//
// Determinism note: every operation here is exact integer arithmetic —
// identical results on both backends by construction. There is no
// floating point, no FMA, no reassociation. The SIMD-vs-scalar golden
// tests (tests/determinism_test.cpp, force-scalar CI leg) enforce this
// end to end.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>

#if !defined(SMN_DISABLE_SIMD) && defined(__AVX2__)
#define SMN_SIMD_AVX2 1
#include <immintrin.h>
#else
#define SMN_SIMD_SCALAR 1
#endif

namespace smn::util::simd {

/// Lanes per U64x4 — fixed on both backends.
inline constexpr int kU64Lanes = 4;
/// Byte lanes add_bit_lanes / fold_byte_lanes touch: one per bit of a word.
inline constexpr int kBitLanes = 64;

#if defined(SMN_SIMD_AVX2)

// ------------------------------------------------------------- AVX2 backend

/// Four uint64 lanes.
struct U64x4 {
    __m256i v;

    [[nodiscard]] static U64x4 load(const std::uint64_t* p) noexcept {
        return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
    }
    [[nodiscard]] static U64x4 splat(std::uint64_t x) noexcept {
        return {_mm256_set1_epi64x(static_cast<long long>(x))};
    }
    /// Lanes w0, w1, w2, w3 from four values held in registers (no
    /// memory round trip: a store and a wide reload of fresh values
    /// cannot be store-forwarded).
    [[nodiscard]] static U64x4 set(std::uint64_t w0, std::uint64_t w1, std::uint64_t w2,
                                   std::uint64_t w3) noexcept {
        return {_mm256_set_epi64x(static_cast<long long>(w3), static_cast<long long>(w2),
                                  static_cast<long long>(w1), static_cast<long long>(w0))};
    }
    /// Four uint32 at p, zero-extended.
    [[nodiscard]] static U64x4 load_u32(const std::uint32_t* p) noexcept {
        return {_mm256_cvtepu32_epi64(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)))};
    }
    void store(std::uint64_t* p) const noexcept {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
    }
    /// The 32 bytes at p as 4 native-endian lanes, whatever objects they
    /// hold (no alignment required); store_bytes writes them back.
    [[nodiscard]] static U64x4 load_bytes(const void* p) noexcept {
        return {_mm256_loadu_si256(static_cast<const __m256i*>(p))};
    }
    void store_bytes(void* p) const noexcept { _mm256_storeu_si256(static_cast<__m256i*>(p), v); }
};

[[nodiscard]] inline U64x4 add(U64x4 a, U64x4 b) noexcept {
    return {_mm256_add_epi64(a.v, b.v)};
}
[[nodiscard]] inline U64x4 bit_and(U64x4 a, U64x4 b) noexcept {
    return {_mm256_and_si256(a.v, b.v)};
}
[[nodiscard]] inline U64x4 bit_or(U64x4 a, U64x4 b) noexcept {
    return {_mm256_or_si256(a.v, b.v)};
}
/// a & ~b per lane.
[[nodiscard]] inline U64x4 and_not(U64x4 a, U64x4 b) noexcept {
    return {_mm256_andnot_si256(b.v, a.v)};
}
[[nodiscard]] inline U64x4 cmpeq(U64x4 a, U64x4 b) noexcept {
    return {_mm256_cmpeq_epi64(a.v, b.v)};
}
template <int N>
[[nodiscard]] inline U64x4 shift_left(U64x4 a) noexcept {
    return {_mm256_slli_epi64(a.v, N)};
}
template <int N>
[[nodiscard]] inline U64x4 shift_right(U64x4 a) noexcept {
    return {_mm256_srli_epi64(a.v, N)};
}
/// True iff any lane has any bit set.
[[nodiscard]] inline bool any(U64x4 a) noexcept {
    return _mm256_testz_si256(a.v, a.v) == 0;
}
/// Per 32-bit half, signed a > b: an all-ones half where true.
[[nodiscard]] inline U64x4 cmpgt_halves(U64x4 a, U64x4 b) noexcept {
    return {_mm256_cmpgt_epi32(a.v, b.v)};
}
/// table[idx[lane]] for each lane.
[[nodiscard]] inline U64x4 gather(const std::uint64_t* table, U64x4 idx) noexcept {
    return {_mm256_i64gather_epi64(reinterpret_cast<const long long*>(table), idx.v, 8)};
}
/// Lane i: the 8 bytes at base + offsets[i], read as a little-endian
/// uint64 (no alignment required).
[[nodiscard]] inline U64x4 gather_bytes(const std::uint8_t* base, U64x4 offsets) noexcept {
    return {_mm256_i64gather_epi64(reinterpret_cast<const long long*>(base), offsets.v, 1)};
}
/// Lane i: a[i] >> counts[i] (counts 0..63).
[[nodiscard]] inline U64x4 shift_right(U64x4 a, U64x4 counts) noexcept {
    return {_mm256_srlv_epi64(a.v, counts.v)};
}
/// Bit i set iff lane i is nonzero.
[[nodiscard]] inline unsigned nonzero_mask(U64x4 a) noexcept {
    const __m256i zero = _mm256_cmpeq_epi64(a.v, _mm256_setzero_si256());
    return static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(zero))) ^ 0xFu;
}

/// Adds 1 (mod 256) to byte lanes[i] for every set bit i of `bits`, over
/// kBitLanes lanes, without a branch: `bits` is broadcast, byte j of each
/// 32-lane half picks source byte j / 8 (vpshufb indexes within each
/// 128-bit half, and every half holds all eight source bytes), keeps bit
/// j % 8, and the all-ones compare result is subtracted.
inline void add_bit_lanes(std::uint64_t bits, std::uint8_t* lanes) noexcept {
    const __m256i word = _mm256_set1_epi64x(static_cast<long long>(bits));
    const __m256i bit = _mm256_set1_epi64x(static_cast<long long>(0x8040201008040201ULL));
    const __m256i pick[2] = {
        _mm256_setr_epi8(0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1,  //
                         2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3),
        _mm256_setr_epi8(4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5,  //
                         6, 6, 6, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7, 7, 7, 7)};
    for (int half = 0; half < 2; ++half) {
        const __m256i spread = _mm256_shuffle_epi8(word, pick[half]);
        const __m256i set = _mm256_cmpeq_epi8(_mm256_and_si256(spread, bit), bit);
        auto* p = reinterpret_cast<__m256i*>(lanes + 32 * half);
        _mm256_storeu_si256(p, _mm256_sub_epi8(_mm256_loadu_si256(p), set));
    }
}
/// Over kBitLanes lanes: counts[i] += lanes[i], then lanes[i] = 0.
/// Returns bit i set iff lanes[i] was nonzero and counts[i] now equals
/// `target`.
[[nodiscard]] inline std::uint64_t fold_byte_lanes(std::uint8_t* lanes, std::int32_t* counts,
                                                   std::int32_t target) noexcept {
    const __m256i want = _mm256_set1_epi32(target);
    const __m256i zero = _mm256_setzero_si256();
    std::uint64_t hit = 0;
    for (int g = 0; g < 8; ++g) {
        const __m256i delta = _mm256_cvtepu8_epi32(
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(lanes + 8 * g)));
        auto* c = reinterpret_cast<__m256i*>(counts + 8 * g);
        const __m256i sum = _mm256_add_epi32(_mm256_loadu_si256(c), delta);
        _mm256_storeu_si256(c, sum);
        const __m256i reached =
            _mm256_andnot_si256(_mm256_cmpeq_epi32(delta, zero), _mm256_cmpeq_epi32(sum, want));
        hit |= std::uint64_t{static_cast<unsigned>(
                   _mm256_movemask_ps(_mm256_castsi256_ps(reached)))}
               << (8 * g);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), zero);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes + 32), zero);
    return hit;
}

#else

// ----------------------------------------------------------- scalar backend
// Plain loops; gcc/clang auto-vectorize most of them at -O2, and the
// force-scalar CI leg keeps this path green under ASan/UBSan.

struct U64x4 {
    std::uint64_t l[4];

    [[nodiscard]] static U64x4 load(const std::uint64_t* p) noexcept {
        return {{p[0], p[1], p[2], p[3]}};
    }
    [[nodiscard]] static U64x4 splat(std::uint64_t x) noexcept { return {{x, x, x, x}}; }
    [[nodiscard]] static U64x4 set(std::uint64_t w0, std::uint64_t w1, std::uint64_t w2,
                                   std::uint64_t w3) noexcept {
        return {{w0, w1, w2, w3}};
    }
    [[nodiscard]] static U64x4 load_u32(const std::uint32_t* p) noexcept {
        return {{p[0], p[1], p[2], p[3]}};
    }
    void store(std::uint64_t* p) const noexcept {
        for (int i = 0; i < 4; ++i) p[i] = l[i];
    }
    /// Through memcpy: the bytes may belong to objects of any type.
    [[nodiscard]] static U64x4 load_bytes(const void* p) noexcept {
        U64x4 r;
        std::memcpy(r.l, p, sizeof r.l);
        return r;
    }
    void store_bytes(void* p) const noexcept { std::memcpy(p, l, sizeof l); }
};

[[nodiscard]] inline U64x4 add(U64x4 a, U64x4 b) noexcept {
    return {{a.l[0] + b.l[0], a.l[1] + b.l[1], a.l[2] + b.l[2], a.l[3] + b.l[3]}};
}
[[nodiscard]] inline U64x4 bit_and(U64x4 a, U64x4 b) noexcept {
    return {{a.l[0] & b.l[0], a.l[1] & b.l[1], a.l[2] & b.l[2], a.l[3] & b.l[3]}};
}
[[nodiscard]] inline U64x4 bit_or(U64x4 a, U64x4 b) noexcept {
    return {{a.l[0] | b.l[0], a.l[1] | b.l[1], a.l[2] | b.l[2], a.l[3] | b.l[3]}};
}
[[nodiscard]] inline U64x4 and_not(U64x4 a, U64x4 b) noexcept {
    return {{a.l[0] & ~b.l[0], a.l[1] & ~b.l[1], a.l[2] & ~b.l[2], a.l[3] & ~b.l[3]}};
}
[[nodiscard]] inline U64x4 cmpeq(U64x4 a, U64x4 b) noexcept {
    U64x4 r;
    for (int i = 0; i < 4; ++i) r.l[i] = a.l[i] == b.l[i] ? ~std::uint64_t{0} : 0;
    return r;
}
template <int N>
[[nodiscard]] inline U64x4 shift_left(U64x4 a) noexcept {
    return {{a.l[0] << N, a.l[1] << N, a.l[2] << N, a.l[3] << N}};
}
template <int N>
[[nodiscard]] inline U64x4 shift_right(U64x4 a) noexcept {
    return {{a.l[0] >> N, a.l[1] >> N, a.l[2] >> N, a.l[3] >> N}};
}
[[nodiscard]] inline bool any(U64x4 a) noexcept {
    return (a.l[0] | a.l[1] | a.l[2] | a.l[3]) != 0;
}
[[nodiscard]] inline U64x4 cmpgt_halves(U64x4 a, U64x4 b) noexcept {
    const auto gt = [](std::uint64_t x, std::uint64_t y, int shift) -> std::uint64_t {
        return static_cast<std::int32_t>(x >> shift) > static_cast<std::int32_t>(y >> shift)
                   ? std::uint64_t{0xFFFFFFFF} << shift
                   : 0;
    };
    U64x4 r;
    for (int i = 0; i < 4; ++i) r.l[i] = gt(a.l[i], b.l[i], 0) | gt(a.l[i], b.l[i], 32);
    return r;
}
[[nodiscard]] inline U64x4 gather(const std::uint64_t* table, U64x4 idx) noexcept {
    return {{table[idx.l[0]], table[idx.l[1]], table[idx.l[2]], table[idx.l[3]]}};
}
[[nodiscard]] inline U64x4 gather_bytes(const std::uint8_t* base, U64x4 offsets) noexcept {
    U64x4 r;
    for (int i = 0; i < 4; ++i) {
        const auto* p = base + offsets.l[i];
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(&r.l[i], p, sizeof r.l[i]);
        } else {
            r.l[i] = 0;
            for (int b = 0; b < 8; ++b) r.l[i] |= std::uint64_t{p[b]} << (8 * b);
        }
    }
    return r;
}
[[nodiscard]] inline U64x4 shift_right(U64x4 a, U64x4 counts) noexcept {
    return {{a.l[0] >> counts.l[0], a.l[1] >> counts.l[1], a.l[2] >> counts.l[2],
             a.l[3] >> counts.l[3]}};
}
[[nodiscard]] inline unsigned nonzero_mask(U64x4 a) noexcept {
    unsigned m = 0;
    for (int i = 0; i < 4; ++i) m |= static_cast<unsigned>(a.l[i] != 0) << i;
    return m;
}
inline void add_bit_lanes(std::uint64_t bits, std::uint8_t* lanes) noexcept {
    for (int i = 0; i < kBitLanes; ++i) {
        lanes[i] = static_cast<std::uint8_t>(lanes[i] + ((bits >> i) & 1));
    }
}
[[nodiscard]] inline std::uint64_t fold_byte_lanes(std::uint8_t* lanes, std::int32_t* counts,
                                                   std::int32_t target) noexcept {
    std::uint64_t hit = 0;
    for (int i = 0; i < kBitLanes; ++i) {
        counts[i] += lanes[i];
        hit |= std::uint64_t{lanes[i] != 0 && counts[i] == target} << i;
        lanes[i] = 0;
    }
    return hit;
}

#endif

}  // namespace smn::util::simd
