// simd.hpp — fixed-width portable SIMD lanes for the hot kernels.
//
// The walk decode/apply kernels (walk/ensemble.hpp, walk/decode.hpp),
// gossip's row merge (MultiRumorState::merge_row, core/rumor.hpp) and the
// visibility pass's window gather and move tally (graph/visibility.cpp)
// are written once against the two wrapper types below; gossip's
// per-rumor tally (core/gossip.cpp) uses the two byte-lane kernels
// add_bit_lanes and fold_byte_lanes. All of it is compiled against one of
// three backends, selected at CONFIGURE time (never at runtime — a runtime
// dispatch would put an unpredictable branch in loops that run billions of
// times):
//
//  * AVX2   — x86-64 with -mavx2 (cmake/Simd.cmake probes the compiler and
//             adds the flag; the binary then requires an AVX2 host).
//  * NEON   — AArch64 (no extra flags; NEON is baseline on arm64).
//  * scalar — everything else, or any build configured with
//             -DSMN_DISABLE_SIMD=ON. Plain loops over small arrays; the
//             force-scalar CI leg runs the full test suite against it.
//
// Lane widths are fixed at 8×int32 / 4×uint64 on every backend (the NEON
// backend pairs two 128-bit registers) so kernel code never branches on
// width. Masks are carried as lane vectors (all-ones per true lane).
//
// Determinism note: every operation here is exact integer arithmetic —
// identical results on every backend by construction. There is no
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
#elif !defined(SMN_DISABLE_SIMD) && defined(__ARM_NEON) && defined(__aarch64__)
#define SMN_SIMD_NEON 1
#include <arm_neon.h>
#else
#define SMN_SIMD_SCALAR 1
#endif

namespace smn::util::simd {

/// Lanes per I32x8 / U64x4 — fixed on every backend.
inline constexpr int kI32Lanes = 8;
inline constexpr int kU64Lanes = 4;
/// Byte lanes add_bit_lanes / fold_byte_lanes touch: one per bit of a word.
inline constexpr int kBitLanes = 64;

#if defined(SMN_SIMD_AVX2)

// ------------------------------------------------------------- AVX2 backend

/// Eight int32 lanes.
struct I32x8 {
    __m256i v;

    [[nodiscard]] static I32x8 load(const std::int32_t* p) noexcept {
        return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
    }
    [[nodiscard]] static I32x8 splat(std::int32_t x) noexcept { return {_mm256_set1_epi32(x)}; }
    void store(std::int32_t* p) const noexcept {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
    }
};

[[nodiscard]] inline I32x8 add(I32x8 a, I32x8 b) noexcept {
    return {_mm256_add_epi32(a.v, b.v)};
}
[[nodiscard]] inline I32x8 bit_and(I32x8 a, I32x8 b) noexcept {
    return {_mm256_and_si256(a.v, b.v)};
}
[[nodiscard]] inline I32x8 bit_or(I32x8 a, I32x8 b) noexcept {
    return {_mm256_or_si256(a.v, b.v)};
}
/// Per-lane a > b (signed): all-ones lane when true.
[[nodiscard]] inline I32x8 cmpgt(I32x8 a, I32x8 b) noexcept {
    return {_mm256_cmpgt_epi32(a.v, b.v)};
}
template <int N>
[[nodiscard]] inline I32x8 shift_left(I32x8 a) noexcept {
    return {_mm256_slli_epi32(a.v, N)};
}
template <int N>
[[nodiscard]] inline I32x8 shift_right_arith(I32x8 a) noexcept {
    return {_mm256_srai_epi32(a.v, N)};
}
/// table[idx[lane]] for each lane (table entries int32).
[[nodiscard]] inline I32x8 gather(const std::int32_t* table, I32x8 idx) noexcept {
    return {_mm256_i32gather_epi32(table, idx.v, 4)};
}
/// Stores the 16 values a0,b0,a1,b1,…,a7,b7 at dst (AoS pair mirror).
inline void store_interleaved(std::int32_t* dst, I32x8 a, I32x8 b) noexcept {
    const __m256i lo = _mm256_unpacklo_epi32(a.v, b.v);  // a0 b0 a1 b1 | a4 b4 a5 b5
    const __m256i hi = _mm256_unpackhi_epi32(a.v, b.v);  // a2 b2 a3 b3 | a6 b6 a7 b7
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), _mm256_permute2x128_si256(lo, hi, 0x20));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 8),
                        _mm256_permute2x128_si256(lo, hi, 0x31));
}

/// Four uint64 lanes.
struct U64x4 {
    __m256i v;

    [[nodiscard]] static U64x4 load(const std::uint64_t* p) noexcept {
        return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
    }
    [[nodiscard]] static U64x4 splat(std::uint64_t x) noexcept {
        return {_mm256_set1_epi64x(static_cast<long long>(x))};
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
/// Stores the low 32 bits of each lane as 4 consecutive int32 at dst.
inline void store_narrow(std::int32_t* dst, U64x4 a) noexcept {
    const __m256i shuffled =
        _mm256_permutevar8x32_epi32(a.v, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), _mm256_castsi256_si128(shuffled));
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

#elif defined(SMN_SIMD_NEON)

// ------------------------------------------------------------- NEON backend
// 128-bit registers paired to keep the 8×int32 / 4×uint64 shape.

struct I32x8 {
    int32x4_t lo;
    int32x4_t hi;

    [[nodiscard]] static I32x8 load(const std::int32_t* p) noexcept {
        return {vld1q_s32(p), vld1q_s32(p + 4)};
    }
    [[nodiscard]] static I32x8 splat(std::int32_t x) noexcept {
        return {vdupq_n_s32(x), vdupq_n_s32(x)};
    }
    void store(std::int32_t* p) const noexcept {
        vst1q_s32(p, lo);
        vst1q_s32(p + 4, hi);
    }
};

[[nodiscard]] inline I32x8 add(I32x8 a, I32x8 b) noexcept {
    return {vaddq_s32(a.lo, b.lo), vaddq_s32(a.hi, b.hi)};
}
[[nodiscard]] inline I32x8 bit_and(I32x8 a, I32x8 b) noexcept {
    return {vandq_s32(a.lo, b.lo), vandq_s32(a.hi, b.hi)};
}
[[nodiscard]] inline I32x8 bit_or(I32x8 a, I32x8 b) noexcept {
    return {vorrq_s32(a.lo, b.lo), vorrq_s32(a.hi, b.hi)};
}
[[nodiscard]] inline I32x8 cmpgt(I32x8 a, I32x8 b) noexcept {
    return {vreinterpretq_s32_u32(vcgtq_s32(a.lo, b.lo)),
            vreinterpretq_s32_u32(vcgtq_s32(a.hi, b.hi))};
}
template <int N>
[[nodiscard]] inline I32x8 shift_left(I32x8 a) noexcept {
    return {vshlq_n_s32(a.lo, N), vshlq_n_s32(a.hi, N)};
}
template <int N>
[[nodiscard]] inline I32x8 shift_right_arith(I32x8 a) noexcept {
    return {vshrq_n_s32(a.lo, N), vshrq_n_s32(a.hi, N)};
}
[[nodiscard]] inline I32x8 gather(const std::int32_t* table, I32x8 idx) noexcept {
    std::int32_t is[8];
    idx.store(is);
    const std::int32_t g[8] = {table[is[0]], table[is[1]], table[is[2]], table[is[3]],
                               table[is[4]], table[is[5]], table[is[6]], table[is[7]]};
    return I32x8::load(g);
}
inline void store_interleaved(std::int32_t* dst, I32x8 a, I32x8 b) noexcept {
    int32x4x2_t lo{{a.lo, b.lo}};
    int32x4x2_t hi{{a.hi, b.hi}};
    vst2q_s32(dst, lo);
    vst2q_s32(dst + 8, hi);
}

struct U64x4 {
    uint64x2_t lo;
    uint64x2_t hi;

    [[nodiscard]] static U64x4 load(const std::uint64_t* p) noexcept {
        return {vld1q_u64(p), vld1q_u64(p + 2)};
    }
    [[nodiscard]] static U64x4 splat(std::uint64_t x) noexcept {
        return {vdupq_n_u64(x), vdupq_n_u64(x)};
    }
    void store(std::uint64_t* p) const noexcept {
        vst1q_u64(p, lo);
        vst1q_u64(p + 2, hi);
    }
    [[nodiscard]] static U64x4 load_bytes(const void* p) noexcept {
        const auto* b = static_cast<const std::uint8_t*>(p);
        return {vreinterpretq_u64_u8(vld1q_u8(b)), vreinterpretq_u64_u8(vld1q_u8(b + 16))};
    }
    void store_bytes(void* p) const noexcept {
        auto* b = static_cast<std::uint8_t*>(p);
        vst1q_u8(b, vreinterpretq_u8_u64(lo));
        vst1q_u8(b + 16, vreinterpretq_u8_u64(hi));
    }
};

[[nodiscard]] inline U64x4 add(U64x4 a, U64x4 b) noexcept {
    return {vaddq_u64(a.lo, b.lo), vaddq_u64(a.hi, b.hi)};
}
[[nodiscard]] inline U64x4 bit_and(U64x4 a, U64x4 b) noexcept {
    return {vandq_u64(a.lo, b.lo), vandq_u64(a.hi, b.hi)};
}
[[nodiscard]] inline U64x4 bit_or(U64x4 a, U64x4 b) noexcept {
    return {vorrq_u64(a.lo, b.lo), vorrq_u64(a.hi, b.hi)};
}
[[nodiscard]] inline U64x4 and_not(U64x4 a, U64x4 b) noexcept {
    return {vbicq_u64(a.lo, b.lo), vbicq_u64(a.hi, b.hi)};
}
[[nodiscard]] inline U64x4 cmpeq(U64x4 a, U64x4 b) noexcept {
    return {vceqq_u64(a.lo, b.lo), vceqq_u64(a.hi, b.hi)};
}
template <int N>
[[nodiscard]] inline U64x4 shift_left(U64x4 a) noexcept {
    return {vshlq_n_u64(a.lo, N), vshlq_n_u64(a.hi, N)};
}
template <int N>
[[nodiscard]] inline U64x4 shift_right(U64x4 a) noexcept {
    return {vshrq_n_u64(a.lo, N), vshrq_n_u64(a.hi, N)};
}
[[nodiscard]] inline bool any(U64x4 a) noexcept {
    return (vgetq_lane_u64(vorrq_u64(a.lo, a.hi), 0) |
            vgetq_lane_u64(vorrq_u64(a.lo, a.hi), 1)) != 0;
}
inline void store_narrow(std::int32_t* dst, U64x4 a) noexcept {
    const uint32x4_t narrow = vcombine_u32(vmovn_u64(a.lo), vmovn_u64(a.hi));
    vst1q_s32(dst, vreinterpretq_s32_u32(narrow));
}
[[nodiscard]] inline U64x4 gather_bytes(const std::uint8_t* base, U64x4 offsets) noexcept {
    std::uint64_t at[4];
    offsets.store(at);
    std::uint64_t w[4];
    for (int i = 0; i < 4; ++i) std::memcpy(&w[i], base + at[i], sizeof w[i]);  // AArch64 is LE
    return U64x4::load(w);
}
/// USHL shifts left by a signed count, so a negated count shifts right.
[[nodiscard]] inline U64x4 shift_right(U64x4 a, U64x4 counts) noexcept {
    return {vshlq_u64(a.lo, vnegq_s64(vreinterpretq_s64_u64(counts.lo))),
            vshlq_u64(a.hi, vnegq_s64(vreinterpretq_s64_u64(counts.hi)))};
}
[[nodiscard]] inline unsigned nonzero_mask(U64x4 a) noexcept {
    return static_cast<unsigned>(vgetq_lane_u64(a.lo, 0) != 0) |
           static_cast<unsigned>(vgetq_lane_u64(a.lo, 1) != 0) << 1 |
           static_cast<unsigned>(vgetq_lane_u64(a.hi, 0) != 0) << 2 |
           static_cast<unsigned>(vgetq_lane_u64(a.hi, 1) != 0) << 3;
}
/// 16 lanes per chunk: the low 8 take source byte 2c, the high 8 byte
/// 2c + 1; VTST turns each selected bit into an all-ones byte.
inline void add_bit_lanes(std::uint64_t bits, std::uint8_t* lanes) noexcept {
    const uint8x16_t bit = vreinterpretq_u8_u64(vdupq_n_u64(0x8040201008040201ULL));
    for (int c = 0; c < 4; ++c) {
        const uint8x16_t spread =
            vcombine_u8(vdup_n_u8(static_cast<std::uint8_t>(bits >> (16 * c))),
                        vdup_n_u8(static_cast<std::uint8_t>(bits >> (16 * c + 8))));
        auto* p = lanes + 16 * c;
        vst1q_u8(p, vsubq_u8(vld1q_u8(p), vtstq_u8(spread, bit)));
    }
}
[[nodiscard]] inline std::uint64_t fold_byte_lanes(std::uint8_t* lanes, std::int32_t* counts,
                                                   std::int32_t target) noexcept {
    const int32x4_t want = vdupq_n_s32(target);
    const std::uint32_t weight_bits[4] = {1, 2, 4, 8};
    const uint32x4_t weight = vld1q_u32(weight_bits);
    std::uint64_t hit = 0;
    for (int c = 0; c < 4; ++c) {
        const uint8x16_t d8 = vld1q_u8(lanes + 16 * c);
        const uint16x8_t d16[2] = {vmovl_u8(vget_low_u8(d8)), vmovl_u8(vget_high_u8(d8))};
        for (int q = 0; q < 4; ++q) {
            const uint16x8_t wide = d16[q / 2];
            const uint32x4_t delta =
                q % 2 == 0 ? vmovl_u16(vget_low_u16(wide)) : vmovl_u16(vget_high_u16(wide));
            auto* cp = counts + 16 * c + 4 * q;
            const int32x4_t sum = vaddq_s32(vld1q_s32(cp), vreinterpretq_s32_u32(delta));
            vst1q_s32(cp, sum);
            const uint32x4_t reached = vandq_u32(vceqq_s32(sum, want), vtstq_u32(delta, delta));
            hit |= std::uint64_t{vaddvq_u32(vandq_u32(reached, weight))} << (16 * c + 4 * q);
        }
        vst1q_u8(lanes + 16 * c, vdupq_n_u8(0));
    }
    return hit;
}

#else

// ----------------------------------------------------------- scalar backend
// Plain loops; gcc/clang auto-vectorize most of them at -O2, and the
// force-scalar CI leg keeps this path green under ASan/UBSan.

struct I32x8 {
    std::int32_t l[8];

    [[nodiscard]] static I32x8 load(const std::int32_t* p) noexcept {
        I32x8 r;
        for (int i = 0; i < 8; ++i) r.l[i] = p[i];
        return r;
    }
    [[nodiscard]] static I32x8 splat(std::int32_t x) noexcept {
        I32x8 r;
        for (auto& v : r.l) v = x;
        return r;
    }
    void store(std::int32_t* p) const noexcept {
        for (int i = 0; i < 8; ++i) p[i] = l[i];
    }
};

namespace detail {
template <typename Fn>
[[nodiscard]] inline I32x8 map8(I32x8 a, I32x8 b, Fn&& fn) noexcept {
    I32x8 r;
    for (int i = 0; i < 8; ++i) r.l[i] = fn(a.l[i], b.l[i]);
    return r;
}
}  // namespace detail

[[nodiscard]] inline I32x8 add(I32x8 a, I32x8 b) noexcept {
    return detail::map8(a, b, [](std::int32_t x, std::int32_t y) {
        return static_cast<std::int32_t>(static_cast<std::uint32_t>(x) +
                                         static_cast<std::uint32_t>(y));
    });
}
[[nodiscard]] inline I32x8 bit_and(I32x8 a, I32x8 b) noexcept {
    return detail::map8(a, b, [](std::int32_t x, std::int32_t y) { return x & y; });
}
[[nodiscard]] inline I32x8 bit_or(I32x8 a, I32x8 b) noexcept {
    return detail::map8(a, b, [](std::int32_t x, std::int32_t y) { return x | y; });
}
[[nodiscard]] inline I32x8 cmpgt(I32x8 a, I32x8 b) noexcept {
    return detail::map8(a, b, [](std::int32_t x, std::int32_t y) { return x > y ? -1 : 0; });
}
template <int N>
[[nodiscard]] inline I32x8 shift_left(I32x8 a) noexcept {
    I32x8 r;
    for (int i = 0; i < 8; ++i) {
        r.l[i] = static_cast<std::int32_t>(static_cast<std::uint32_t>(a.l[i]) << N);
    }
    return r;
}
template <int N>
[[nodiscard]] inline I32x8 shift_right_arith(I32x8 a) noexcept {
    I32x8 r;
    for (int i = 0; i < 8; ++i) r.l[i] = a.l[i] >> N;
    return r;
}
[[nodiscard]] inline I32x8 gather(const std::int32_t* table, I32x8 idx) noexcept {
    I32x8 r;
    for (int i = 0; i < 8; ++i) r.l[i] = table[idx.l[i]];
    return r;
}
inline void store_interleaved(std::int32_t* dst, I32x8 a, I32x8 b) noexcept {
    for (int i = 0; i < 8; ++i) {
        dst[2 * i] = a.l[i];
        dst[2 * i + 1] = b.l[i];
    }
}

struct U64x4 {
    std::uint64_t l[4];

    [[nodiscard]] static U64x4 load(const std::uint64_t* p) noexcept {
        return {{p[0], p[1], p[2], p[3]}};
    }
    [[nodiscard]] static U64x4 splat(std::uint64_t x) noexcept { return {{x, x, x, x}}; }
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
inline void store_narrow(std::int32_t* dst, U64x4 a) noexcept {
    for (int i = 0; i < 4; ++i) dst[i] = static_cast<std::int32_t>(a.l[i] & 0xFFFFFFFFu);
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
