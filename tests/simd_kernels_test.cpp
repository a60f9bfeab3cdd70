// simd_kernels_test — bit-identity of the vectorized kernels vs their
// scalar references.
//
// The walk's hot loops are vectorized behind util/simd.hpp under a hard
// contract: every SIMD kernel is an observable no-op relative to its
// scalar reference — same draws, same rejection decisions. These suites diff the two
// implementations directly, in-process, on whatever backend this build
// selected; the CI force-scalar leg (-DSMN_DISABLE_SIMD=ON) then replays
// the same suites plus the golden captures with the reference backend, so
// both sides of every comparison get exercised as "the" implementation.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <climits>
#include <cstdint>
#include <vector>

#include "grid/grid.hpp"
#include "grid/point.hpp"
#include "rng/rng.hpp"
#include "util/simd.hpp"
#include "walk/decode.hpp"
#include "walk/ensemble.hpp"
#include "walk/step.hpp"

namespace {

using namespace smn;
using grid::Grid2D;
using grid::Metric;
using grid::Point;

// --------------------------------------------------------------- U64x4 ops

TEST(U64Lanes, RowMergeOpsMatchScalar) {
    // The ops of MultiRumorState::merge_row: load, a & ~b, a | b, store.
    namespace simd = util::simd;
    rng::Rng rng{31};
    for (int it = 0; it < 64; ++it) {
        std::array<std::uint64_t, simd::kU64Lanes> a{};
        std::array<std::uint64_t, simd::kU64Lanes> b{};
        for (auto& x : a) x = rng.next_u64();
        // Odd rounds: b covers a, so a & ~b is all zero.
        for (std::size_t i = 0; i < b.size(); ++i) b[i] = rng.next_u64() | (it % 2 == 1 ? a[i] : 0);
        const auto va = simd::U64x4::load(a.data());
        const auto vb = simd::U64x4::load(b.data());
        std::array<std::uint64_t, simd::kU64Lanes> and_not{};
        std::array<std::uint64_t, simd::kU64Lanes> bit_or{};
        simd::and_not(va, vb).store(and_not.data());
        simd::bit_or(va, vb).store(bit_or.data());
        std::uint64_t any = 0;
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(and_not[i], a[i] & ~b[i]);
            EXPECT_EQ(bit_or[i], a[i] | b[i]);
            any |= a[i] & ~b[i];
        }
        EXPECT_EQ(simd::any(simd::and_not(va, vb)), any != 0);
        EXPECT_EQ(any == 0, it % 2 == 1);
    }
}

// The ops of the visibility pass's window gather: a byte-offset load, a
// per-lane right shift and the nonzero-lane mask, each against a scalar
// reference. The buffer mimics the occupancy bitmap's tail: the last load
// a window can make starts 8 bytes before the end.
std::uint64_t load_le(const std::uint8_t* p) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
    return v;
}

TEST(U64Lanes, GatherBytesMatchesLittleEndianLoads) {
    namespace simd = util::simd;
    rng::Rng rng{41};
    std::vector<std::uint8_t> bytes(67);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto last = bytes.size() - 8;
    for (int it = 0; it < 256; ++it) {
        std::array<std::uint64_t, simd::kU64Lanes> at{};
        for (std::size_t i = 0; i < at.size(); ++i) {
            // Every fourth round pins the lanes to the last loadable bytes.
            at[i] = it % 4 == 0 ? last - i : rng.next_u64() % (last + 1);
        }
        std::array<std::uint64_t, simd::kU64Lanes> got{};
        simd::gather_bytes(bytes.data(), simd::U64x4::load(at.data())).store(got.data());
        for (std::size_t i = 0; i < at.size(); ++i) {
            EXPECT_EQ(got[i], load_le(bytes.data() + at[i])) << "offset " << at[i];
        }
    }
}

TEST(U64Lanes, VariableShiftRightMatchesScalar) {
    namespace simd = util::simd;
    rng::Rng rng{43};
    // Counts 0..7 (a bit within its byte) in every lane position, then
    // counts up to 63.
    for (std::uint64_t count = 0; count < 64; ++count) {
        std::array<std::uint64_t, simd::kU64Lanes> a{};
        std::array<std::uint64_t, simd::kU64Lanes> n{};
        for (std::size_t i = 0; i < a.size(); ++i) {
            a[i] = rng.next_u64();
            n[i] = count < 8 ? (count + i) % 8 : count;
        }
        std::array<std::uint64_t, simd::kU64Lanes> got{};
        simd::shift_right(simd::U64x4::load(a.data()), simd::U64x4::load(n.data())).store(got.data());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(got[i], a[i] >> n[i]) << "count " << n[i];
        }
    }
}

TEST(U64Lanes, NonzeroMaskMatchesScalar) {
    namespace simd = util::simd;
    rng::Rng rng{47};
    for (unsigned pattern = 0; pattern < 16; ++pattern) {
        for (int it = 0; it < 8; ++it) {
            std::array<std::uint64_t, simd::kU64Lanes> a{};
            for (std::size_t i = 0; i < a.size(); ++i) {
                // A nonzero lane holds one random bit, the top one included.
                a[i] = (pattern >> i & 1u) != 0 ? std::uint64_t{1} << (rng.next_u64() % 64) : 0;
            }
            EXPECT_EQ(simd::nonzero_mask(simd::U64x4::load(a.data())), pattern);
        }
    }
}

// The walk kernel's lane assembly: set() takes four values in lane order.
TEST(U64Lanes, SetKeepsLaneOrder) {
    namespace simd = util::simd;
    rng::Rng rng{59};
    for (int it = 0; it < 64; ++it) {
        std::array<std::uint64_t, 2 * simd::kU64Lanes> w{};
        for (auto& x : w) x = it == 0 ? ~std::uint64_t{0} : rng.next_u64();
        std::array<std::uint64_t, 2 * simd::kU64Lanes> got{};
        simd::U64x4::set(w[0], w[1], w[2], w[3]).store(got.data());
        simd::U64x4::set(w[4], w[5], w[6], w[7]).store(got.data() + simd::kU64Lanes);
        for (std::size_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], w[i]) << "lane " << i;
    }
}

/// Reference cmpgt_halves: per 32-bit half, signed a > b sets the half.
std::uint64_t cmpgt_halves_ref(std::uint64_t a, std::uint64_t b) {
    std::uint64_t r = 0;
    for (const int shift : {0, 32}) {
        if (static_cast<std::int32_t>(a >> shift) > static_cast<std::int32_t>(b >> shift)) {
            r |= std::uint64_t{0xFFFFFFFF} << shift;
        }
    }
    return r;
}

// The walk's boundary compares: each half compares as a signed int32, on
// its own. Every pair of INT32_MIN, −1, 0, 1 and INT32_MAX in each half
// (the two halves of one lane disagree in most rounds), then random words.
TEST(U64Lanes, CmpgtHalvesComparesEachSignedHalf) {
    namespace simd = util::simd;
    constexpr std::array<std::int32_t, 5> kEdges{INT32_MIN, -1, 0, 1, INT32_MAX};
    const auto word = [](std::int32_t lo, std::int32_t hi) {
        return std::uint64_t{static_cast<std::uint32_t>(lo)} |
               std::uint64_t{static_cast<std::uint32_t>(hi)} << 32;
    };
    std::vector<std::uint64_t> a;
    std::vector<std::uint64_t> b;
    for (const auto alo : kEdges) {
        for (const auto ahi : kEdges) {
            for (const auto blo : kEdges) {
                for (const auto bhi : kEdges) {
                    a.push_back(word(alo, ahi));
                    b.push_back(word(blo, bhi));
                }
            }
        }
    }
    rng::Rng rng{61};
    while (a.size() % simd::kU64Lanes != 0 || a.size() < 1024) {
        a.push_back(rng.next_u64());
        // Every other random lane shares one half with a.
        const auto r = rng.next_u64();
        b.push_back(a.size() % 2 == 0 ? r : (r & ~std::uint64_t{0xFFFFFFFF}) | (a.back() & 0xFFFFFFFF));
    }
    for (std::size_t c = 0; c < a.size(); c += simd::kU64Lanes) {
        std::array<std::uint64_t, simd::kU64Lanes> got{};
        simd::cmpgt_halves(simd::U64x4::load(a.data() + c), simd::U64x4::load(b.data() + c))
            .store(got.data());
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i], cmpgt_halves_ref(a[c + i], b[c + i]))
                << std::hex << a[c + i] << " > " << b[c + i];
        }
    }
}

// The walk's step-table fetch: gather reads whole uint64 entries (scale 8),
// at the first, last and random indices of a table the step table's size.
TEST(U64Lanes, GatherReadsWholeEntries) {
    namespace simd = util::simd;
    rng::Rng rng{67};
    std::array<std::uint64_t, 16 * 5> table{};
    for (auto& x : table) x = rng.next_u64();
    for (int it = 0; it < 256; ++it) {
        std::array<std::uint64_t, simd::kU64Lanes> idx{};
        for (std::size_t i = 0; i < idx.size(); ++i) {
            idx[i] = it == 0 ? 0 : it == 1 ? table.size() - 1 - i : rng.below(table.size());
        }
        std::array<std::uint64_t, simd::kU64Lanes> got{};
        simd::gather(table.data(), simd::U64x4::load(idx.data())).store(got.data());
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i], table[idx[i]]) << "index " << idx[i];
        }
    }
}

// step_subset's draw row: load_u32 zero-extends (the top bit set included)
// and reads from any 4-byte-aligned start.
TEST(U64Lanes, LoadU32ZeroExtends) {
    namespace simd = util::simd;
    rng::Rng rng{71};
    std::vector<std::uint32_t> row{0xFFFFFFFFu, 0x80000000u, 0, 0x7FFFFFFFu, 4};
    while (row.size() < 64) row.push_back(static_cast<std::uint32_t>(rng.next_u64()));
    for (std::size_t start = 0; start + simd::kU64Lanes <= row.size(); ++start) {
        std::array<std::uint64_t, simd::kU64Lanes> got{};
        simd::U64x4::load_u32(row.data() + start).store(got.data());
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i], std::uint64_t{row[start + i]}) << "start " << start;
        }
    }
}

// The move tally's raw lanes: load_bytes reads four Points as one vector
// (one Point per lane, from any 4-byte-aligned start), cmpeq marks exactly
// the equal Points, and store_bytes writes them back unchanged.
TEST(U64Lanes, LoadBytesStoreBytesMovePointsAsLanes) {
    namespace simd = util::simd;
    rng::Rng rng{53};
    // Coordinates in {-1, 0, 1} × {0, 1, 2}: about one lane in nine equal.
    const auto random_point = [&rng] {
        return Point{static_cast<grid::Coord>(rng.below(3)) - 1,
                     static_cast<grid::Coord>(rng.below(3))};
    };
    std::vector<Point> now(13);
    for (auto& p : now) p = random_point();
    std::vector<Point> before(now.size());
    for (std::size_t start = 0; start + simd::kU64Lanes <= now.size(); ++start) {
        for (auto& p : before) p = random_point();
        const auto lanes = simd::U64x4::load_bytes(now.data() + start);
        const auto equal = simd::cmpeq(lanes, simd::U64x4::load_bytes(before.data() + start));
        unsigned want = 0;
        for (std::size_t i = 0; i < simd::kU64Lanes; ++i) {
            want |= static_cast<unsigned>(now[start + i] == before[start + i]) << i;
        }
        EXPECT_EQ(simd::nonzero_mask(equal), want) << "start " << start;
        lanes.store_bytes(before.data() + start);
        for (std::size_t i = 0; i < simd::kU64Lanes; ++i) {
            EXPECT_EQ(before[start + i], now[start + i]) << "start " << start;
        }
    }
}

// ------------------------------------------------------- gossip's byte lanes

// The tally of GossipExchange::run: add_bit_lanes adds one per set bit to
// 64 byte lanes (mod 256), fold_byte_lanes widens them into int32 counts.
// The buffers sit one byte/int past an aligned start, as the kernels make
// unaligned accesses.

TEST(BitLanes, AddBitLanesMatchesScalar) {
    namespace simd = util::simd;
    constexpr auto kLanes = static_cast<std::size_t>(simd::kBitLanes);
    rng::Rng rng{53};
    std::vector<std::uint8_t> buffer(kLanes + 1);
    auto* lanes = buffer.data() + 1;
    std::array<std::uint8_t, kLanes> want{};
    for (std::size_t i = 0; i < kLanes; ++i) {
        lanes[i] = want[i] = static_cast<std::uint8_t>(rng.next_u64());
    }
    for (int it = 0; it < 600; ++it) {
        // Single bits (every position, the top one included), all ones
        // (600 rounds wrap every lane), zero and random words.
        const std::uint64_t bits = it < 64 ? std::uint64_t{1} << it
                                   : it % 3 == 0 ? ~std::uint64_t{0}
                                   : it % 7 == 0 ? 0
                                                 : rng.next_u64();
        simd::add_bit_lanes(bits, lanes);
        for (std::size_t i = 0; i < kLanes; ++i) {
            want[i] = static_cast<std::uint8_t>(want[i] + ((bits >> i) & 1));
            ASSERT_EQ(lanes[i], want[i]) << "round " << it << ", lane " << i;
        }
    }
    EXPECT_EQ(buffer[0], 0);  // nothing written before the lanes
}

TEST(BitLanes, FoldByteLanesMatchesScalar) {
    namespace simd = util::simd;
    constexpr auto kLanes = static_cast<std::size_t>(simd::kBitLanes);
    constexpr std::int32_t kTarget = 1000;
    rng::Rng rng{59};
    std::vector<std::uint8_t> lane_buffer(kLanes + 1);
    std::vector<std::int32_t> count_buffer(kLanes + 1);
    auto* lanes = lane_buffer.data() + 1;
    auto* counts = count_buffer.data() + 1;
    for (int it = 0; it < 256; ++it) {
        std::array<std::int32_t, kLanes> want{};
        std::uint64_t want_hit = 0;
        for (std::size_t i = 0; i < kLanes; ++i) {
            // Deltas 0, 1, 255 or random; counts that land exactly on the
            // target (with and without a delta), above it, and below it.
            const auto r = rng.next_u64();
            const auto delta = static_cast<std::uint8_t>(r % 4 == 0   ? 0
                                                         : r % 4 == 1 ? 1
                                                         : r % 4 == 2 ? 255
                                                                      : r >> 8);
            const auto spread = static_cast<std::int32_t>((r >> 24) % 600);
            const std::int32_t end = (r >> 16) % 3 == 0 ? kTarget : kTarget - 300 + spread;
            lanes[i] = delta;
            counts[i] = end - delta;
            want[i] = end;
            if (delta != 0 && end == kTarget) want_hit |= std::uint64_t{1} << i;
        }
        EXPECT_EQ(simd::fold_byte_lanes(lanes, counts, kTarget), want_hit) << "round " << it;
        for (std::size_t i = 0; i < kLanes; ++i) {
            ASSERT_EQ(counts[i], want[i]) << "round " << it << ", lane " << i;
            ASSERT_EQ(lanes[i], 0) << "round " << it << ", lane " << i;
        }
    }
    EXPECT_EQ(lane_buffer[0], 0);
    EXPECT_EQ(count_buffer[0], 0);
}

// ------------------------------------------------------ lazy-paper decode

// The walk kernel's decode: scramble() and draw5() on U64x4 lanes, and
// next_words4(), which feeds them engine words that never leave registers.

/// The vector scrambler matches Rng::next_u64() lane for lane: the state
/// word s1 is the one next_u64() scrambles, so an engine started at
/// {·, w, ·, ·} returns scramble(w) first. Random words, then the words 0,
/// 1, 2^63 and 2^64 − 1; and next_words4() against four next_u64() calls.
TEST(DecodeDraws5, ScramblerMatchesNextU64) {
    namespace simd = util::simd;
    rng::Rng rng{2025};
    const auto first_output = [](std::uint64_t s1) {
        return rng::Rng{std::array<std::uint64_t, 4>{1, s1, 2, 3}}.next_u64();
    };
    std::vector<std::array<std::uint64_t, simd::kU64Lanes>> inputs{
        {0, 1, std::uint64_t{1} << 63, ~std::uint64_t{0}}};
    for (int it = 0; it < 64; ++it) {
        std::array<std::uint64_t, simd::kU64Lanes> w{};
        for (auto& x : w) x = rng.next_u64();
        inputs.push_back(w);
    }
    for (const auto& w : inputs) {
        std::array<std::uint64_t, simd::kU64Lanes> got{};
        walk::scramble(simd::U64x4::load(w.data())).store(got.data());
        for (std::size_t i = 0; i < w.size(); ++i) {
            ASSERT_EQ(got[i], first_output(w[i])) << "word " << w[i];
        }
    }
    EXPECT_EQ(first_output(0), 0u);  // the zero word is the zero state word
    for (int it = 0; it < 64; ++it) {
        rng::Rng twin = rng;
        std::array<std::uint64_t, simd::kU64Lanes> got{};
        walk::next_words4(rng).store(got.data());
        for (const auto word : got) ASSERT_EQ(word, twin.next_u64()) << "round " << it;
        ASSERT_EQ(rng.next_u64(), twin.next_u64()) << "round " << it;
    }
}

TEST(DecodeDraws5, MatchesScalarOnRandomWords) {
    // draw5 on the two lane vectors of a chunk against the scalar draw5:
    // random words, then words at the edges of the five draw intervals.
    namespace simd = util::simd;
    rng::Rng rng{2024};
    std::vector<std::uint64_t> words{1, 2, ~std::uint64_t{0}, std::uint64_t{1} << 63};
    for (std::uint64_t d = 1; d < 5; ++d) {
        const auto edge = static_cast<std::uint64_t>((static_cast<__uint128_t>(d) << 64) / 5);
        words.insert(words.end(), {edge - 1, edge, edge + 1, edge + 2});
    }
    while (words.size() < 8 * 64) words.push_back(rng.next_u64());
    for (std::size_t c = 0; c < words.size(); c += 8) {
        const auto lo = simd::U64x4::load(words.data() + c);
        const auto hi = simd::U64x4::load(words.data() + c + 4);
        std::array<std::uint64_t, 8> got{};
        walk::draw5(lo).store(got.data());
        walk::draw5(hi).store(got.data() + 4);
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i], static_cast<std::uint64_t>(walk::draw5(words[c + i])))
                << "word " << words[c + i];
            ASSERT_LT(got[i], 5u);
        }
    }
}

TEST(DecodeDraws5, DrawEqualsLemireHighProduct) {
    // The decode against the definition it replays: draw = hi64(word * 5),
    // which is what Rng::below(5) returns on the same stream.
    namespace simd = util::simd;
    rng::Rng rng{11};
    for (int it = 0; it < 256; ++it) {
        rng::Rng twin = rng;
        std::array<std::uint64_t, simd::kU64Lanes> draws{};
        walk::draw5(walk::next_words4(rng)).store(draws.data());
        for (const auto d : draws) ASSERT_EQ(d, twin.below(5)) << "round " << it;
    }
    for (int it = 0; it < 256; ++it) {
        const auto w = rng.next_u64();
        const auto expected = static_cast<std::int32_t>(
            (static_cast<__uint128_t>(w) * static_cast<__uint128_t>(std::uint64_t{5})) >> 64);
        EXPECT_EQ(walk::draw5(w), expected);
    }
}

// --------------------------------------------------- planted zero words

/// A start state whose output j (0-based) is the zero word, the one word
/// Rng::below(5) rejects. Output j is 0 iff the state word s1 is 0 after j
/// steps (the scrambler is a bijection fixing 0), and the state update is
/// linear over GF(2): s1 after j steps is M·state for a 64×256 bit matrix
/// M. Any nonzero solution of M·state = 0 will do; one is picked at random
/// by giving M's free columns random bits.
std::array<std::uint64_t, 4> state_with_zero_output(std::size_t j, std::uint64_t seed) {
    using Bits = std::array<std::uint64_t, 4>;  // one bit per state bit
    // Column b of M: s1 after j steps from the unit state e_b.
    std::array<std::uint64_t, 256> column{};
    for (std::size_t b = 0; b < 256; ++b) {
        Bits unit{};
        unit[b / 64] = std::uint64_t{1} << (b % 64);
        rng::Rng engine{unit};
        for (std::size_t t = 0; t < j; ++t) (void)engine.next_state_word();
        column[b] = engine.next_state_word();
    }
    std::vector<Bits> rows(64, Bits{});
    for (std::size_t r = 0; r < 64; ++r) {
        for (std::size_t b = 0; b < 256; ++b) {
            rows[r][b / 64] |= ((column[b] >> r) & 1) << (b % 64);
        }
    }
    const auto bit = [](const Bits& v, std::size_t b) { return (v[b / 64] >> (b % 64)) & 1; };
    // Reduced row echelon form.
    std::vector<std::size_t> pivot_of_row;
    std::array<bool, 256> is_pivot{};
    for (std::size_t b = 0, r = 0; b < 256 && r < rows.size(); ++b) {
        std::size_t p = r;
        while (p < rows.size() && bit(rows[p], b) == 0) ++p;
        if (p == rows.size()) continue;
        std::swap(rows[r], rows[p]);
        for (std::size_t q = 0; q < rows.size(); ++q) {
            if (q != r && bit(rows[q], b) != 0) {
                for (std::size_t w = 0; w < 4; ++w) rows[q][w] ^= rows[r][w];
            }
        }
        pivot_of_row.push_back(b);
        is_pivot[b] = true;
        ++r;
    }
    rng::Rng pick{seed};
    Bits state{};
    while (state == Bits{}) {
        for (auto& w : state) w = pick.next_u64();
        for (std::size_t b = 0; b < 256; ++b) {
            if (is_pivot[b]) state[b / 64] &= ~(std::uint64_t{1} << (b % 64));
        }
        // Each pivot bit is the parity of its row over the free bits.
        for (std::size_t r = 0; r < pivot_of_row.size(); ++r) {
            std::uint64_t parity = 0;
            for (std::size_t w = 0; w < 4; ++w) parity ^= rows[r][w] & state[w];
            const auto b = pivot_of_row[r];
            state[b / 64] |= static_cast<std::uint64_t>(std::popcount(parity) & 1) << (b % 64);
        }
    }
    return state;
}

/// An engine whose output j is the zero word, checked.
rng::Rng engine_with_zero_output(std::size_t j) {
    const auto state = state_with_zero_output(j, 1000 + j);
    rng::Rng check{state};
    for (std::size_t t = 0; t < j; ++t) EXPECT_NE(check.next_u64(), 0u) << "output " << t;
    EXPECT_EQ(check.next_u64(), 0u) << "output " << j;
    return rng::Rng{state};
}

/// One planted-zero step of the ensemble against the per-agent reference:
/// the agents flagged in `mask` (all of them for step_all) move, and output
/// j of the step's stream is zero. Positions, the next engine word, and the
/// decode tallies (the zero's block replayed, every other block decoded)
/// must all match, with exactly one word more drawn than agents moved.
void expect_planted_zero_step(const Grid2D& g, const std::vector<Point>& start,
                              const std::vector<std::uint8_t>& mask, bool subset, std::size_t j) {
    walk::AgentEnsemble agents{g, start};
    std::vector<Point> ref = start;
    rng::Rng rng_a = engine_with_zero_output(j);
    rng::Rng rng_b = rng_a;
    std::size_t movers = 0;
    for (const auto m : mask) movers += m != 0;
    ASSERT_LT(j, movers);
    if (subset) {
        agents.step_subset(rng_a, mask);
    } else {
        agents.step_all(rng_a);
    }
    for (std::size_t a = 0; a < ref.size(); ++a) {
        if (mask[a] != 0) ref[a] = walk::step(g, ref[a], rng_b);
    }
    const char* const path = subset ? "step_subset" : "step_all";
    for (std::size_t a = 0; a < ref.size(); ++a) {
        ASSERT_EQ(agents.position(static_cast<walk::AgentId>(a)), ref[a])
            << path << " zero at " << j << ", agent " << a;
    }
    ASSERT_EQ(rng::Rng{rng_a}.next_u64(), rng::Rng{rng_b}.next_u64())
        << path << " zero at " << j;
    rng::Rng drawn = engine_with_zero_output(j);
    for (std::size_t t = 0; t < movers + 1; ++t) (void)drawn.next_u64();
    EXPECT_EQ(rng::Rng{rng_a}.next_u64(), drawn.next_u64()) << path << " zero at " << j;
    const auto blocks = static_cast<std::int64_t>((movers + 1023) / 1024);
    EXPECT_EQ(agents.decode_stats().blocks_scalar, 1) << path << " zero at " << j;
    EXPECT_EQ(agents.decode_stats().blocks_decoded, blocks - 1) << path << " zero at " << j;
}

/// A zero word at every position of an 8-agent chunk and in the agent
/// past it (k = 9: one chunk, one agent below the 8 lanes).
TEST(DecodeDraws5, RejectsZeroWordInEveryPosition) {
    const auto g = Grid2D{5, 4};
    rng::Rng place{3};
    std::vector<Point> start(9);
    for (auto& p : start) p = walk::AgentEnsemble::random_node(g, place);
    const std::vector<std::uint8_t> all(start.size(), 1);
    for (std::size_t j = 0; j < start.size(); ++j) {
        expect_planted_zero_step(g, start, all, false, j);
    }
}

/// The rejection replay at the positions that exercise its cases: chunk
/// position 0 of the first and of a later chunk (nothing, then 16 words
/// to skip), mid-chunk, the first word of the second 1024-agent block, and
/// the agents below the 8 lanes at the end (1500 = 187·8 + 4) — for
/// step_all and, over 1500 movers out of 3000 agents, for step_subset.
TEST(EnsembleSimd, ZeroWordReplaysItsBlockThroughBelow5) {
    const auto g = Grid2D{5, 4};
    rng::Rng place{5};
    std::vector<Point> start(1500);
    for (auto& p : start) p = walk::AgentEnsemble::random_node(g, place);
    const std::vector<std::uint8_t> all(start.size(), 1);
    std::vector<Point> wide(3000);
    for (auto& p : wide) p = walk::AgentEnsemble::random_node(g, place);
    // Half the agents move, in runs of three that straddle the chunks.
    std::vector<std::uint8_t> half(wide.size());
    for (std::size_t a = 0; a < half.size(); ++a) half[a] = (a / 3) % 2 == 0 ? 2 : 0;
    std::size_t movers = 0;
    for (const auto m : half) movers += m != 0;
    ASSERT_EQ(movers, 1500u);
    for (const std::size_t j : {0, 16, 43, 1024, 1497}) {
        expect_planted_zero_step(g, start, all, false, j);
        expect_planted_zero_step(g, wide, half, true, j);
    }
}

// --------------------------------------------------- ensemble vs walk::step

/// Every kStepTableWide entry, added to a Point read as one uint64 (x low,
/// y high), moves it as kStepTable's (dx, dy) does — at coordinates next to
/// 0 and next to INT32_MAX, where a carry between the halves would show.
TEST(EnsembleSimd, WideStepTableMovesPointsLikeStepTable) {
    constexpr std::array<grid::Coord, 4> kCoords{1, 2, 1000, INT32_MAX - 1};
    for (std::size_t i = 0; i < walk::kStepTable.size(); ++i) {
        const auto d = walk::kStepTable[i];
        for (const auto x : kCoords) {
            for (const auto y : kCoords) {
                const auto word = std::bit_cast<std::uint64_t>(Point{x, y});
                ASSERT_EQ(std::bit_cast<Point>(word + walk::kStepTableWide[i]),
                          (Point{x + d.dx, y + d.dy}))
                    << "entry " << i;
            }
        }
    }
}

/// The batched ensemble kernel must consume the engine RNG stream exactly
/// like the per-agent reference: one below(5) per stepping agent, agent
/// order, Lemire rejections included. Boundary-heavy grids exercise every
/// direction-mask lane shape, and the non-square ones tell x's limit from
/// y's; k runs a lone agent, agents below the 8 lanes only, whole chunks,
/// and a second 1024-agent block with 4 agents past its last chunk.
TEST(EnsembleSimd, StepAllMatchesPerAgentReferenceOnBoundaryHeavyGrid) {
    const std::array<Grid2D, 3> grids{Grid2D{5, 4}, Grid2D{1, 7}, Grid2D{7, 1}};
    for (const auto& g : grids) {
        for (const std::int32_t k : {1, 7, 64, 1500}) {
            const auto where = ::testing::Message()
                               << g.width() << "x" << g.height() << " k=" << k;
            rng::Rng rng_a{77};
            rng::Rng rng_b{77};
            walk::AgentEnsemble agents{g, k, rng_a};
            {
                walk::AgentEnsemble twin{g, k, rng_b};  // consume placement draws
                for (std::int32_t i = 0; i < k; ++i) {
                    ASSERT_EQ(agents.position(i), twin.position(i));
                }
            }
            std::vector<Point> ref(agents.positions().begin(), agents.positions().end());
            constexpr int kSteps = 200;
            for (int t = 0; t < kSteps; ++t) {
                agents.step_all(rng_a);
                for (auto& p : ref) p = walk::step(g, p, rng_b);
                for (std::int32_t i = 0; i < k; ++i) {
                    ASSERT_EQ(agents.position(i), ref[static_cast<std::size_t>(i)])
                        << where << " t=" << t << " agent=" << i;
                }
                ASSERT_EQ(rng::Rng{rng_a}.next_u64(), rng::Rng{rng_b}.next_u64())
                    << where << " t=" << t;
            }
            EXPECT_EQ(agents.decode_stats().blocks_decoded, kSteps * ((k + 1023) / 1024))
                << where;
            EXPECT_EQ(agents.decode_stats().blocks_scalar, 0) << where;
        }
    }
}

/// step_subset against the per-agent reference, which steps exactly the
/// masked agents in agent order. The mask changes every step, with
/// all-frozen and all-moving steps and nonzero values other than 1; k is 1,
/// off the 8-lane width (7), and past one 1024-mover block (1500); the
/// grids are boundary-heavy; every walk kind. decode_stats() must count one
/// block per started 1024 movers: decoded on the lazy-paper walk (a
/// rejection is a ~2^-64 event), replayed on the ablation walks.
TEST(EnsembleSimd, StepSubsetMatchesPerAgentReference) {
    const std::array<Grid2D, 3> grids{Grid2D{5, 4}, Grid2D{1, 7}, Grid2D::square(6)};
    const std::array<walk::WalkKind, 3> kinds{
        walk::WalkKind::kLazyPaper, walk::WalkKind::kSimple, walk::WalkKind::kLazyHalf};
    for (const auto& g : grids) {
        for (const auto kind : kinds) {
            for (const std::int32_t k : {1, 7, 40, 1500}) {
                const auto seed = static_cast<std::uint64_t>(31 * k + g.width());
                rng::Rng rng_a{seed};
                rng::Rng rng_b{seed};
                rng::Rng mask_rng{seed + 1};
                walk::AgentEnsemble agents{g, k, rng_a, kind};
                { walk::AgentEnsemble twin{g, k, rng_b, kind}; }
                std::vector<Point> ref(agents.positions().begin(), agents.positions().end());
                std::vector<std::uint8_t> mask(static_cast<std::size_t>(k));
                std::int64_t blocks = 0;
                for (int t = 0; t < 40; ++t) {
                    // Steps 0, 5, 10, …: all frozen; 1, 6, …: all moving;
                    // the rest: each agent moves with probability 1/4–3/4.
                    const auto phase = t % 5;
                    const auto quarters = mask_rng.below(3) + 1;
                    for (auto& m : mask) {
                        m = phase == 0   ? 0
                            : phase == 1 ? 1
                                         : static_cast<std::uint8_t>(
                                               (mask_rng.below(4) < quarters) * (1 + t % 3));
                    }
                    std::int64_t movers = 0;
                    for (const auto m : mask) movers += m != 0;
                    blocks += (movers + 1023) / 1024;
                    agents.step_subset(rng_a, mask);
                    for (std::size_t a = 0; a < ref.size(); ++a) {
                        if (mask[a] != 0) ref[a] = walk::step(g, ref[a], rng_b, kind);
                    }
                    for (std::int32_t i = 0; i < k; ++i) {
                        ASSERT_EQ(agents.position(i), ref[static_cast<std::size_t>(i)])
                            << walk::walk_kind_name(kind) << " " << g.width() << "x"
                            << g.height() << " k=" << k << " t=" << t << " agent=" << i;
                    }
                    ASSERT_EQ(rng::Rng{rng_a}.next_u64(), rng::Rng{rng_b}.next_u64())
                        << walk::walk_kind_name(kind) << " k=" << k << " t=" << t;
                }
                const auto stats = agents.decode_stats();
                const bool lazy = kind == walk::WalkKind::kLazyPaper;
                EXPECT_EQ(stats.blocks_decoded, lazy ? blocks : 0)
                    << walk::walk_kind_name(kind) << " k=" << k;
                EXPECT_EQ(stats.blocks_scalar, lazy ? 0 : blocks)
                    << walk::walk_kind_name(kind) << " k=" << k;
            }
        }
    }
}

// ------------------------------------------ move-hook adapters vs kernel

struct Move {
    walk::AgentId agent;
    Point from;
    Point to;
    friend bool operator==(const Move&, const Move&) = default;
};

/// The OnMove overloads are adapters over the hook-free kernel: they must
/// leave bit-identical positions and RNG stream, and report exactly the
/// agents whose node changed, in ascending order, with the true endpoints.
/// Boundary-heavy grids, every walk kind, and k off the 8-lane and
/// 1024-agent block boundaries.
TEST(EnsembleSimd, MoveHookAdaptersMatchHookFreeStep) {
    const std::array<Grid2D, 3> grids{Grid2D{5, 4}, Grid2D{1, 7}, Grid2D::square(9)};
    const std::array<walk::WalkKind, 3> kinds{
        walk::WalkKind::kLazyPaper, walk::WalkKind::kSimple, walk::WalkKind::kLazyHalf};
    for (const auto& g : grids) {
        for (const auto kind : kinds) {
            for (const std::int32_t k : {13, 1031, 2053}) {
                rng::Rng rng_a{static_cast<std::uint64_t>(k)};
                rng::Rng rng_b{static_cast<std::uint64_t>(k)};
                walk::AgentEnsemble hooked{g, k, rng_a, kind};
                walk::AgentEnsemble plain{g, k, rng_b, kind};
                std::vector<std::uint8_t> mask(static_cast<std::size_t>(k), 0);
                for (std::size_t a = 0; a < mask.size(); a += 3) mask[a] = 1;
                std::vector<Move> reported;
                std::size_t total_moved = 0;
                const auto hook = [&reported](walk::AgentId a, Point from, Point to) {
                    reported.push_back({a, from, to});
                };
                for (int t = 0; t < 12; ++t) {
                    const std::vector<Point> before(plain.positions().begin(),
                                                    plain.positions().end());
                    reported.clear();
                    if (t % 2 == 0) {
                        hooked.step_all(rng_a, hook);
                        plain.step_all(rng_b);
                    } else {
                        hooked.step_subset(rng_a, mask, hook);
                        plain.step_subset(rng_b, mask);
                    }
                    std::vector<Move> moved;
                    for (std::int32_t a = 0; a < k; ++a) {
                        const auto i = static_cast<std::size_t>(a);
                        ASSERT_EQ(hooked.position(a), plain.position(a))
                            << walk::walk_kind_name(kind) << " k=" << k << " t=" << t;
                        if (plain.position(a) != before[i]) {
                            moved.push_back({a, before[i], plain.position(a)});
                        }
                    }
                    ASSERT_EQ(rng_a.next_u64(), rng_b.next_u64()) << "t=" << t;
                    total_moved += moved.size();
                    ASSERT_TRUE(reported == moved)
                        << walk::walk_kind_name(kind) << " k=" << k << " t=" << t << ": "
                        << reported.size() << " reported, " << moved.size() << " moved";
                }
                EXPECT_GT(total_moved, 0u);
            }
        }
    }
}

}  // namespace
