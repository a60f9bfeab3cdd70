// ensemble.cpp — AgentEnsemble's walk kernel, compiled once.
//
// The step entry points and the lazy-paper draw loop are defined here,
// not in the header, so every binary runs this one compiled copy: an
// inline copy would be compiled into each includer, and which one the
// linker keeps, and what got inlined into it, would depend on unrelated
// headers.
#include "walk/ensemble.hpp"

#include <algorithm>
#include <bit>

#include "util/simd.hpp"
#include "walk/decode.hpp"

namespace smn::walk {

namespace {

namespace s = util::simd;
/// Agents per draw_lazy chunk: one U64x4 of draws for each half.
constexpr auto kChunk = static_cast<std::size_t>(2 * s::kU64Lanes);
static_assert(sizeof(grid::Point) == sizeof(std::uint64_t));
// move4 reads a Point as the word x + y·2³²; no CI leg or benchmark host
// is big-endian.
static_assert(std::endian::native == std::endian::little);

/// (width − 1) | (height − 1)·2³²: the largest Point, as move4 reads it.
s::U64x4 point_limit(const grid::Grid2D& grid) noexcept {
    return s::U64x4::splat(static_cast<std::uint32_t>(grid.width() - 1) |
                           std::uint64_t{static_cast<std::uint32_t>(grid.height() - 1)} << 32);
}

/// Moves the four agents at p by the lazy-paper draws u, one Point per
/// lane. Lane math mirrors AgentEnsemble::apply() and direction_mask()
/// exactly: per-half compares against 0 and `limit` give the mask bits
/// 1, 2 (x) and 4, 8 (y) in the two halves, which fold into the low half;
/// a gather through kStepTableWide turns mask*5+u into dx + dy·2³², and
/// one add moves both coordinates. Every lane is stored unconditionally
/// (a stay adds zero).
inline void move4(grid::Point* p, s::U64x4 u, s::U64x4 limit) noexcept {
    const auto pos = s::U64x4::load_bytes(p);
    const auto m = s::bit_or(
        s::bit_and(s::cmpgt_halves(pos, s::U64x4::splat(0)), s::U64x4::splat(1 | 4ULL << 32)),
        s::bit_and(s::cmpgt_halves(limit, pos), s::U64x4::splat(2 | 8ULL << 32)));
    const auto mask = s::bit_and(s::bit_or(m, s::shift_right<32>(m)), s::U64x4::splat(15));
    const auto idx = s::add(s::add(s::shift_left<2>(mask), mask), u);
    s::add(pos, s::gather(kStepTableWide.data(), idx)).store_bytes(p);
}

}  // namespace

void AgentEnsemble::step_all(rng::Rng& rng) {
    if (kind_ != WalkKind::kLazyPaper) {
        step_indices(rng, positions_.size(), [](std::size_t i) { return i; });
        return;
    }
    const auto limit = point_limit(grid_);
    // Hoisted: the vector stores may alias any memory, so data() would
    // otherwise be reloaded every chunk.
    grid::Point* const points = positions_.data();
    draw_lazy(
        rng, positions_.size(),
        [=](std::size_t i, s::U64x4 lo, s::U64x4 hi) {
            move4(points + i, lo, limit);
            move4(points + i + s::kU64Lanes, hi, limit);
        },
        [this](std::size_t i, std::int32_t u) { apply(i, static_cast<unsigned>(u)); });
}

void AgentEnsemble::step_subset(rng::Rng& rng, std::span<const std::uint8_t> should_move) {
    assert(should_move.size() == positions_.size());
    const std::size_t k = should_move.size();
    // The movers in agent order, listed without a branch.
    moving_.resize(k);
    std::size_t movers = 0;
    for (std::size_t i = 0; i < k; ++i) {
        moving_[movers] = static_cast<std::int32_t>(i);
        movers += static_cast<std::size_t>(should_move[i] != 0);
    }
    if (kind_ != WalkKind::kLazyPaper) {
        step_indices(rng, movers,
                     [this](std::size_t i) { return static_cast<std::size_t>(moving_[i]); });
        return;
    }
    // The movers draw through step_all's chunk loop, and their draws are
    // scattered into a row of stay draws; then all k agents move at once.
    row_.assign(k, kStayDraw);
    std::uint32_t* const row = row_.data();
    const std::int32_t* const ids = moving_.data();
    draw_lazy(
        rng, movers,
        [=](std::size_t i, s::U64x4 lo, s::U64x4 hi) {
            std::uint64_t u[kChunk];
            lo.store(u);
            hi.store(u + s::kU64Lanes);
            for (std::size_t j = 0; j < kChunk; ++j) {
                row[ids[i + j]] = static_cast<std::uint32_t>(u[j]);
            }
        },
        [=](std::size_t i, std::int32_t u) { row[ids[i]] = static_cast<std::uint32_t>(u); });

    const auto limit = point_limit(grid_);
    grid::Point* const points = positions_.data();
    std::size_t i = 0;
    for (; i + s::kU64Lanes <= k; i += s::kU64Lanes) {
        move4(points + i, s::U64x4::load_u32(row + i), limit);
    }
    for (; i < k; ++i) apply(i, row[i]);
}

template <typename IndexFn>
void AgentEnsemble::step_indices(rng::Rng& rng, std::size_t count, IndexFn&& index_of) {
    // Drawn through a local copy of the engine: apply()'s stores may alias
    // the caller's Rng, which would make the compiler load and store its
    // four state words for every word drawn.
    rng::Rng engine = rng;
    for (std::size_t i = 0; i < count; ++i) {
        const auto a = index_of(i);
        const auto mask = direction_mask(positions_[a], grid_.width(), grid_.height());
        const auto deg = static_cast<std::uint64_t>(std::popcount(mask));
        const auto u = kind_ == WalkKind::kSimple
                           ? engine.below(deg)
                           : std::min<std::uint64_t>(engine.below(2 * deg), 4);
        apply(a, mask, static_cast<unsigned>(u));
    }
    rng = engine;
    decode_stats_.blocks_scalar +=
        static_cast<std::int64_t>((count + kBlockSize - 1) / kBlockSize);
}

template <typename OnChunk, typename OnOne>
void AgentEnsemble::draw_lazy(rng::Rng& rng, std::size_t count, OnChunk&& on_chunk,
                              OnOne&& on_one) {
    const auto zero = s::U64x4::splat(0);
    // Each block draws through a fresh local copy of the engine: the
    // callers' stores may alias the caller's Rng, and an engine that the
    // rejection replay could overwrite mid-loop would be kept in memory,
    // both of which put a store and a reload on the state chain.
    rng::Rng block_start = rng;
    for (std::size_t base = 0; base < count; base += kBlockSize) {
        const std::size_t end = std::min(base + kBlockSize, count);
        rng::Rng engine = block_start;
        bool rejected = false;
        std::size_t i = base;
        for (; i + kChunk <= end; i += kChunk) {
            const auto lo = next_words4(engine);
            const auto hi = next_words4(engine);
            if (s::any(s::bit_or(s::cmpeq(lo, zero), s::cmpeq(hi, zero)))) [[unlikely]] {
                rejected = true;
                break;
            }
            on_chunk(i, draw5(lo), draw5(hi));
        }
        for (; !rejected && i < end; ++i) {
            const auto word = engine.next_u64();
            if (word == 0) [[unlikely]] {
                rejected = true;
                break;
            }
            on_one(i, draw5(word));
        }
        if (rejected) [[unlikely]] {
            // Replay the block's stream from its start: agents before i
            // drew one (nonzero) word each, and the rest draw through
            // Rng::below(5), rejections included.
            for (std::size_t j = base; j < i; ++j) (void)block_start.next_state_word();
            for (; i < end; ++i) on_one(i, static_cast<std::int32_t>(block_start.below(5)));
            ++decode_stats_.blocks_scalar;
        } else {
            block_start = engine;
            ++decode_stats_.blocks_decoded;
        }
    }
    rng = block_start;
}

}  // namespace smn::walk
