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
constexpr auto kLanes = static_cast<std::size_t>(s::kI32Lanes);
static_assert(sizeof(grid::Point) == 2 * sizeof(grid::Coord));

/// Moves the eight agents at xs/ys, and their AoS mirror at points, by the
/// lazy-paper draws uv. Lane math mirrors AgentEnsemble::apply() and
/// direction_mask() exactly: cmpgt against the boundary coordinates builds
/// the presence mask, a gather through kStepTablePacked turns mask*5+u
/// into (dx, dy), and the mirror is refreshed with an interleaved store.
/// Every lane is stored unconditionally (a stay adds a zero delta).
inline void move8(std::int32_t* xs, std::int32_t* ys, std::int32_t* points, s::I32x8 uv,
                  s::I32x8 xmax, s::I32x8 ymax) noexcept {
    const auto zero = s::I32x8::splat(0);
    const auto xv = s::I32x8::load(xs);
    const auto yv = s::I32x8::load(ys);
    // direction_mask(), lane-wise: x+1 < width ⇔ x < width−1.
    auto mask = s::bit_and(s::cmpgt(xv, zero), s::I32x8::splat(1));
    mask = s::bit_or(mask, s::bit_and(s::cmpgt(xmax, xv), s::I32x8::splat(2)));
    mask = s::bit_or(mask, s::bit_and(s::cmpgt(yv, zero), s::I32x8::splat(4)));
    mask = s::bit_or(mask, s::bit_and(s::cmpgt(ymax, yv), s::I32x8::splat(8)));
    const auto idx = s::add(s::add(s::shift_left<2>(mask), mask), uv);
    const auto delta = s::gather(kStepTablePacked.data(), idx);
    const auto nx = s::add(xv, s::shift_right_arith<16>(s::shift_left<16>(delta)));
    const auto ny = s::add(yv, s::shift_right_arith<16>(delta));
    nx.store(xs);
    ny.store(ys);
    s::store_interleaved(points, nx, ny);
}

}  // namespace

void AgentEnsemble::step_all(rng::Rng& rng) {
    if (kind_ != WalkKind::kLazyPaper) {
        step_indices(rng, positions_.size(), [](std::size_t i) { return i; });
        return;
    }
    const auto width = grid_.width();
    const auto height = grid_.height();
    const auto xmax = s::I32x8::splat(width - 1);
    const auto ymax = s::I32x8::splat(height - 1);
    // Hoisted: the vector stores may alias any memory, so data() of the
    // member vectors would otherwise be reloaded every chunk.
    std::int32_t* const xs = xs_.data();
    std::int32_t* const ys = ys_.data();
    auto* const points = reinterpret_cast<std::int32_t*>(positions_.data());
    draw_lazy(
        rng, positions_.size(),
        [=](std::size_t i, s::I32x8 uv) {
            move8(xs + i, ys + i, points + 2 * i, uv, xmax, ymax);
        },
        [&](std::size_t i, std::int32_t u) {
            apply(i, direction_mask(xs[i], ys[i], width, height), static_cast<unsigned>(u));
        });
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
    std::int32_t* const row = row_.data();
    const std::int32_t* const ids = moving_.data();
    draw_lazy(
        rng, movers,
        [=](std::size_t i, s::I32x8 uv) {
            std::int32_t u[kLanes]{};
            uv.store(u);
            for (std::size_t j = 0; j < kLanes; ++j) row[ids[i + j]] = u[j];
        },
        [=](std::size_t i, std::int32_t u) { row[ids[i]] = u; });

    const auto width = grid_.width();
    const auto height = grid_.height();
    const auto xmax = s::I32x8::splat(width - 1);
    const auto ymax = s::I32x8::splat(height - 1);
    std::int32_t* const xs = xs_.data();
    std::int32_t* const ys = ys_.data();
    auto* const points = reinterpret_cast<std::int32_t*>(positions_.data());
    std::size_t i = 0;
    for (; i + kLanes <= k; i += kLanes) {
        move8(xs + i, ys + i, points + 2 * i, s::I32x8::load(row + i), xmax, ymax);
    }
    for (; i < k; ++i) {
        apply(i, direction_mask(xs[i], ys[i], width, height), static_cast<unsigned>(row[i]));
    }
}

template <typename IndexFn>
void AgentEnsemble::step_indices(rng::Rng& rng, std::size_t count, IndexFn&& index_of) {
    const auto width = grid_.width();
    const auto height = grid_.height();
    // Drawn through a local copy of the engine: apply()'s stores may alias
    // the caller's Rng, which would make the compiler load and store its
    // four state words for every word drawn.
    rng::Rng engine = rng;
    for (std::size_t i = 0; i < count; ++i) {
        const auto a = index_of(i);
        const auto mask = direction_mask(xs_[a], ys_[a], width, height);
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
        for (; i + kLanes <= end; i += kLanes) {
            const auto lo = next_words4(engine);
            const auto hi = next_words4(engine);
            if (s::any(s::bit_or(s::cmpeq(lo, zero), s::cmpeq(hi, zero)))) [[unlikely]] {
                rejected = true;
                break;
            }
            on_chunk(i, s::narrow(draw5(lo), draw5(hi)));
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
