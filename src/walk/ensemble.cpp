// ensemble.cpp — AgentEnsemble's walk kernel, compiled once.
//
// The step entry points and the two block passes are defined here, not in
// the header, so every binary runs this one compiled copy: an inline copy
// would be compiled into each includer, and which one the linker keeps,
// and what got inlined into it, would depend on unrelated headers.
#include "walk/ensemble.hpp"

#include <algorithm>
#include <bit>

#include "util/simd.hpp"
#include "walk/decode.hpp"

namespace smn::walk {

void AgentEnsemble::step_all(rng::Rng& rng) {
    if (kind_ != WalkKind::kLazyPaper) {
        step_indices(rng, positions_.size(), [](std::size_t i) { return i; });
        return;
    }
    // Lazy-paper fast path: agent ids are contiguous, so each block's
    // draws are applied to the block's agents in one vector pass.
    const std::size_t count = positions_.size();
    draws_.resize(std::min(kBlockSize, count));
    for (std::size_t base = 0; base < count; base += kBlockSize) {
        const std::size_t len = std::min(kBlockSize, count - base);
        draw_block(rng, len, draws_.data());
        apply_block(base, len, draws_.data());
    }
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
    row_.assign(k, kStayDraw);
    draws_.resize(std::min(kBlockSize, movers));
    std::int32_t* const row = row_.data();
    std::int32_t* const draws = draws_.data();
    for (std::size_t base = 0; base < movers; base += kBlockSize) {
        const std::size_t len = std::min(kBlockSize, movers - base);
        draw_block(rng, len, draws);
        const std::int32_t* const ids = moving_.data() + base;
        for (std::size_t j = 0; j < len; ++j) row[ids[j]] = draws[j];
    }
    apply_block(0, k, row);
}

template <typename IndexFn>
void AgentEnsemble::step_indices(rng::Rng& rng, std::size_t count, IndexFn&& index_of) {
    const auto width = grid_.width();
    const auto height = grid_.height();
    for (std::size_t base = 0; base < count; base += kBlockSize) {
        const std::size_t len = std::min(kBlockSize, count - base);
        block_.fill(rng, len);
        ++decode_stats_.blocks_scalar;
        for (std::size_t i = 0; i < len; ++i) {
            const auto a = index_of(base + i);
            const auto mask = direction_mask(xs_[a], ys_[a], width, height);
            const auto deg = static_cast<std::uint64_t>(std::popcount(mask));
            const auto u = kind_ == WalkKind::kSimple
                               ? block_.below(rng, deg)
                               : std::min<std::uint64_t>(block_.below(rng, 2 * deg), 4);
            apply(a, mask, static_cast<unsigned>(u));
        }
    }
}

void AgentEnsemble::draw_block(rng::Rng& rng, std::size_t len, std::int32_t* out) {
    block_.fill(rng, len);
    if (decode_draws5(block_.words().data(), len, out)) {
        ++decode_stats_.blocks_decoded;
        return;
    }
    ++decode_stats_.blocks_scalar;
    for (std::size_t i = 0; i < len; ++i) {
        out[i] = static_cast<std::int32_t>(block_.below(rng, 5));
    }
}

void AgentEnsemble::apply_block(std::size_t base, std::size_t len, const std::int32_t* draws) {
    namespace s = util::simd;
    static_assert(sizeof(grid::Point) == 2 * sizeof(grid::Coord));
    constexpr auto kLanes = static_cast<std::size_t>(s::kI32Lanes);
    const auto width = grid_.width();
    const auto height = grid_.height();
    const auto zero = s::I32x8::splat(0);
    const auto xmax = s::I32x8::splat(width - 1);
    const auto ymax = s::I32x8::splat(height - 1);
    const auto one = s::I32x8::splat(1);
    const auto two = s::I32x8::splat(2);
    const auto four = s::I32x8::splat(4);
    const auto eight = s::I32x8::splat(8);
    // Hoisted: the vector stores may alias any memory, so data() of the
    // member vectors would otherwise be reloaded every iteration.
    std::int32_t* const xs = xs_.data() + base;
    std::int32_t* const ys = ys_.data() + base;
    auto* const points = reinterpret_cast<std::int32_t*>(positions_.data() + base);
    const std::size_t full = len - len % kLanes;
    std::size_t i = 0;
    for (; i < full; i += kLanes) {
        const auto xv = s::I32x8::load(xs + i);
        const auto yv = s::I32x8::load(ys + i);
        // direction_mask(), lane-wise: x+1 < width ⇔ x < width−1.
        auto mask = s::bit_and(s::cmpgt(xv, zero), one);
        mask = s::bit_or(mask, s::bit_and(s::cmpgt(xmax, xv), two));
        mask = s::bit_or(mask, s::bit_and(s::cmpgt(yv, zero), four));
        mask = s::bit_or(mask, s::bit_and(s::cmpgt(ymax, yv), eight));
        const auto uv = s::I32x8::load(draws + i);
        const auto idx = s::add(s::add(s::shift_left<2>(mask), mask), uv);
        const auto delta = s::gather(kStepTablePacked.data(), idx);
        const auto dx = s::shift_right_arith<16>(s::shift_left<16>(delta));
        const auto dy = s::shift_right_arith<16>(delta);
        const auto nx = s::add(xv, dx);
        const auto ny = s::add(yv, dy);
        nx.store(xs + i);
        ny.store(ys + i);
        s::store_interleaved(points + 2 * i, nx, ny);
    }
    for (; i < len; ++i) {
        const std::size_t a = base + i;
        apply(a, direction_mask(xs_[a], ys_[a], width, height),
              static_cast<unsigned>(draws[i]));
    }
}

}  // namespace smn::walk
