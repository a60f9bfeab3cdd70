// ensemble.hpp — a population of k agents walking synchronously on a grid.
//
// AgentEnsemble owns the positions of the k agents and advances them one
// synchronized step at a time, exactly as in the paper's model (Sec. 2):
// all agents move simultaneously and independently. Initial placement is
// uniform and independent over the grid nodes.
//
// Layout: structure-of-arrays. The walk kernel reads and writes separate
// x/y coordinate arrays (vectorization-friendly, and the batched decode
// pass below touches only raw RNG words and one byte per agent); an
// array-of-Point mirror is kept coherent in the same pass so the wide
// span<const Point> API surface (spatial indexes, observers, renderers)
// stays zero-copy.
//
// Stepping is batched: raw RNG words are drawn in blocks (rng::BlockRng)
// and decoded branch-light through walk::kStepTable. The kernel consumes
// exactly the same engine-word stream as the scalar walk::step loop it
// replaced — one bounded draw per moving agent, in agent order, Lemire
// rejections included — so every existing seed reproduces bit-identical
// trajectories (see docs/performance.md for the invariant).
//
// The lazy-paper step_all path is additionally vectorized end to end
// (util/simd.hpp — AVX2/NEON/scalar selected at configure time): the
// Lemire decode runs 4 words per 64-bit vector (walk/decode.hpp) and the
// position update runs 8 agents per 32-bit vector — boundary mask, packed
// step-table gather, SoA stores and the AoS mirror interleave are all
// branch-free lane math, and no lane leaves the vector path. Lanes are
// just a partition of the agent order, so the trajectories (and the word
// stream, which the decode never reorders) stay bit-identical across
// backends — the force-scalar CI leg replays the same goldens to prove it.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "grid/grid.hpp"
#include "grid/point.hpp"
#include "rng/rng.hpp"
#include "util/simd.hpp"
#include "walk/decode.hpp"
#include "walk/step.hpp"

namespace smn::walk {

/// Index of an agent in [0, k).
using AgentId = std::int32_t;

/// k agents on a Grid2D, stepped synchronously.
class AgentEnsemble {
public:
    /// Telemetry tallies of the batched step kernel: how many RNG blocks
    /// took the vectorized decode vs the exact scalar replay (Lemire
    /// rejection, or ablation walks that never decode in bulk).
    struct DecodeStats {
        std::int64_t blocks_decoded{0};  ///< blocks decoded rejection-free
        std::int64_t blocks_scalar{0};   ///< blocks replayed word-by-word
    };


    /// Creates k agents placed uniformly and independently at random.
    /// Throws std::invalid_argument if k < 1.
    AgentEnsemble(const grid::Grid2D& grid, std::int32_t k, rng::Rng& rng,
                  WalkKind kind = WalkKind::kLazyPaper)
        : grid_{grid}, kind_{kind} {
        if (k < 1) throw std::invalid_argument("AgentEnsemble: k must be >= 1");
        reserve(static_cast<std::size_t>(k));
        for (std::int32_t i = 0; i < k; ++i) {
            push_agent(random_node(grid, rng));
        }
    }

    /// Creates agents at caller-chosen positions (each must be on the grid).
    AgentEnsemble(const grid::Grid2D& grid, std::vector<grid::Point> positions,
                  WalkKind kind = WalkKind::kLazyPaper)
        : grid_{grid}, kind_{kind} {
        if (positions.empty()) {
            throw std::invalid_argument("AgentEnsemble: need at least one agent");
        }
        reserve(positions.size());
        for (const auto& p : positions) {
            if (!grid_.contains(p)) {
                throw std::invalid_argument("AgentEnsemble: initial position off-grid");
            }
            push_agent(p);
        }
    }

    /// Uniformly random grid node.
    [[nodiscard]] static grid::Point random_node(const grid::Grid2D& grid, rng::Rng& rng) {
        const auto id = static_cast<grid::NodeId>(rng.below(static_cast<std::uint64_t>(grid.size())));
        return grid.point_of(id);
    }

    /// Number of agents k.
    [[nodiscard]] std::int32_t count() const noexcept {
        return static_cast<std::int32_t>(positions_.size());
    }

    [[nodiscard]] const grid::Grid2D& grid() const noexcept { return grid_; }
    [[nodiscard]] WalkKind kind() const noexcept { return kind_; }

    [[nodiscard]] const DecodeStats& decode_stats() const noexcept { return decode_stats_; }

    [[nodiscard]] grid::Point position(AgentId a) const noexcept {
        assert(a >= 0 && a < count());
        return positions_[static_cast<std::size_t>(a)];
    }

    /// Read-only view of all positions (index = agent id). The underlying
    /// storage is stable for the ensemble's lifetime, so spatial indexes
    /// may hold this span across steps.
    [[nodiscard]] std::span<const grid::Point> positions() const noexcept { return positions_; }

    /// SoA coordinate views (index = agent id).
    [[nodiscard]] std::span<const grid::Coord> xs() const noexcept { return xs_; }
    [[nodiscard]] std::span<const grid::Coord> ys() const noexcept { return ys_; }

    /// Moves one agent (used by models where only a subset moves, e.g. the
    /// Frog model).
    void set_position(AgentId a, grid::Point p) noexcept {
        assert(a >= 0 && a < count() && grid_.contains(p));
        const auto i = static_cast<std::size_t>(a);
        xs_[i] = p.x;
        ys_[i] = p.y;
        positions_[i] = p;
    }

    /// Advances every agent by one synchronized step.
    void step_all(rng::Rng& rng) {
        if (kind_ != WalkKind::kLazyPaper) {
            step_indices(rng, positions_.size(), [](std::size_t i) { return i; });
            return;
        }
        // Lazy-paper fast path: agent ids are contiguous, so both decode
        // and apply run vectorized (apply_block). A Lemire rejection
        // anywhere in a block (one word == 0, a ~2^-64 event) drops that
        // block to the exact scalar BlockRng replay, which re-consumes the
        // same buffered words so the engine stream cannot diverge.
        const auto width = grid_.width();
        const auto height = grid_.height();
        const std::size_t count = positions_.size();
        for (std::size_t base = 0; base < count; base += kBlockSize) {
            const std::size_t len = std::min(kBlockSize, count - base);
            block_.fill(rng, len);
            if (decode_block(len)) {
                ++decode_stats_.blocks_decoded;
                apply_block(base, len, width, height);
            } else {
                ++decode_stats_.blocks_scalar;
                for (std::size_t i = 0; i < len; ++i) {
                    const auto a = base + i;
                    apply(a, direction_mask(xs_[a], ys_[a], width, height),
                          static_cast<unsigned>(block_.below(rng, 5)));
                }
            }
        }
    }

    /// Advances only the agents for which `should_move[a]` is true; the
    /// others stay frozen (Frog-model dynamics, Sec. 4).
    void step_subset(rng::Rng& rng, std::span<const std::uint8_t> should_move) {
        assert(should_move.size() == positions_.size());
        moving_.clear();
        for (std::size_t i = 0; i < should_move.size(); ++i) {
            if (should_move[i]) moving_.push_back(static_cast<std::int32_t>(i));
        }
        step_indices(rng, moving_.size(),
                     [this](std::size_t i) { return static_cast<std::size_t>(moving_[i]); });
    }

    /// Advances a single agent by one step.
    void step_one(AgentId a, rng::Rng& rng) noexcept {
        set_position(a, step(grid_, position(a), rng, kind_));
    }

    // ---- For paperbench's shadow loop only; deleted together with that
    // caller when the shadow is refreshed (ROADMAP.md, item 2). Library
    // code must not call these. Each runs the hook-free step above, then
    // reports `on_move(agent, from, to)` for every agent whose node
    // changed, in ascending agent order.
    template <typename OnMove>
    void step_all(rng::Rng& rng, OnMove&& on_move) {
        before_.assign(positions_.begin(), positions_.end());
        step_all(rng);
        report_moves(on_move);
    }

    template <typename OnMove>
    void step_subset(rng::Rng& rng, std::span<const std::uint8_t> should_move,
                     OnMove&& on_move) {
        before_.assign(positions_.begin(), positions_.end());
        step_subset(rng, should_move);
        report_moves(on_move);
    }

private:
    /// Agents decoded per RNG block; 8 KiB of raw words + 4 KiB of draws,
    /// comfortably L1-resident.
    static constexpr std::size_t kBlockSize = 1024;

    void reserve(std::size_t k) {
        xs_.reserve(k);
        ys_.reserve(k);
        positions_.reserve(k);
    }

    void push_agent(grid::Point p) {
        xs_.push_back(p.x);
        ys_.push_back(p.y);
        positions_.push_back(p);
    }

    /// Batched step over `count` agents selected by `index_of` (identity
    /// for step_all, the moving-agent list for step_subset), in order.
    template <typename IndexFn>
    void step_indices(rng::Rng& rng, std::size_t count, IndexFn&& index_of) {
        const auto width = grid_.width();
        const auto height = grid_.height();
        for (std::size_t base = 0; base < count; base += kBlockSize) {
            const std::size_t len = std::min(kBlockSize, count - base);
            block_.fill(rng, len);
            if (kind_ == WalkKind::kLazyPaper && decode_block(len)) {
                ++decode_stats_.blocks_decoded;
                // Common path: every buffered word decoded rejection-free.
                for (std::size_t i = 0; i < len; ++i) {
                    const auto a = index_of(base + i);
                    apply(a, direction_mask(xs_[a], ys_[a], width, height),
                          static_cast<unsigned>(draws_[i]));
                }
            } else {
                // Exact scalar path: ablation walks, and the ~2^-64 case of
                // a Lemire rejection inside the block. Consumes the same
                // buffered words through BlockRng, so the stream matches.
                ++decode_stats_.blocks_scalar;
                for (std::size_t i = 0; i < len; ++i) {
                    const auto a = index_of(base + i);
                    const auto mask = direction_mask(xs_[a], ys_[a], width, height);
                    const auto deg = static_cast<std::uint64_t>(std::popcount(mask));
                    std::uint64_t u = 0;
                    switch (kind_) {
                        case WalkKind::kLazyPaper: u = block_.below(rng, 5); break;
                        case WalkKind::kSimple: u = block_.below(rng, deg); break;
                        case WalkKind::kLazyHalf:
                            u = std::min<std::uint64_t>(block_.below(rng, 2 * deg), 4);
                            break;
                    }
                    apply(a, mask, static_cast<unsigned>(u));
                }
            }
        }
    }

    /// Pass 1 of the lazy-paper kernel: decode the block's raw words into
    /// draws_ (u ∈ [0,5)) with Lemire's multiply (walk/decode.hpp, SIMD
    /// when configured). Returns false — leaving draws_ unusable — iff any
    /// word would have been rejected.
    [[nodiscard]] bool decode_block(std::size_t len) {
        draws_.resize(len);
        return decode_draws5(block_.words().data(), len, draws_.data());
    }

    /// Pass 2 of the contiguous (step_all) lazy-paper kernel: apply 8
    /// decoded draws per vector to agents [base, base+len). Lane math
    /// mirrors apply()/direction_mask() exactly — cmpgt against the
    /// boundary coordinates builds the presence mask, a gather through
    /// kStepTablePacked turns mask*5+u into (dx, dy), and the AoS Point
    /// mirror is refreshed with an interleaved store. Every lane is stored
    /// unconditionally (a stay adds a zero delta), so no lane ever leaves
    /// the vector path.
    void apply_block(std::size_t base, std::size_t len, grid::Coord width, grid::Coord height) {
        namespace s = util::simd;
        static_assert(sizeof(grid::Point) == 2 * sizeof(grid::Coord));
        constexpr auto kLanes = static_cast<std::size_t>(s::kI32Lanes);
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
        const std::int32_t* const draws = draws_.data();
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
                  static_cast<unsigned>(draws_[i]));
        }
    }

    /// Pass 2: apply one decoded draw via the direction table.
    void apply(std::size_t a, unsigned mask, unsigned u) noexcept {
        const auto d = kStepTable[mask * 5 + u];
        xs_[a] = static_cast<grid::Coord>(xs_[a] + d.dx);
        ys_[a] = static_cast<grid::Coord>(ys_[a] + d.dy);
        positions_[a] = grid::Point{xs_[a], ys_[a]};
    }

    /// Paperbench-only adapter tail (see the block above): reports every
    /// agent whose node differs from before_, in ascending agent order.
    template <typename OnMove>
    void report_moves(OnMove&& on_move) const {
        for (std::size_t a = 0; a < positions_.size(); ++a) {
            if (positions_[a] != before_[a]) {
                on_move(static_cast<AgentId>(a), before_[a], positions_[a]);
            }
        }
    }

    grid::Grid2D grid_;
    std::vector<grid::Coord> xs_;           ///< SoA x coordinates
    std::vector<grid::Coord> ys_;           ///< SoA y coordinates
    std::vector<grid::Point> positions_;    ///< coherent AoS mirror for span views
    WalkKind kind_;
    rng::BlockRng block_;                   ///< block-drawn raw RNG words
    std::vector<std::int32_t> draws_;       ///< decoded u per block slot (int32: SIMD lane width)
    std::vector<std::int32_t> moving_;      ///< scratch: step_subset selection
    std::vector<grid::Point> before_;       ///< scratch: positions before an adapter step
    DecodeStats decode_stats_;              ///< telemetry tallies
};

}  // namespace smn::walk
