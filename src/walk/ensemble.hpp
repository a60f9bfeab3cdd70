// ensemble.hpp — a population of k agents walking synchronously on a grid.
//
// AgentEnsemble owns the positions of the k agents and advances them one
// synchronized step at a time, exactly as in the paper's model (Sec. 2):
// all agents move simultaneously and independently. Initial placement is
// uniform and independent over the grid nodes.
//
// Layout: one array of grid::Point, the only copy of the positions. The
// walk kernel moves it in place and every reader (spatial indexes,
// recorders, renderers) views it as a span<const Point>.
//
// The kernel consumes exactly the same engine-word stream as the scalar
// walk::step loop it replaced — one bounded draw per moving agent, in
// agent order, Lemire rejections included — so every existing seed
// reproduces bit-identical trajectories (see docs/performance.md for the
// invariant).
//
// The lazy-paper paths (step_all, and the Frog model's step_subset) run
// one loop over chunks of 8 agents (util/simd.hpp — AVX2 or scalar,
// selected at configure time). Per chunk, only xoshiro256**'s serial
// state update runs in scalar registers; the `**` scrambler and the
// Lemire decode run 4 words per 64-bit vector (walk/decode.hpp), and the
// move runs 4 agents per vector, one Point (x in the low 32 bits, y in
// the high) per 64-bit lane — boundary mask, step-table gather and one
// 64-bit add are all branch-free lane math. Drawing, decoding and moving
// in one pass lets the decode and the move overlap the state chain
// instead of adding to it. A zero word
// (Lemire's only rejection for bound 5, a ~2^-64 event) sends the rest of
// its 1024-agent block through Rng::below(5). step_subset draws its
// movers through the same chunk loop, scatters the draws into a row that
// gives each frozen agent the stay draw kStayDraw (walk/step.hpp), and
// moves all k agents in one pass. Lanes are just a partition of the agent
// order, so the trajectories (and the word stream) stay bit-identical on
// both backends — the force-scalar CI leg replays the same goldens to
// prove it.
//
// The kernel is defined in walk/ensemble.cpp; the paperbench adapters
// below are header templates.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "grid/grid.hpp"
#include "grid/point.hpp"
#include "rng/rng.hpp"
#include "walk/step.hpp"

namespace smn::walk {

/// Index of an agent in [0, k).
using AgentId = std::int32_t;

/// k agents on a Grid2D, stepped synchronously.
class AgentEnsemble {
public:
    /// Telemetry tallies of the step kernel, per block of up to 1024
    /// drawing agents: how many took the vectorized decode vs the exact
    /// scalar replay (a Lemire rejection, or the ablation walks, which
    /// never decode in lanes).
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
        positions_.reserve(static_cast<std::size_t>(k));
        for (std::int32_t i = 0; i < k; ++i) {
            positions_.push_back(random_node(grid, rng));
        }
    }

    /// Creates agents at caller-chosen positions (each must be on the grid).
    AgentEnsemble(const grid::Grid2D& grid, std::vector<grid::Point> positions,
                  WalkKind kind = WalkKind::kLazyPaper)
        : grid_{grid}, positions_{std::move(positions)}, kind_{kind} {
        if (positions_.empty()) {
            throw std::invalid_argument("AgentEnsemble: need at least one agent");
        }
        for (const auto& p : positions_) {
            if (!grid_.contains(p)) {
                throw std::invalid_argument("AgentEnsemble: initial position off-grid");
            }
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

    /// Moves one agent (used by models where only a subset moves, e.g. the
    /// Frog model).
    void set_position(AgentId a, grid::Point p) noexcept {
        assert(a >= 0 && a < count() && grid_.contains(p));
        positions_[static_cast<std::size_t>(a)] = p;
    }

    /// Advances every agent by one synchronized step.
    void step_all(rng::Rng& rng);

    /// Advances only the agents for which `should_move[a]` is true; the
    /// others stay frozen (Frog-model dynamics, Sec. 4). The mask is read
    /// before the first position changes and never after.
    ///
    /// Lazy-paper: the movers draw through step_all's chunk loop in agent
    /// order, so the word stream and the decode tallies are those of a
    /// walk over the movers alone. Their draws are scattered into a row of
    /// stay draws (kStayDraw), and one vector pass moves all k agents. The
    /// ablation walks' draw bounds depend on the node's degree, so they
    /// step the movers one by one instead.
    void step_subset(rng::Rng& rng, std::span<const std::uint8_t> should_move);

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
    /// Drawing agents per decode tally (DecodeStats) and per rejection
    /// replay; a multiple of the 8-agent chunk.
    static constexpr std::size_t kBlockSize = 1024;

    /// Scalar step of the ablation walks (kSimple, kLazyHalf) over `count`
    /// agents selected by `index_of` (identity for step_all, the moving-agent
    /// list for step_subset), in order. Their draw bound is the node's degree
    /// (or twice it), so each agent draws through Rng::below word by word;
    /// every started block of kBlockSize agents counts as blocks_scalar.
    template <typename IndexFn>
    void step_indices(rng::Rng& rng, std::size_t count, IndexFn&& index_of);

    /// The lazy-paper draw loop: one draw u ∈ [0,5) for each of `count`
    /// drawing agents, in order, handed out as `on_chunk(i, lo, hi)` for
    /// each whole 8-agent chunk of a block (U64x4 draws of agents i..i+3
    /// and i+4..i+7) and as `on_one(i, u)` for the rest. Words are drawn
    /// and decoded in registers (walk/decode.hpp). A zero word — the only
    /// one Rng::below(5) rejects — restores the engine at its block's start,
    /// skips one word per agent already handed out, and finishes the block
    /// with Rng::below(5) through on_one, so the engine stream cannot
    /// diverge. A lazy-paper draw does not depend on the agent's node, so
    /// a chunk may draw before it moves.
    template <typename OnChunk, typename OnOne>
    void draw_lazy(rng::Rng& rng, std::size_t count, OnChunk&& on_chunk, OnOne&& on_one);

    /// Moves agent a by one decoded draw via the direction table.
    void apply(std::size_t a, unsigned u) noexcept {
        apply(a, direction_mask(positions_[a], grid_.width(), grid_.height()), u);
    }
    /// apply() with agent a's direction_mask already computed.
    void apply(std::size_t a, unsigned mask, unsigned u) noexcept {
        const auto d = kStepTable[mask * 5 + u];
        positions_[a].x += d.dx;
        positions_[a].y += d.dy;
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
    std::vector<grid::Point> positions_;    ///< index = agent id
    WalkKind kind_;
    std::vector<std::uint32_t> row_;        ///< scratch: step_subset's draw per agent
    std::vector<std::int32_t> moving_;      ///< scratch: step_subset's movers
    std::vector<grid::Point> before_;       ///< scratch: positions before an adapter step
    DecodeStats decode_stats_;              ///< telemetry tallies
};

}  // namespace smn::walk
