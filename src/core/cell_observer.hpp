// cell_observer.hpp — the tessellation wavefront of the Theorem 1 proof.
//
// The upper-bound argument (Sec. 3.1) tessellates G_n into ℓ×ℓ cells and
// tracks, for each cell Q, the first time t_Q an informed agent stands on
// a node of Q ("Q is reached", its first visitor being the "explorer").
// Lemmas 4–5 show each reached cell reaches its neighbors within a fixed
// polylog window, so reach times grow linearly in the cell distance from
// the source — a constant-speed wavefront through the tessellation, which
// is what caps T_B at Θ̃(n/√k).
//
// CellReachObserver records exactly t_Q for every cell, letting the
// cell_spread lab scenario and its claim test verify the wavefront
// directly (experiment E22).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "grid/tessellation.hpp"

namespace smn::core {

/// Records the first time each tessellation cell hosts an informed agent.
class CellReachObserver final : public Observer {
public:
    /// `cell_side` is the tessellation pitch ℓ (the paper's
    /// ℓ = √(14 n log³n/(c₃k)), but any pitch shows the wavefront).
    CellReachObserver(const grid::Grid2D& grid, grid::Coord cell_side)
        : tessellation_{grid, cell_side},
          reach_time_(static_cast<std::size_t>(tessellation_.cell_count()), -1) {}

    void on_step(const StepView& view) override {
        for (std::int32_t a = 0; a < view.rumor.agent_count(); ++a) {
            if (!view.rumor.is_informed(a)) continue;
            const auto cell = tessellation_.cell_of(view.positions[static_cast<std::size_t>(a)]);
            auto& t = reach_time_[static_cast<std::size_t>(cell)];
            if (t < 0) {
                t = view.time;
                ++reached_;
                if (reached_ == tessellation_.cell_count() && all_reached_time_ < 0) {
                    all_reached_time_ = view.time;
                }
                if (source_cell_ < 0) source_cell_ = cell;  // first cell = source's
            }
        }
    }

    [[nodiscard]] const grid::Tessellation& tessellation() const noexcept {
        return tessellation_;
    }

    /// First reach time of a cell id; −1 if never reached.
    [[nodiscard]] std::int64_t reach_time(grid::CellId cell) const noexcept {
        return reach_time_[static_cast<std::size_t>(cell)];
    }

    /// Number of cells reached so far.
    [[nodiscard]] std::int64_t reached_count() const noexcept { return reached_; }

    [[nodiscard]] bool all_reached() const noexcept {
        return reached_ == tessellation_.cell_count();
    }

    /// First time all cells were reached (the paper's T*); −1 if not yet.
    [[nodiscard]] std::int64_t all_reached_time() const noexcept { return all_reached_time_; }

    /// Cell of the source's first recorded position.
    [[nodiscard]] grid::CellId source_cell() const noexcept { return source_cell_; }

    /// Mean reach time of the cells at L1 cell-distance `d` from the
    /// source cell (−1 if no cell at that distance was reached).
    [[nodiscard]] double mean_reach_at_distance(std::int64_t d) const {
        if (source_cell_ < 0) return -1.0;
        const auto src = tessellation_.cell_point(source_cell_);
        double total = 0.0;
        std::int64_t count = 0;
        for (grid::CellId c = 0; c < tessellation_.cell_count(); ++c) {
            if (grid::manhattan(tessellation_.cell_point(c), src) != d) continue;
            if (reach_time_[static_cast<std::size_t>(c)] < 0) return -1.0;
            total += static_cast<double>(reach_time_[static_cast<std::size_t>(c)]);
            ++count;
        }
        return count > 0 ? total / static_cast<double>(count) : -1.0;
    }

    /// Largest L1 cell-distance from the source cell to any cell.
    [[nodiscard]] std::int64_t max_cell_distance() const {
        if (source_cell_ < 0) return 0;
        const auto src = tessellation_.cell_point(source_cell_);
        std::int64_t best = 0;
        for (grid::CellId c = 0; c < tessellation_.cell_count(); ++c) {
            best = std::max(best, grid::manhattan(tessellation_.cell_point(c), src));
        }
        return best;
    }

private:
    grid::Tessellation tessellation_;
    std::vector<std::int64_t> reach_time_;
    std::int64_t reached_{0};
    std::int64_t all_reached_time_{-1};
    grid::CellId source_cell_{-1};
};

}  // namespace smn::core
