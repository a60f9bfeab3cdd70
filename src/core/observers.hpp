// observers.hpp — recorders of what the paper's analysis measures.
//
// Each recorder reads one quantity off the dissemination process and never
// changes it. Whoever owns the step loop calls on_step(process.view()) at
// the steps it wants recorded:
//
//  * FrontierObserver — x(t), the rightmost grid column touched by an
//                       informed agent (the "informed area" frontier of
//                       Sec. 3.2); Lemma 7 bounds its speed.
//  * CoverageObserver — the set of nodes visited by informed agents; its
//                       completion time is the coverage time T_C of Sec. 4.
//
// The tessellation wavefront t_Q of Sec. 3.1 is CellReachObserver
// (core/cell_observer.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "grid/grid.hpp"

namespace smn::core {

/// Records x(t): the largest x-coordinate ever occupied by an informed
/// agent up to each time t (monotone non-decreasing by construction).
class FrontierObserver {
public:
    void on_step(const StepView& view) {
        for (std::int32_t a = 0; a < view.rumor.agent_count(); ++a) {
            if (view.rumor.is_informed(a)) {
                const auto x = view.positions[static_cast<std::size_t>(a)].x;
                if (x > max_x_) max_x_ = x;
            }
        }
        series_.push_back(max_x_);
    }

    [[nodiscard]] const std::vector<grid::Coord>& series() const noexcept { return series_; }

    /// Largest advance of the frontier over any window of `window` steps.
    [[nodiscard]] std::int64_t max_window_advance(std::int64_t window) const noexcept {
        std::int64_t best = 0;
        const auto len = static_cast<std::int64_t>(series_.size());
        for (std::int64_t t = 0; t + window < len; ++t) {
            const std::int64_t adv = std::int64_t{series_[static_cast<std::size_t>(t + window)]} -
                                     series_[static_cast<std::size_t>(t)];
            if (adv > best) best = adv;
        }
        return best;
    }

private:
    grid::Coord max_x_{-1};
    std::vector<grid::Coord> series_;
};

/// Tracks the set of grid nodes visited by informed agents; completion is
/// the coverage time T_C.
class CoverageObserver {
public:
    explicit CoverageObserver(const grid::Grid2D& grid)
        : grid_{grid}, visited_(static_cast<std::size_t>(grid.size()), 0) {}

    void on_step(const StepView& view) {
        for (std::int32_t a = 0; a < view.rumor.agent_count(); ++a) {
            if (!view.rumor.is_informed(a)) continue;
            const auto id = grid_.node_id(view.positions[static_cast<std::size_t>(a)]);
            auto& mark = visited_[static_cast<std::size_t>(id)];
            if (!mark) {
                mark = 1;
                ++covered_;
                if (covered_ == grid_.size() && coverage_time_ < 0) {
                    coverage_time_ = view.time;
                }
            }
        }
    }

    [[nodiscard]] std::int64_t covered_count() const noexcept { return covered_; }
    [[nodiscard]] bool covered_all() const noexcept { return covered_ == grid_.size(); }

    /// First time every node had been visited by an informed agent; −1 if
    /// not yet reached.
    [[nodiscard]] std::int64_t coverage_time() const noexcept { return coverage_time_; }

private:
    grid::Grid2D grid_;
    std::vector<std::uint8_t> visited_;
    std::int64_t covered_{0};
    std::int64_t coverage_time_{-1};
};

}  // namespace smn::core
