// tracker.hpp — per-walk statistics: displacement, range, hitting.
//
// WalkTracker follows a single walk and maintains the quantities the
// paper's Lemmas 1 and 2 speak about:
//   * displacement  — Manhattan distance from the starting node (Lemma 2.1
//                     bounds its tail by 2e^{−λ²/2} per coordinate
//                     martingale);
//   * range         — number of *distinct* nodes visited (Lemma 2.2:
//                     ≥ c₂ ℓ/log ℓ with probability > 1/2);
//   * hitting       — first time a designated target node is visited
//                     (Lemma 1: within d² steps w.p. ≥ c₁/log d).
//
// The visited-set is a dense byte map over node ids with an undo list, so
// repeated experiments on the same grid reuse the allocation (reset is
// O(#visited), not O(n)).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "grid/grid.hpp"
#include "grid/point.hpp"

namespace smn::walk {

/// Tracks displacement/range/hitting for one walk on one grid.
class WalkTracker {
public:
    explicit WalkTracker(const grid::Grid2D& grid)
        : grid_{grid}, visited_(static_cast<std::size_t>(grid.size()), 0) {}

    /// Begins tracking a fresh walk that starts at `start`. Clears previous
    /// marks in O(range of previous walk).
    void begin(grid::Point start) {
        for (const auto id : visit_log_) visited_[static_cast<std::size_t>(id)] = 0;
        visit_log_.clear();
        start_ = start;
        current_ = start;
        steps_ = 0;
        max_displacement_ = 0;
        mark(start);
    }

    /// Records the walk's position after its next step.
    void record(grid::Point p) {
        current_ = p;
        ++steps_;
        const auto d = grid::manhattan(start_, p);
        if (d > max_displacement_) max_displacement_ = d;
        if (!visited_[static_cast<std::size_t>(grid_.node_id(p))]) mark(p);
    }

    [[nodiscard]] grid::Point start() const noexcept { return start_; }
    [[nodiscard]] grid::Point current() const noexcept { return current_; }
    [[nodiscard]] std::int64_t steps() const noexcept { return steps_; }

    /// Manhattan distance between the current position and the start.
    [[nodiscard]] std::int64_t displacement() const noexcept {
        return grid::manhattan(start_, current_);
    }

    /// Maximum displacement observed at any step so far (Lemma 2.1 bounds
    /// the probability this exceeds λ√ℓ).
    [[nodiscard]] std::int64_t max_displacement() const noexcept { return max_displacement_; }

    /// Number of distinct nodes visited, including the start (the paper's
    /// R_ℓ in Lemma 2.2).
    [[nodiscard]] std::int64_t range() const noexcept {
        return static_cast<std::int64_t>(visit_log_.size());
    }

    /// Whether the walk has visited `p` at least once.
    [[nodiscard]] bool has_visited(grid::Point p) const noexcept {
        return visited_[static_cast<std::size_t>(grid_.node_id(p))] != 0;
    }

private:
    void mark(grid::Point p) {
        const auto id = grid_.node_id(p);
        visited_[static_cast<std::size_t>(id)] = 1;
        visit_log_.push_back(id);
    }

    grid::Grid2D grid_;
    std::vector<std::uint8_t> visited_;
    std::vector<grid::NodeId> visit_log_;
    grid::Point start_{};
    grid::Point current_{};
    std::int64_t steps_{0};
    std::int64_t max_displacement_{0};
};

}  // namespace smn::walk
