// bucket_index.hpp — sorted cell list for radius queries (r > 0).
//
// Buckets the grid into square cells of side `bucket_side` and, on every
// rebuild(), sorts the agents by cell with a two-pass stable LSD counting
// sort — first by cell column, then by cell row. The result is one
// contiguous array of agent ids and coordinates ordered by (row, column,
// id), plus per-row offsets: every cell is a contiguous run, and every
// cell row is a contiguous slice. The sort costs O(k + rows + columns),
// never O(cells), so a sparse grid with far more cells than agents pays
// only for the agents.
//
// This is the standard molecular-dynamics cell list, rebuilt from scratch
// each simulation step: at the percolation scale r ≈ √(n/k) a cell holds
// O(1) agents, the visibility-graph builder walks the rows once, and the
// sort itself is two linear passes over k agents.
//
// Radius queries scan the block of cells within ceil(r / bucket_side) of
// the probe's cell — for every metric we support (L1 ≤ r, L∞ ≤ r, L2 ≤ r
// all imply per-axis offset ≤ r) — using each row slice plus a binary
// search on the cell column. They are correct for any radius; with the
// for_radius() sizing the block is the familiar 3×3.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "grid/grid.hpp"
#include "grid/point.hpp"

namespace smn::spatial {

/// Sorted cell list over a Grid2D with square cells.
class BucketIndex {
public:
    /// Readable slack after the last sorted agent in ids()/xs()/ys(), so
    /// fixed-width vector kernels may load a full 8-lane chunk from any
    /// sorted offset; the slack's contents are unspecified.
    static constexpr std::size_t kPad = 8;

    /// `bucket_side` must be >= 1. Radius queries work for any radius; the
    /// scan widens automatically when radius > bucket_side.
    BucketIndex(const grid::Grid2D& grid, grid::Coord bucket_side)
        : grid_{grid}, side_{bucket_side} {
        if (bucket_side < 1) {
            throw std::invalid_argument("BucketIndex: bucket_side must be >= 1");
        }
        // 64-bit: width + side - 1 overflows int32 for sides near INT32_MAX.
        buckets_x_ = static_cast<grid::Coord>((std::int64_t{grid.width()} + bucket_side - 1) /
                                              bucket_side);
        buckets_y_ = static_cast<grid::Coord>((std::int64_t{grid.height()} + bucket_side - 1) /
                                              bucket_side);
        // Power-of-two side (the common for_radius outcome at the tracked
        // scales): axis -> cell is a single shift.
        if ((bucket_side & (bucket_side - 1)) == 0) {
            side_shift_ = std::countr_zero(static_cast<std::uint32_t>(bucket_side));
        }
        col_off_.assign(static_cast<std::size_t>(buckets_x_) + 1, 0);
        row_off_.assign(static_cast<std::size_t>(buckets_y_) + 1, 0);
    }

    /// Index sized for radius-r queries: cell side r, clamped to [1, grid
    /// diameter] (a larger radius connects the same pairs, and the clamp
    /// keeps the geometry inside int32).
    static BucketIndex for_radius(const grid::Grid2D& grid, std::int64_t radius) {
        const auto diameter = std::max<std::int64_t>(grid.diameter(), 1);
        const auto side = std::clamp<std::int64_t>(radius, 1, diameter);
        return BucketIndex{grid, static_cast<grid::Coord>(side)};
    }

    [[nodiscard]] grid::Coord bucket_side() const noexcept { return side_; }
    [[nodiscard]] grid::Coord buckets_x() const noexcept { return buckets_x_; }
    [[nodiscard]] grid::Coord buckets_y() const noexcept { return buckets_y_; }

    /// Cell column / row of an axis value.
    [[nodiscard]] grid::Coord cell_of(grid::Coord v) const noexcept {
        return side_shift_ >= 0 ? v >> side_shift_ : v / side_;
    }

    /// Sorts the agents by cell (index = agent id). Positions are copied
    /// into the sorted arrays, so the span need not outlive the call.
    void rebuild(std::span<const grid::Point> positions) {
        const auto k = positions.size();
        const bool same_agents = agent_col_.size() == k;
        agent_col_.resize(k);
        agent_row_.resize(k);
        by_col_.resize(k);
        ids_.resize(k + kPad);
        xs_.resize(k + kPad);
        ys_.resize(k + kPad);
        cols_.resize(k + kPad);
        std::fill(col_off_.begin(), col_off_.end(), 0);
        std::fill(row_off_.begin(), row_off_.end(), 0);
        std::size_t relinked = 0;
        for (std::size_t a = 0; a < k; ++a) {
            const auto col = cell_of(positions[a].x);
            const auto row = cell_of(positions[a].y);
            relinked += static_cast<std::size_t>((col != agent_col_[a]) | (row != agent_row_[a]));
            agent_col_[a] = col;
            agent_row_[a] = row;
            ++col_off_[static_cast<std::size_t>(col) + 1];
            ++row_off_[static_cast<std::size_t>(row) + 1];
        }
        relinked_ = same_agents ? relinked : 0;
        // Pass 1: stable by column. The inclusive scan turns col_off_[c]
        // into column c's begin, used as its write cursor.
        for (std::size_t c = 1; c < col_off_.size(); ++c) col_off_[c] += col_off_[c - 1];
        for (std::size_t a = 0; a < k; ++a) {
            by_col_[static_cast<std::size_t>(col_off_[static_cast<std::size_t>(agent_col_[a])]++)] =
                static_cast<std::int32_t>(a);
        }
        // Pass 2: stable by row over the column order. The shifted scan
        // turns row_off_[r + 1] into row r's begin, used as its write
        // cursor; once every agent is placed it is row r's end, which is
        // row r + 1's begin.
        std::int32_t begin = 0;
        for (std::size_t r = 1; r < row_off_.size(); ++r) {
            const auto count = row_off_[r];
            row_off_[r] = begin;
            begin += count;
        }
        for (std::size_t i = 0; i < k; ++i) {
            const auto a = static_cast<std::size_t>(by_col_[i]);
            const auto slot = static_cast<std::size_t>(
                row_off_[static_cast<std::size_t>(agent_row_[a]) + 1]++);
            ids_[slot] = static_cast<std::int32_t>(a);
            xs_[slot] = positions[a].x;
            ys_[slot] = positions[a].y;
            cols_[slot] = agent_col_[a];
        }
    }

    /// The sorted arrays, each size() + kPad long: agent id, x, y and cell
    /// column of every sorted slot.
    [[nodiscard]] const std::int32_t* ids() const noexcept { return ids_.data(); }
    [[nodiscard]] const grid::Coord* xs() const noexcept { return xs_.data(); }
    [[nodiscard]] const grid::Coord* ys() const noexcept { return ys_.data(); }
    [[nodiscard]] const grid::Coord* cols() const noexcept { return cols_.data(); }

    /// Agents whose cell differs from the one the previous rebuild gave
    /// them (0 when the agent count changed in between).
    [[nodiscard]] std::size_t relinked() const noexcept { return relinked_; }

    /// Agents indexed by the last rebuild.
    [[nodiscard]] std::size_t size() const noexcept { return by_col_.size(); }

    /// Sorted slots [row_begin(r), row_end(r)) hold cell row r, ordered by
    /// column then agent id; row_end(r) == row_begin(r + 1).
    [[nodiscard]] std::size_t row_begin(grid::Coord row) const noexcept {
        return static_cast<std::size_t>(row_off_[static_cast<std::size_t>(row)]);
    }
    [[nodiscard]] std::size_t row_end(grid::Coord row) const noexcept {
        return static_cast<std::size_t>(row_off_[static_cast<std::size_t>(row) + 1]);
    }

    /// Calls `fn(agent_id)` for every agent within distance `radius` of `p`
    /// under `metric` (including agents exactly at distance radius and any
    /// agent co-located with p). Correct for any radius: the cell scan
    /// widens to ceil(radius / bucket_side) rings as needed.
    template <typename Fn>
    void for_each_within(grid::Point p, std::int64_t radius, grid::Metric metric,
                         Fn&& fn) const {
        radius = std::min(radius, grid_.diameter());
        const auto reach = static_cast<grid::Coord>((radius + side_ - 1) / side_);
        const auto bx = cell_of(p.x);
        const auto by = cell_of(p.y);
        const auto col_lo = bx - reach;
        const auto col_hi = bx + reach;
        for (grid::Coord cy = std::max<grid::Coord>(0, by - reach);
             cy <= std::min<grid::Coord>(buckets_y_ - 1, by + reach); ++cy) {
            const auto end = cols_.begin() + static_cast<std::ptrdiff_t>(row_end(cy));
            for (auto it = std::lower_bound(
                     cols_.begin() + static_cast<std::ptrdiff_t>(row_begin(cy)), end, col_lo);
                 it != end && *it <= col_hi; ++it) {
                const auto s = static_cast<std::size_t>(it - cols_.begin());
                if (grid::within(p, {xs_[s], ys_[s]}, radius, metric)) fn(ids_[s]);
            }
        }
    }

    /// Brute-force reference for testing: same contract as for_each_within.
    template <typename Fn>
    static void for_each_within_naive(std::span<const grid::Point> positions, grid::Point p,
                                      std::int64_t radius, grid::Metric metric, Fn&& fn) {
        for (std::size_t a = 0; a < positions.size(); ++a) {
            if (grid::within(p, positions[a], radius, metric)) {
                fn(static_cast<std::int32_t>(a));
            }
        }
    }

private:
    grid::Grid2D grid_;
    grid::Coord side_;
    int side_shift_{-1};  ///< log2(side_) when side_ is a power of two, else -1
    grid::Coord buckets_x_{0};
    grid::Coord buckets_y_{0};
    std::vector<std::int32_t> col_off_;    ///< column counts / write cursors (pass 1)
    std::vector<std::int32_t> row_off_;    ///< row -> first sorted slot; size rows + 1
    std::vector<grid::Coord> agent_col_;   ///< agent -> cell column
    std::vector<grid::Coord> agent_row_;   ///< agent -> cell row
    std::vector<std::int32_t> by_col_;     ///< agent ids in column order
    std::vector<std::int32_t> ids_;        ///< sorted slot -> agent id
    std::vector<grid::Coord> xs_;          ///< sorted slot -> x
    std::vector<grid::Coord> ys_;          ///< sorted slot -> y
    std::vector<grid::Coord> cols_;        ///< sorted slot -> cell column
    std::size_t relinked_{0};              ///< see relinked()
};

}  // namespace smn::spatial
