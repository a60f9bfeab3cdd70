// tessellation.hpp — partition of the grid into ℓ×ℓ cells.
//
// The upper-bound proof (Sec. 3.1) tessellates G_n into cells of side
// ℓ = sqrt(14 n log³n / (c₃ k)) and tracks when each cell is first reached
// by an informed agent ("explored"). The Tessellation class implements the
// same partition and is used by the frontier/coverage observers and by the
// cell-exploration experiment (E22, the cell_spread scenario).
//
// Cells on the top/right border may be smaller than ℓ when ℓ does not
// divide the grid side — exactly as in the paper's tessellation, which only
// needs the *at most* ℓ×ℓ property.
#pragma once

#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "grid/grid.hpp"
#include "grid/point.hpp"

namespace smn::grid {

/// Index of a tessellation cell.
using CellId = std::int64_t;

/// Partition of a Grid2D into square cells of side `cell_side` (border
/// cells may be truncated).
class Tessellation {
public:
    /// Throws std::invalid_argument if cell_side < 1.
    Tessellation(const Grid2D& grid, Coord cell_side)
        : grid_{grid}, cell_side_{cell_side} {
        if (cell_side < 1) {
            throw std::invalid_argument("Tessellation: cell_side must be >= 1");
        }
        cells_x_ = (grid.width() + cell_side - 1) / cell_side;
        cells_y_ = (grid.height() + cell_side - 1) / cell_side;
    }

    [[nodiscard]] Coord cell_side() const noexcept { return cell_side_; }
    [[nodiscard]] Coord cells_x() const noexcept { return cells_x_; }
    [[nodiscard]] Coord cells_y() const noexcept { return cells_y_; }

    /// Total number of cells.
    [[nodiscard]] std::int64_t cell_count() const noexcept {
        return std::int64_t{cells_x_} * cells_y_;
    }

    /// Cell coordinates (cx, cy) of a grid point.
    [[nodiscard]] Point cell_coords(Point p) const noexcept {
        assert(grid_.contains(p));
        return Point{static_cast<Coord>(p.x / cell_side_), static_cast<Coord>(p.y / cell_side_)};
    }

    /// Dense cell id of the cell containing p.
    [[nodiscard]] CellId cell_of(Point p) const noexcept {
        const Point c = cell_coords(p);
        return std::int64_t{c.y} * cells_x_ + c.x;
    }

    /// Lower-left grid node of cell (cx, cy).
    [[nodiscard]] Point cell_origin(Point cell) const noexcept {
        return Point{static_cast<Coord>(cell.x * cell_side_),
                     static_cast<Coord>(cell.y * cell_side_)};
    }

    /// Central grid node of a cell, clamped into the grid (the paper's
    /// "center node v of Q" in Lemma 5).
    [[nodiscard]] Point cell_center(Point cell) const noexcept {
        const Point origin = cell_origin(cell);
        return grid_.clamp(Point{static_cast<Coord>(origin.x + cell_side_ / 2),
                                 static_cast<Coord>(origin.y + cell_side_ / 2)});
    }

    /// Cell coordinates from a dense cell id.
    [[nodiscard]] Point cell_point(CellId id) const noexcept {
        assert(id >= 0 && id < cell_count());
        return Point{static_cast<Coord>(id % cells_x_), static_cast<Coord>(id / cells_x_)};
    }

    /// Writes the 4-neighborhood of a cell (in cell coordinates) into `out`;
    /// returns the count. Used by the cell-exploration process of Lemma 5.
    int cell_neighbors(Point cell, std::span<Point, 4> out) const noexcept {
        int count = 0;
        if (cell.x > 0) out[static_cast<std::size_t>(count++)] = Point{static_cast<Coord>(cell.x - 1), cell.y};
        if (cell.x + 1 < cells_x_) out[static_cast<std::size_t>(count++)] = Point{static_cast<Coord>(cell.x + 1), cell.y};
        if (cell.y > 0) out[static_cast<std::size_t>(count++)] = Point{cell.x, static_cast<Coord>(cell.y - 1)};
        if (cell.y + 1 < cells_y_) out[static_cast<std::size_t>(count++)] = Point{cell.x, static_cast<Coord>(cell.y + 1)};
        return count;
    }

    /// Number of grid nodes in a (possibly truncated border) cell.
    [[nodiscard]] std::int64_t cell_node_count(Point cell) const noexcept {
        const Point origin = cell_origin(cell);
        const std::int64_t w =
            std::min<std::int64_t>(cell_side_, grid_.width() - origin.x);
        const std::int64_t h =
            std::min<std::int64_t>(cell_side_, grid_.height() - origin.y);
        return w * h;
    }

    [[nodiscard]] const Grid2D& grid() const noexcept { return grid_; }

private:
    Grid2D grid_;
    Coord cell_side_;
    Coord cells_x_{0};
    Coord cells_y_{0};
};

}  // namespace smn::grid
