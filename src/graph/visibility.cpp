#include "graph/visibility.hpp"

#include <algorithm>
#include <chrono>

#include "graph/range_filter.hpp"

namespace smn::graph {

static_assert(kRangePad <= spatial::BucketIndex::kPad,
              "the cell list must carry the masked in-range kernel's padding");

VisibilityGraphBuilder::VisibilityGraphBuilder(const grid::Grid2D& grid, std::int64_t radius,
                                               grid::Metric metric)
    : grid_{grid},
      radius_{radius},
      eff_radius_{static_cast<grid::Coord>(std::clamp<std::int64_t>(radius, 0, grid.diameter()))},
      metric_{metric},
      colocation_{radius == 0 ? grid.size() : 0},
      cells_{spatial::BucketIndex::for_radius(grid, radius)} {}

void VisibilityGraphBuilder::build(std::span<const grid::Point> positions, DisjointSets& dsu) {
    dsu.reset(positions.size());
    // Unlist the previous build's linked agents: O(|linked|), never O(k).
    for (const auto a : linked_) linked_flag_[static_cast<std::size_t>(a)] = 0;
    linked_.clear();
    linked_flag_.resize(positions.size());
    if (radius_ == 0) {
        colocation_pass(colocation_, grid_, positions, dsu, [this](std::int32_t a) { link(a); });
        return;
    }
    // smn-lint: allow(wall-clock) timing-only telemetry, gated behind timing_
    using clock = std::chrono::steady_clock;
    const auto sort_begin = timing_ ? clock::now() : clock::time_point{};
    cells_.rebuild(positions);
    tally_moves(positions);
    if (timing_) {
        index_seconds_ += std::chrono::duration<double>(clock::now() - sort_begin).count();
    }
    ++stats_.passes;
    switch (metric_) {
        case grid::Metric::kManhattan: component_pass<grid::Metric::kManhattan>(dsu); break;
        case grid::Metric::kChebyshev: component_pass<grid::Metric::kChebyshev>(dsu); break;
        case grid::Metric::kEuclidean: component_pass<grid::Metric::kEuclidean>(dsu); break;
    }
}

/// Counts the agents whose node changed since the last pass, and takes
/// the cell changes from the cell list. The first pass (or one over a
/// different agent count) only records the positions.
void VisibilityGraphBuilder::tally_moves(std::span<const grid::Point> positions) {
    if (prev_.size() == positions.size()) {
        std::int64_t moves = 0;
        for (std::size_t a = 0; a < prev_.size(); ++a) {
            moves += static_cast<std::int64_t>(positions[a] != prev_[a]);
        }
        index_stats_.moves += moves;
        index_stats_.relinks += static_cast<std::int64_t>(cells_.relinked());
    }
    prev_.assign(positions.begin(), positions.end());
}

/// The component pass over the sorted cell list, one cell row at a time.
/// Each member i of an occupied cell [o, e) is tested against the later
/// members of its cell and the E cell (the next run of the row, if its
/// column is one more) — together one contiguous slice [i + 1, east) —
/// and against the SW|S|SE cells, which are one contiguous slice of the
/// next row found by a monotone two-pointer. In-range pairs are staged
/// per row and then drained into the DSU in one tight loop, which also
/// lists both ends of every pair in linked_.
template <grid::Metric M>
void VisibilityGraphBuilder::component_pass(DisjointSets& dsu) {
    const auto* ids = cells_.ids();
    const auto* xs = cells_.xs();
    const auto* ys = cells_.ys();
    const auto* cols = cells_.cols();
    const auto rows = cells_.buckets_y();
    std::int64_t cells = 0;
    std::int64_t tested = 0;
    std::size_t np = 0;
    // Tests member i against the slice [j0, j1), 8 candidates per masked
    // test, staging (ids[i], survivor) pairs.
    const auto sweep = [&](std::size_t i, std::size_t j0, std::size_t j1) {
        tested += static_cast<std::int64_t>(j1 - j0);
        for (std::size_t j = j0; j < j1; j += kRangeLanes) {
            const auto bits = in_range_mask8<M>(xs + j, ys + j, std::min(kRangeLanes, j1 - j),
                                                xs[i], ys[i], eff_radius_);
            if (pair_a_.size() < np + kRangeLanes) {
                pair_a_.resize(2 * (np + kRangeLanes));
                pair_b_.resize(2 * (np + kRangeLanes));
            }
            util::simd::I32x8::splat(ids[i]).store(pair_a_.data() + np);
            np += compress_store8(bits, ids + j, pair_b_.data() + np);
        }
    };

    for (grid::Coord row = 0; row < rows; ++row) {
        const auto row_end = cells_.row_end(row);
        // The next row occupies [row_end, south_end) of the sorted arrays.
        const auto south_end = row + 1 < rows ? cells_.row_end(row + 1) : row_end;
        std::size_t lo = row_end;
        std::size_t hi = row_end;
        np = 0;
        for (std::size_t o = cells_.row_begin(row); o < row_end;) {
            const auto c = cols[o];
            std::size_t e = o + 1;
            while (e < row_end && cols[e] == c) ++e;
            std::size_t east = e;
            while (east < row_end && cols[east] == c + 1) ++east;
            while (lo < south_end && cols[lo] < c - 1) ++lo;
            hi = std::max(hi, lo);
            while (hi < south_end && cols[hi] <= c + 1) ++hi;
            ++cells;
            for (std::size_t i = o; i < e; ++i) {
                sweep(i, i + 1, east);
                sweep(i, lo, hi);
            }
            o = e;
        }
        // The staged pairs arrive in runs sharing their a side (one
        // member's sweeps splat the same id), so a's root is found once
        // per run and carried through unite_root.
        stats_.pairs_survived += static_cast<std::int64_t>(np);
        std::int32_t last_a = -1;
        std::int32_t root_a = -1;
        for (std::size_t i = 0; i < np; ++i) {
            const auto a = pair_a_[i];
            if (a != last_a) {
                last_a = a;
                root_a = dsu.find(a);
                link(a);
            }
            link(pair_b_[i]);
            root_a = dsu.unite_root(root_a, pair_b_[i]);
        }
    }
    occupied_units_ = cells;
    stats_.rescanned_units += cells;
    stats_.pairs_tested += tested;
}

void VisibilityGraphBuilder::build_naive(std::span<const grid::Point> positions,
                                         std::int64_t radius, grid::Metric metric,
                                         DisjointSets& dsu) {
    dsu.reset(positions.size());
    for (std::size_t i = 0; i < positions.size(); ++i) {
        for (std::size_t j = i + 1; j < positions.size(); ++j) {
            if (grid::within(positions[i], positions[j], radius, metric)) {
                dsu.unite(static_cast<std::int32_t>(i), static_cast<std::int32_t>(j));
            }
        }
    }
}

void component_stats(DisjointSets& dsu, ComponentStats& out,
                     std::vector<std::int64_t>& root_size_scratch) {
    out.component_count = 0;
    out.max_size = 0;
    out.mean_size = 0.0;
    out.largest_fraction = 0.0;
    out.size_histogram.clear();
    const auto k = dsu.element_count();
    if (k == 0) return;

    root_size_scratch.assign(k, 0);
    for (std::size_t a = 0; a < k; ++a) {
        ++root_size_scratch[static_cast<std::size_t>(dsu.find(static_cast<std::int32_t>(a)))];
    }

    std::int64_t count = 0;
    std::int64_t max_size = 0;
    for (const auto s : root_size_scratch) {
        if (s == 0) continue;
        ++count;
        max_size = std::max(max_size, s);
    }
    out.component_count = count;
    out.max_size = max_size;
    out.mean_size = static_cast<double>(k) / static_cast<double>(count);
    out.largest_fraction = static_cast<double>(max_size) / static_cast<double>(k);

    out.size_histogram.assign(static_cast<std::size_t>(max_size) + 1, 0);
    for (const auto s : root_size_scratch) {
        if (s > 0) ++out.size_histogram[static_cast<std::size_t>(s)];
    }
}

ComponentStats component_stats(DisjointSets& dsu) {
    ComponentStats stats;
    std::vector<std::int64_t> scratch;
    component_stats(dsu, stats, scratch);
    return stats;
}

void component_labels(DisjointSets& dsu, std::vector<std::int32_t>& out) {
    out.resize(dsu.element_count());
    for (std::size_t a = 0; a < out.size(); ++a) {
        out[a] = dsu.find(static_cast<std::int32_t>(a));
    }
}

std::vector<std::int32_t> component_labels(DisjointSets& dsu) {
    std::vector<std::int32_t> labels;
    component_labels(dsu, labels);
    return labels;
}

}  // namespace smn::graph
