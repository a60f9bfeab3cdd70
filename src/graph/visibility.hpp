// visibility.hpp — the dynamic communication graph G_t(r).
//
// Given the agents' positions at time t and a transmission radius r, the
// visibility graph has an edge between two agents iff their Manhattan
// distance is ≤ r (paper Sec. 2; the metric is configurable for ablation).
// We never materialize the full edge set: the consumers only need
// *connected components* (rumors flood a component within the step), so
// the builder unions agents directly into a DisjointSets via the spatial
// index.
//
//  * r = 0  — co-location only: one pass over the agents through the
//             stamped node table (spatial::ColocationTable); the first
//             agent seen on a node absorbs every later one. O(k).
//  * r ≥ 1  — one component pass per step: a counting sort of the agents
//             into a cell list with cell side r (spatial::BucketIndex),
//             then one walk over the cell rows. Each occupied cell is
//             paired with itself and its forward half-neighborhood (E,
//             SW, S, SE), so every unordered in-range pair is tested by
//             exactly one cell. Radii beyond the grid diameter are clamped
//             to it: any larger r connects the same pairs.
//
// Components cannot be maintained under edge deletions, so every pass
// recomputes the DSU from scratch; only the partition is specified, not
// the DSU's root choice or union order.
//
// Below r_c almost every agent is alone in its component, so each build
// also lists the *linked* agents — the members of every non-singleton
// component — in O(pairs). Exchanges iterate that list instead of all k
// agents: a singleton can neither learn nor teach.
//
// ComponentStats summarizes a partition: component count, maximum size
// ("islands" of Definition 2 / Lemma 6), size histogram, and the largest
// component's fraction of all agents (the percolation order parameter).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/dsu.hpp"
#include "grid/grid.hpp"
#include "grid/point.hpp"
#include "spatial/bucket_index.hpp"
#include "spatial/colocation_table.hpp"

namespace smn::graph {

/// Builds connected components of G_t(r) into `dsu` (which is reset).
/// Reusable across steps: keeps its spatial structures and pair staging
/// allocated.
class VisibilityGraphBuilder {
public:
    /// Cumulative scan telemetry: cell- and pass-level counts plus the
    /// per-pair tallies. The replay fields are kept for consumers that
    /// compare counters by name (paperbench's shadow loop, until ROADMAP.md
    /// item 2); the pass has no edge cache, so they are always 0.
    struct ScanStats {
        std::int64_t passes{0};            ///< component passes (r >= 1)
        std::int64_t bypass_passes{0};     ///< always 0
        std::int64_t replayed_units{0};    ///< always 0
        std::int64_t rescanned_units{0};   ///< occupied cells scanned
        std::int64_t pairs_tested{0};      ///< candidate pairs distance-tested
        std::int64_t pairs_survived{0};    ///< in-range pairs reaching the DSU
        std::int64_t edges_replayed{0};    ///< always 0
    };

    /// Agent motion between consecutive passes (r >= 1 only), found by
    /// comparing each pass's positions and cells with the previous
    /// pass's: the walk reports no moves.
    struct IndexStats {
        std::int64_t moves{0};    ///< agents whose node changed
        std::int64_t relinks{0};  ///< agents whose cell changed
    };

    /// `radius` is the transmission radius r >= 0; `metric` defaults to the
    /// paper's Manhattan metric.
    VisibilityGraphBuilder(const grid::Grid2D& grid, std::int64_t radius,
                           grid::Metric metric = grid::Metric::kManhattan);

    /// Computes the components of G_t(r) for the given positions and the
    /// linked() list. Postcondition: dsu.element_count() == positions.size().
    void build(std::span<const grid::Point> positions, DisjointSets& dsu);

    /// Members of every component of size >= 2 after the last build(), each
    /// exactly once, in no specified order: the agents with at least one
    /// in-range partner.
    [[nodiscard]] std::span<const std::int32_t> linked() const noexcept { return linked_; }

    // ---- For paperbench's shadow loop only; deleted together with that
    // caller when the shadow is refreshed (ROADMAP.md, item 2). Library
    // code must not call these; the walk adapters that feed on_move() are
    // the matching block in walk/ensemble.hpp.

    /// Same as build(): every pass re-sorts the positions, so there is no
    /// incremental state to maintain.
    void rebuild_components(std::span<const grid::Point> positions, DisjointSets& dsu) {
        build(positions, dsu);
    }

    /// No-op: the pass keeps no per-step state.
    void begin_step() noexcept {}

    /// No-op: build() tallies index_stats() itself.
    void on_move(std::int32_t /*agent*/, grid::Point /*from*/, grid::Point /*to*/) noexcept {}

    // ---- End of the paperbench-only block.

    [[nodiscard]] std::int64_t radius() const noexcept { return radius_; }
    [[nodiscard]] grid::Metric metric() const noexcept { return metric_; }

    /// Enables wall-clock attribution of each pass's cell sort; read it
    /// via index_seconds().
    void set_timing(bool on) noexcept { timing_ = on; }

    /// Cumulative seconds spent sorting agents into the cell list (0 until
    /// set_timing(true)).
    [[nodiscard]] double index_seconds() const noexcept { return index_seconds_; }

    /// Full cumulative scan telemetry (see ScanStats).
    [[nodiscard]] const ScanStats& scan_stats() const noexcept { return stats_; }

    /// Cumulative motion tallies (see IndexStats).
    [[nodiscard]] const IndexStats& index_stats() const noexcept { return index_stats_; }

    /// Occupied cells scanned by the last pass (0 for r = 0, where the
    /// co-location pass visits agents, not cells).
    [[nodiscard]] std::int64_t occupied_units() const noexcept { return occupied_units_; }

    /// Brute-force O(k²) reference builder used by tests.
    static void build_naive(std::span<const grid::Point> positions, std::int64_t radius,
                            grid::Metric metric, DisjointSets& dsu);

private:
    template <grid::Metric M>
    void component_pass(DisjointSets& dsu);
    void tally_moves(std::span<const grid::Point> positions);

    /// Appends `a` to linked_ unless it is already listed.
    void link(std::int32_t a) noexcept {
        auto& flag = linked_flag_[static_cast<std::size_t>(a)];
        if (flag == 0) {
            flag = 1;
            linked_.push_back(a);
        }
    }

    grid::Grid2D grid_;
    std::int64_t radius_;
    grid::Coord eff_radius_;  ///< radius clamped to the grid diameter
    grid::Metric metric_;
    spatial::ColocationTable colocation_;  ///< r = 0 only; empty otherwise
    spatial::BucketIndex cells_;           ///< used when radius >= 1
    std::vector<std::int32_t> linked_;       ///< see linked()
    std::vector<std::uint8_t> linked_flag_;  ///< agent → listed in linked_
    std::vector<std::int32_t> pair_a_;  ///< staged in-range pairs, first ids
    std::vector<std::int32_t> pair_b_;  ///< staged in-range pairs, second ids
    std::vector<grid::Point> prev_;     ///< r >= 1: positions at the last pass
    std::int64_t occupied_units_{0};
    bool timing_{false};
    double index_seconds_{0.0};
    ScanStats stats_;          ///< cumulative scan telemetry
    IndexStats index_stats_;   ///< cumulative motion tallies
};

/// The r = 0 component pass over `table` (any BasicColocationTable, so
/// tests can reach the stamp wrap): the first agent to claim a node absorbs
/// every later one, and `link` gets both ends of every union. `dsu` must
/// hold positions.size() singletons.
template <typename Table, typename Link>
void colocation_pass(Table& table, const grid::Grid2D& grid,
                     std::span<const grid::Point> positions, DisjointSets& dsu, Link&& link) {
    const auto pass = table.begin_pass();
    const auto k = static_cast<std::int32_t>(positions.size());
    for (std::int32_t a = 0; a < k; ++a) {
        const auto first = pass.claim(grid.node_id(positions[static_cast<std::size_t>(a)]), a);
        if (first == spatial::kNone) continue;
        link(first);
        link(a);
        (void)dsu.unite_root(first, a);
    }
}

/// Summary of a component partition of k agents.
struct ComponentStats {
    std::int64_t component_count{0};   ///< number of connected components
    std::int64_t max_size{0};          ///< largest component ("island") size
    double mean_size{0.0};             ///< average component size
    double largest_fraction{0.0};      ///< max_size / k, percolation order parameter
    std::vector<std::int64_t> size_histogram;  ///< index s → #components of size s (0 unused)

    /// Number of isolated agents (components of size 1).
    [[nodiscard]] std::int64_t singletons() const noexcept {
        return size_histogram.size() > 1 ? size_histogram[1] : 0;
    }
};

/// Computes statistics of the partition currently held by `dsu` into `out`,
/// reusing out.size_histogram and the caller-provided per-root size scratch
/// (resized as needed) — the allocation-free form for per-step callers.
void component_stats(DisjointSets& dsu, ComponentStats& out,
                     std::vector<std::int64_t>& root_size_scratch);

/// Allocating convenience form of the above.
[[nodiscard]] ComponentStats component_stats(DisjointSets& dsu);

/// Extracts the component label (root id) of each agent into `out` (resized
/// to the element count). Labels are root agent ids, not compacted.
void component_labels(DisjointSets& dsu, std::vector<std::int32_t>& out);

/// Allocating convenience form of the above.
[[nodiscard]] std::vector<std::int32_t> component_labels(DisjointSets& dsu);

}  // namespace smn::graph
