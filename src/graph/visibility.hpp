// visibility.hpp — the dynamic communication graph G_t(r).
//
// Given the agents' positions at time t and a transmission radius r, the
// visibility graph has an edge between two agents iff their Manhattan
// distance is ≤ r (paper Sec. 2; the metric is configurable for ablation).
// We never materialize the full edge set: the consumers only need
// *connected components* (rumors flood a component within the step), so
// the builder unions agents directly into a DisjointSets.
//
// Every radius runs one node-indexed pass, O(k) below r_c:
//
//  * Co-location — one pass over the agents through the stamped node table
//             (spatial::ColocationTable), colocation_pass(), the library's
//             only claim loop: the first agent seen on a node absorbs every
//             later one. At r = 0 that is the whole pass.
//  * r ≥ 1  — the same loop's first-claim hook also sets each occupied
//             node's bit in a one-bit-per-node occupancy bitmap, padded so
//             that no window clips; at every radius the node table is
//             indexed by that padded bit (unpadded at r = 0). Each
//             node's first agent then reads its forward half-neighbourhood
//             from the bitmap — (x, x + h(0)] on its own row and
//             [x − h(dy), x + h(dy)] on rows y + 1 … y + r, h being the
//             metric's half-width — so every unordered pair of in-range
//             nodes is found exactly once. Four nodes at a time: one
//             byte-offset gather per row window (util/simd.hpp), shifted
//             and masked per lane, stored to a word block; only the nodes
//             with a set bit are then resolved, each set bit naming a node
//             whose first agent the table returns. The bitmap's bits are
//             cleared node by node after the pass. Radii beyond the grid
//             diameter are clamped to it: any larger r connects the same
//             pairs.
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

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/dsu.hpp"
#include "grid/grid.hpp"
#include "grid/point.hpp"
#include "spatial/colocation_table.hpp"

namespace smn::graph {

/// Builds connected components of G_t(r) into `dsu` (which is reset).
/// Reusable across steps: keeps its node table, bitmap and word block
/// allocated.
class VisibilityGraphBuilder {
public:
    /// Cumulative telemetry of the r >= 1 node pass. The replay fields are
    /// kept for consumers that compare counters by name (paperbench's
    /// shadow loop, until ROADMAP.md item 2); the pass has no edge cache,
    /// so they are always 0.
    struct ScanStats {
        std::int64_t passes{0};            ///< node passes (r >= 1)
        std::int64_t bypass_passes{0};     ///< always 0
        std::int64_t replayed_units{0};    ///< always 0
        std::int64_t rescanned_units{0};   ///< occupied nodes whose windows were read
        std::int64_t pairs_tested{0};      ///< node pairs read: occupied nodes × window nodes
        std::int64_t pairs_survived{0};    ///< occupied in-range node pairs found (set bits)
        std::int64_t edges_replayed{0};    ///< always 0
    };

    /// Agent motion between consecutive passes (r >= 1 only): the walk
    /// reports no moves, so before its co-location loop each pass compares
    /// every agent's position with the previous pass's and copies it over,
    /// four agents per vector (util/simd.hpp). The first pass, and the first
    /// after the agent count changes, only record the positions.
    struct IndexStats {
        std::int64_t moves{0};    ///< agents whose node changed
        std::int64_t relinks{0};  ///< always 0: the pass has no cells to relink
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

    /// Same as build(): every pass starts from the positions, so there is
    /// no incremental state to maintain.
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

    /// Enables wall-clock attribution of each r >= 1 pass's indexing half;
    /// read it via index_seconds().
    void set_timing(bool on) noexcept { timing_ = on; }

    /// Cumulative seconds spent indexing (0 until set_timing(true)): the
    /// move tally and the co-location pass that fills the node table and
    /// the occupancy bitmap. The window reads and unions are not in it.
    [[nodiscard]] double index_seconds() const noexcept { return index_seconds_; }

    /// Full cumulative scan telemetry (see ScanStats).
    [[nodiscard]] const ScanStats& scan_stats() const noexcept { return stats_; }

    /// Cumulative motion tallies (see IndexStats).
    [[nodiscard]] const IndexStats& index_stats() const noexcept { return index_stats_; }

    /// Occupied nodes in the last r >= 1 pass (0 for r = 0, whose pass
    /// keeps no per-node list).
    [[nodiscard]] std::int64_t occupied_units() const noexcept { return occupied_units_; }

    /// Occupied nodes whose window words one word block holds (r >= 1): a
    /// multiple of 4, sized so the block stays within 16 KiB up to 512
    /// windows per node (one group of 4 nodes beyond that).
    [[nodiscard]] std::size_t chunk_nodes() const noexcept { return chunk_; }

    /// Brute-force O(k²) reference builder used by tests.
    static void build_naive(std::span<const grid::Point> positions, std::int64_t radius,
                            grid::Metric metric, DisjointSets& dsu);

private:
    /// One bitmap load of a node's forward half-neighbourhood, relative to
    /// the node: a window wider than one load is split into several.
    struct Window {
        std::uint64_t bit_offset;  ///< first bit, relative to the node's bit
        std::uint64_t mask;        ///< low `width` bits set
    };

    /// A non-empty window word of one node.
    struct Word {
        std::uint64_t word;
        std::uint64_t bit;  ///< bitmap bit of the word's bit 0
    };

    spatial::ColocationTable::Pass index_pass(std::span<const grid::Point> positions,
                                              DisjointSets& dsu);
    /// Kept out of line, so that inlining it cannot reshape build()'s r = 0
    /// loop, which measured up to 14% slower that way.
    [[gnu::noinline]] void node_pass(spatial::ColocationTable::Pass pass, DisjointSets& dsu);

    /// Appends `a` to linked_ unless it is already listed.
    void link(std::int32_t a) noexcept {
        auto& flag = linked_flag_[static_cast<std::size_t>(a)];
        if (flag == 0) {
            flag = 1;
            linked_.push_back(a);
        }
    }

    std::int64_t radius_;
    grid::Metric metric_;
    std::int64_t pad_;     ///< r >= 1: bitmap bits before row 0's node 0, and after each row
    std::int64_t stride_;  ///< bitmap bits per row (the width at r = 0)
    /// Node → first agent, indexed by pad_ + y·stride_ + x: the node's
    /// bitmap bit at r >= 1, its node id at r = 0.
    spatial::ColocationTable colocation_;
    std::vector<std::uint8_t> bitmap_;  ///< r >= 1: node occupancy, 1 bit per node
    std::vector<Window> windows_;       ///< r >= 1: every node's window loads
    std::int64_t window_nodes_{0};      ///< nodes covered by windows_
    std::size_t chunk_{0};              ///< see chunk_nodes()
    /// r >= 1: this pass's occupied nodes in claim order, as bitmap bit and
    /// first agent; the bits are padded to a whole group of 4 lanes.
    std::vector<std::uint64_t> occupied_bits_;
    std::vector<std::int32_t> occupied_agents_;
    std::vector<std::uint64_t> words_;  ///< word block: window w of chunk node j at [w·chunk_ + j]
    std::vector<std::uint32_t> hits_;   ///< chunk nodes with any set bit in words_
    std::vector<Word> nonempty_;        ///< one hit node's non-empty words
    std::vector<std::int32_t> linked_;       ///< see linked()
    std::vector<std::uint8_t> linked_flag_;  ///< agent → listed in linked_
    std::vector<grid::Point> prev_;     ///< r >= 1: positions at the last pass
    std::int64_t occupied_units_{0};
    bool timing_{false};
    double index_seconds_{0.0};
    ScanStats stats_;          ///< cumulative scan telemetry
    IndexStats index_stats_;   ///< cumulative motion tallies
};

/// The co-location pass over `table` (any BasicColocationTable, so tests
/// can reach the stamp wrap): each agent claims `slot_of(p)` for its
/// position p; the first claimant of a slot gets `on_first(slot, agent)`,
/// and absorbs every later one, `link` getting both ends of every union.
/// `dsu` must hold positions.size() singletons. Returns the pass, whose
/// claims stay readable until the table's next pass.
template <typename Table, typename SlotOf, typename OnFirst, typename Link>
auto colocation_pass(Table& table, std::span<const grid::Point> positions, DisjointSets& dsu,
                     SlotOf&& slot_of, OnFirst&& on_first, Link&& link) {
    const auto pass = table.begin_pass();
    const auto k = static_cast<std::int32_t>(positions.size());
    for (std::int32_t a = 0; a < k; ++a) {
        const auto slot = slot_of(positions[static_cast<std::size_t>(a)]);
        const auto first = pass.claim(slot, a);
        if (first == spatial::kNone) {
            on_first(slot, a);
            continue;
        }
        link(first);
        link(a);
        (void)dsu.unite_root(first, a);
    }
    return pass;
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

/// Computes statistics of the partition currently held by `dsu`.
[[nodiscard]] ComponentStats component_stats(DisjointSets& dsu);

}  // namespace smn::graph
