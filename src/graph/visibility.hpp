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
//  * r = 0  — co-location only; uses OccupancyMap, O(k).
//  * r ≥ 1  — BucketIndex with bucket side r; each scan *unit* is an
//             occupied bucket paired with itself and its forward
//             half-neighborhood (E, SW, S, SE), so every unordered
//             in-range pair is covered by exactly one unit.
//
// Dirty-region component pass (PR 4): per scan unit the builder caches the
// *reduced spanning edges* — the subset of the unit's in-range pairs that
// survive a unit-local mini-DSU, at most (agents touched − 1) edges — in a
// compact double-buffered edge arena. On rebuild_components(), a unit
// whose scan footprint (its bucket + forward neighbors) contains no bucket
// dirtied since the previous rebuild replays its cached edges in O(edges);
// only dirty footprints re-enumerate pairs. The resulting partition is
// identical because a spanning subset of each unit's pair edges yields the
// same DSU components (property-tested against build_naive). When the
// dirty fraction is high (the all-move model dirties nearly every bucket
// every step) the pass adaptively *bypasses* the cache — no mini-DSU, no
// arena writes, no taint expansion, pairs united straight into the DSU —
// because replay could save nothing; the switch depends only on the
// (deterministic) dirty set, so trajectories are unaffected.
//
// The scan can be sharded across an in-process worker pool
// (SMN_STEP_THREADS, default 1): units are partitioned into contiguous
// row-major shards, workers enumerate pairs into per-shard edge buffers,
// and a single merge walks the shards in fixed row order performing the
// unions — the DSU sees the same union sequence at any thread count, so
// every trajectory is bit-identical (enforced by determinism tests).
//
// Two usage protocols:
//  * build() — one-shot: (re)index the positions and compute components.
//  * incremental — build() (or any prior build) indexes the storage once;
//    afterwards call begin_step() before a step's moves, report every node
//    change via on_move(), and call rebuild_components() to recompute the
//    partition from the maintained index + edge cache. Components cannot
//    be maintained under edge *deletions*, so the DSU is always
//    recomputed; the savings are the spatial index and the clean-region
//    replay. (begin_step() is optional when every rebuild consumes the
//    moves since the previous one, as rebuild_components() closes the
//    dirty epoch itself.)
//
// ComponentStats summarizes a partition: component count, maximum size
// ("islands" of Definition 2 / Lemma 6), size histogram, and the largest
// component's fraction of all agents (the percolation order parameter).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "graph/dsu.hpp"
#include "grid/grid.hpp"
#include "grid/point.hpp"
#include "spatial/bucket_index.hpp"
#include "spatial/occupancy.hpp"
#include "util/worker_pool.hpp"

namespace smn::graph {

/// Builds connected components of G_t(r) into `dsu` (which is reset).
/// Reusable across steps: keeps its spatial structures, edge cache and
/// worker pool allocated.
class VisibilityGraphBuilder {
public:
    /// Cumulative scan telemetry: unit- and pass-level counts plus the
    /// per-pair and per-edge tallies.
    struct ScanStats {
        std::int64_t passes{0};            ///< component passes (r >= 1)
        std::int64_t bypass_passes{0};     ///< passes that bypassed the edge cache
        std::int64_t replayed_units{0};    ///< units replayed from the cache
        std::int64_t rescanned_units{0};   ///< units re-enumerated
        std::int64_t dirty_buckets{0};     ///< dirty buckets consumed across passes
        std::int64_t pairs_tested{0};      ///< candidate pairs distance-tested
        std::int64_t pairs_survived{0};    ///< in-range pairs reaching the sink
        std::int64_t edges_cached{0};      ///< spanning edges written by rescans
        std::int64_t edges_replayed{0};    ///< spanning edges replayed from cache
    };

    /// `radius` is the transmission radius r >= 0; `metric` defaults to the
    /// paper's Manhattan metric. The intra-step thread count is read from
    /// SMN_STEP_THREADS here (util::step_threads()).
    VisibilityGraphBuilder(const grid::Grid2D& grid, std::int64_t radius,
                           grid::Metric metric = grid::Metric::kManhattan);

    /// Computes the components of G_t(r) for the given positions,
    /// (re)indexing them from scratch. The positions storage must stay
    /// alive and in place for as long as the incremental protocol below is
    /// used. Postcondition: dsu.element_count() == positions.size().
    void build(std::span<const grid::Point> positions, DisjointSets& dsu);

    /// Incremental protocol, step 0: open a fresh dirty epoch before the
    /// step's moves. Optional when rebuild_components() runs after every
    /// batch of moves (it closes the epoch itself).
    void begin_step() noexcept {
        if (radius_ >= 1) buckets_.begin_step();
    }

    /// Incremental protocol, step 1: tell the index one agent changed node.
    /// Call after writing the new position into the indexed storage. O(1).
    void on_move(std::int32_t agent, grid::Point from, grid::Point to) {
        if (radius_ >= 1) buckets_.move(agent, from, to);
    }

    /// Incremental protocol, step 2: recompute the components from the
    /// incrementally maintained index and the spanning-edge cache.
    /// `positions` must be the same storage last passed to build(), with
    /// every node change since then reported through on_move(). (For r = 0
    /// this simply delegates to build — the occupancy rebuild is already
    /// O(k) with a small constant.) Closes the dirty epoch.
    void rebuild_components(std::span<const grid::Point> positions, DisjointSets& dsu);

    [[nodiscard]] std::int64_t radius() const noexcept { return radius_; }
    [[nodiscard]] grid::Metric metric() const noexcept { return metric_; }

    /// Intra-step scan threads in use (SMN_STEP_THREADS at construction).
    [[nodiscard]] int scan_threads() const noexcept { return threads_; }

    /// Enables wall-clock attribution of the rebuild's index-prep portion
    /// (unit enumeration + taint expansion); read it via prep_seconds().
    void set_timing(bool on) noexcept { timing_ = on; }

    /// Cumulative seconds spent in index prep across all rebuilds (0 until
    /// set_timing(true)).
    [[nodiscard]] double prep_seconds() const noexcept { return prep_seconds_; }

    /// Scan units replayed from the edge cache / rescanned since
    /// construction (diagnostics; also exercised by tests).
    [[nodiscard]] std::int64_t replayed_units() const noexcept { return stats_.replayed_units; }
    [[nodiscard]] std::int64_t rescanned_units() const noexcept {
        return stats_.rescanned_units;
    }

    /// Full cumulative scan telemetry (see ScanStats).
    [[nodiscard]] const ScanStats& scan_stats() const noexcept { return stats_; }

    /// Telemetry of the underlying bucket index (zero-valued for r = 0).
    [[nodiscard]] const spatial::BucketIndex::Stats& index_stats() const noexcept {
        return buckets_.stats();
    }

    /// Occupied scan units right now (0 for r = 0, where there are no scan
    /// units — the occupancy path visits cells, not buckets).
    [[nodiscard]] std::int64_t occupied_units() const noexcept {
        return radius_ >= 1 ? static_cast<std::int64_t>(buckets_.occupied_bucket_count()) : 0;
    }

    /// Brute-force O(k²) reference builder used by tests.
    static void build_naive(std::span<const grid::Point> positions, std::int64_t radius,
                            grid::Metric metric, DisjointSets& dsu);

private:
    /// One cached spanning edge (agent ids).
    struct CachedEdge {
        std::int32_t a;
        std::int32_t b;
    };

    /// Per-worker scratch: the gathered slice of the unit's own bucket
    /// plus an epoch-stamped mini-DSU over agent ids (local to one scan
    /// unit at a time; only used on the cached path).
    struct ScanScratch {
        std::vector<std::int32_t> ids;
        std::vector<grid::Coord> xs;
        std::vector<grid::Coord> ys;
        std::vector<std::int32_t> parent;
        std::vector<std::uint64_t> stamp;
        std::uint64_t epoch{0};
        // Per-worker pair tallies, drained into stats_ after each pass
        // (plain fields: each worker owns one scratch for the pass).
        std::int64_t pairs_tested{0};
        std::int64_t pairs_survived{0};
    };

    /// Per-shard rescan output: surviving edges plus one count per bucket
    /// in the shard's range (-1 = replay from the previous arena).
    struct ShardOutput {
        std::vector<CachedEdge> edges;
        std::vector<std::int32_t> counts;
    };

    /// One gathered row of buckets for the rolling-window serial scan:
    /// per-bucket slices (off[bx]..off[bx+1]) of ids and coordinates, in
    /// list order. Two of these cover a unit's whole reach-1 footprint and
    /// stay L1-resident, so each agent's position is loaded from the
    /// random-access positions array exactly once per step.
    struct RowBuffer {
        std::vector<std::int32_t> off;  ///< size buckets_x + 1, prefix offsets
        std::vector<std::int32_t> ids;
        std::vector<grid::Coord> xs;
        std::vector<grid::Coord> ys;
        std::vector<grid::Coord> occ;  ///< the row's occupied bx, ascending
    };

    void component_pass(std::span<const grid::Point> positions, DisjointSets& dsu,
                        bool force_rescan);
    void expand_taint();
    template <grid::Metric M, bool kBypass>
    void serial_pass(std::span<const grid::Point> positions, DisjointSets& dsu,
                     bool force_rescan);
    template <grid::Metric M, bool kBypass>
    void row_window_pass(std::span<const grid::Point> positions, DisjointSets& dsu,
                         bool force_rescan);
    void gather_row(grid::Coord row, std::span<const grid::Point> positions, RowBuffer& buf);
    template <grid::Metric M, bool kFilter>
    void scan_unit_window(const RowBuffer& self_row, const RowBuffer* south_row,
                          grid::Coord bx, ScanScratch& scratch, std::vector<CachedEdge>* out,
                          DisjointSets* dsu);
    template <grid::Metric M, bool kBypass>
    void sharded_pass(std::span<const grid::Point> positions, DisjointSets& dsu,
                      bool force_rescan);
    template <grid::Metric M, bool kFilter>
    void scan_unit(std::int64_t bucket, std::span<const grid::Point> positions,
                   ScanScratch& scratch, std::vector<CachedEdge>* out, DisjointSets* dsu);
    void enumerate_units();
    void prepare_scratch(std::size_t k, int count, bool mini);
    template <bool kFilter>
    void record_pair(ScanScratch& scratch, std::int32_t a, std::int32_t b,
                     std::vector<CachedEdge>* out, DisjointSets* dsu);
    void commit_entry(std::size_t bucket, const CachedEdge* edges, std::size_t count,
                      DisjointSets& dsu);

    /// The shared replay-or-rescan step of the cached serial passes:
    /// replay `bucket`'s previous entry if its footprint is clean, else
    /// run `rescan(arena)` (which must append the unit's surviving edges
    /// to the passed arena) and commit the fresh entry around it. All
    /// entry bookkeeping lives here so the passes cannot diverge.
    template <typename Rescan>
    void replay_or_rescan(std::int64_t bucket, bool force_rescan, DisjointSets& dsu,
                          Rescan&& rescan) {
        const auto bi = static_cast<std::size_t>(bucket);
        const auto cur = static_cast<std::size_t>(seq_ & 1);
        if (replayable(bucket, force_rescan)) {
            ++stats_.replayed_units;
            const auto prev = cur ^ 1;
            stats_.edges_replayed += entry_len_[prev][bi];
            commit_entry(bi, arena_[prev].data() + entry_off_[prev][bi],
                         static_cast<std::size_t>(entry_len_[prev][bi]), dsu);
            return;
        }
        ++stats_.rescanned_units;
        auto& arena = arena_[cur];
        const auto start = arena.size();
        entry_off_[cur][bi] = static_cast<std::int32_t>(start);
        rescan(arena);
        entry_len_[cur][bi] = static_cast<std::int32_t>(arena.size() - start);
        stats_.edges_cached += entry_len_[cur][bi];
        entry_stamp_[bi] = seq_;
    }
    [[nodiscard]] bool replayable(std::int64_t bucket, bool force_rescan) const noexcept {
        return !force_rescan &&
               entry_stamp_[static_cast<std::size_t>(bucket)] == seq_ - 1 &&
               taint_stamp_[static_cast<std::size_t>(bucket)] != seq_;
    }
    [[nodiscard]] std::int32_t mini_find(ScanScratch& scratch, std::int32_t x) const noexcept;

    grid::Grid2D grid_;
    std::int64_t radius_;
    grid::Coord rad32_;  ///< radius clamped to int32 for the lane kernels
    grid::Metric metric_;
    spatial::OccupancyMap occupancy_;  ///< used when radius == 0
    spatial::BucketIndex buckets_;     ///< used when radius >= 1

    // Scan geometry: forward half-neighborhood offsets (scanned) and their
    // mirror (tainted by a dirty bucket), precomputed for the builder's
    // radius; the reach-1 case (E, SW, S, SE) takes an unrolled path with
    // per-bucket boundary flags, which are static geometry.
    grid::Coord reach_{1};
    std::vector<std::pair<grid::Coord, grid::Coord>> scan_fwd_;
    std::vector<std::pair<grid::Coord, grid::Coord>> taint_back_;
    std::vector<std::uint8_t> edge_flags_;  ///< bucket -> W/E/S-neighbor existence

    // Spanning-edge cache: double-buffered arena + per-bucket entries.
    std::vector<CachedEdge> arena_[2];
    std::vector<std::int32_t> entry_off_[2];
    std::vector<std::int32_t> entry_len_[2];
    std::vector<std::uint64_t> entry_stamp_;  ///< bucket -> seq of last entry
    std::vector<std::uint64_t> taint_stamp_;  ///< bucket -> seq of last taint
    std::uint64_t seq_{0};                    ///< rebuild sequence number

    // Sharded scan (SMN_STEP_THREADS > 1).
    int threads_{1};
    std::unique_ptr<util::WorkerPool> pool_;
    std::vector<std::int64_t> units_;   ///< occupied buckets, row-major order
    RowBuffer rows_[2];                 ///< rolling window of the serial scan
    std::vector<std::int32_t> pair_a_;  ///< bypass pair staging, first ids
    std::vector<std::int32_t> pair_b_;  ///< bypass pair staging, second ids
    std::vector<ScanScratch> scratch_;  ///< per worker (index 0 on the serial path)
    std::vector<ShardOutput> shard_out_;                         ///< per shard
    std::vector<std::pair<std::int32_t, std::int32_t>> shards_;  ///< [begin,end) in units_

    bool timing_{false};
    double prep_seconds_{0.0};
    ScanStats stats_;  ///< cumulative scan telemetry (see ScanStats)
};

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
/// (resized as needed) — the allocation-free form for per-step observers.
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
