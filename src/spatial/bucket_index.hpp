// bucket_index.hpp — spatial hash for radius queries (r > 0).
//
// Buckets the grid into squares of side `bucket_side` and answers "all
// agents within distance r of p" by scanning the block of buckets within
// ceil(r / bucket_side) of p's bucket — for every metric we support
// (L1 ≤ r, L∞ ≤ r, L2 ≤ r all imply per-axis offset ≤ r), so the scan is
// correct for ANY radius, not just radius ≤ bucket_side. When the index is
// sized with for_radius() the scan is the familiar 3×3 block.
//
// The index is *incremental*: after a rebuild(), move() relocates a single
// agent between buckets in O(1) (doubly linked intrusive lists), so a
// simulation step in which agents move at most one cell only pays for the
// boundary-crossing agents instead of re-linking all k. The common cases —
// agent stays in its bucket, or crosses into an adjacent one — are decided
// with multiplications against the cached per-agent bucket coordinates;
// the division fallback only runs on teleports. rebuild() remains the
// reference path for initialization and bulk repositioning.
//
// Dirty-step protocol: every move() additionally stamps the source and
// destination buckets *dirty* for the current step epoch (a within-bucket
// node change dirties its bucket too — positions inside a bucket decide
// edge existence). Consumers that cache per-bucket derived state (the
// visibility graph's spanning-edge cache) read `dirty_buckets()` to know
// exactly which neighborhoods changed since the last epoch boundary.
// `begin_step()` opens a fresh epoch before the moves of a simulation
// step; `end_step()` closes it after the dirty set has been consumed.
// Both clear the set, so callers that only ever consume-then-clear (the
// builder's rebuild path) work without an explicit begin_step().
//
// This is the workhorse behind visibility-graph construction: the expected
// occupancy of a bucket at the percolation scale r ≈ √(n/k) is O(1), so
// building G_t(r) costs O(k) expected per time step, and the incremental
// maintenance costs O(#boundary crossers) ≪ k.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "grid/grid.hpp"
#include "grid/point.hpp"

namespace smn::spatial {

/// Spatial hash over a Grid2D with square buckets.
class BucketIndex {
public:
    /// Telemetry tallies; cumulative over the index's lifetime, never
    /// consulted by the index itself.
    struct Stats {
        std::int64_t moves{0};        ///< move() calls
        std::int64_t relinks{0};      ///< moves that crossed a bucket boundary
        std::int64_t dirty_marks{0};  ///< buckets stamped dirty (once per epoch)
        std::int64_t rebuilds{0};     ///< rebuild() calls
    };


    /// `bucket_side` must be >= 1. Radius queries work for any radius; the
    /// scan widens automatically when radius > bucket_side.
    BucketIndex(const grid::Grid2D& grid, grid::Coord bucket_side)
        : grid_{grid}, side_{bucket_side} {
        if (bucket_side < 1) {
            throw std::invalid_argument("BucketIndex: bucket_side must be >= 1");
        }
        buckets_x_ = (grid.width() + bucket_side - 1) / bucket_side;
        buckets_y_ = (grid.height() + bucket_side - 1) / bucket_side;
        // Power-of-two bucket side (the common for_radius outcome at the
        // tracked scales): axis -> bucket is a single shift in move().
        if ((bucket_side & (bucket_side - 1)) == 0) {
            side_shift_ = std::countr_zero(static_cast<std::uint32_t>(bucket_side));
        }
        const auto bucket_count = static_cast<std::size_t>(std::int64_t{buckets_x_} * buckets_y_);
        head_.assign(bucket_count, -1);
        where_.assign(bucket_count, -1);
        dirty_stamp_.assign(bucket_count, 0);
    }

    /// Convenience: index sized for radius-r queries (bucket side max(r,1)).
    static BucketIndex for_radius(const grid::Grid2D& grid, std::int64_t radius) {
        const auto side = static_cast<grid::Coord>(std::max<std::int64_t>(radius, 1));
        return BucketIndex{grid, side};
    }

    [[nodiscard]] grid::Coord bucket_side() const noexcept { return side_; }
    [[nodiscard]] grid::Coord buckets_x() const noexcept { return buckets_x_; }
    [[nodiscard]] grid::Coord buckets_y() const noexcept { return buckets_y_; }

    /// Number of buckets currently holding at least one agent.
    [[nodiscard]] std::size_t occupied_bucket_count() const noexcept { return occupied_.size(); }

    /// Buckets with >= 1 agent, in no particular order.
    [[nodiscard]] std::span<const std::int64_t> occupied_buckets() const noexcept {
        return occupied_;
    }

    /// True iff `bucket` currently holds at least one agent.
    [[nodiscard]] bool bucket_occupied(std::int64_t bucket) const noexcept {
        return head_[static_cast<std::size_t>(bucket)] != -1;
    }

    [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

    /// Calls `fn(agent_id)` for every agent currently linked into `bucket`.
    template <typename Fn>
    void for_each_in_bucket(std::int64_t bucket, Fn&& fn) const {
        for (auto a = head_[static_cast<std::size_t>(bucket)]; a != -1;
             a = next_[static_cast<std::size_t>(a)]) {
            fn(a);
        }
    }

    // ------------------------------------------------------- dirty protocol

    /// Opens a fresh dirty epoch (discards any accumulated dirty marks).
    /// Call before the moves of a simulation step.
    void begin_step() noexcept { clear_dirty(); }

    /// Closes the epoch after the dirty set has been consumed.
    void end_step() noexcept { clear_dirty(); }

    /// Buckets stamped dirty by move() since the last epoch boundary, in
    /// first-dirtied order, each at most once.
    [[nodiscard]] std::span<const std::int64_t> dirty_buckets() const noexcept {
        return dirty_list_;
    }

    /// True iff `bucket` was stamped dirty in the current epoch.
    [[nodiscard]] bool is_dirty(std::int64_t bucket) const noexcept {
        return dirty_stamp_[static_cast<std::size_t>(bucket)] == dirty_epoch_;
    }

    /// Rebuilds from current agent positions (index = agent id). The span's
    /// storage must stay alive and in place until the next rebuild: queries
    /// read positions through it, and move() keeps it authoritative.
    void rebuild(std::span<const grid::Point> positions) {
        for (const auto b : occupied_) {
            head_[static_cast<std::size_t>(b)] = -1;
            where_[static_cast<std::size_t>(b)] = -1;
        }
        occupied_.clear();
        clear_dirty();
        ++stats_.rebuilds;
        const auto k = positions.size();
        next_.assign(k, -1);
        prev_.assign(k, -1);
        agent_bx_.resize(k);
        agent_by_.resize(k);
        points_ = positions;
        for (std::size_t a = 0; a < k; ++a) {
            link_front(static_cast<std::int32_t>(a), positions[a].x / side_,
                       positions[a].y / side_);
        }
    }

    /// Relocates one agent after it moved from `from` to `to`; amortized
    /// O(1). The caller must already have written `to` into the positions
    /// storage the index was rebuilt over. Stamps the source and
    /// destination buckets dirty; the re-link is a no-op when both map to
    /// the same bucket.
    void move(std::int32_t agent, grid::Point from, grid::Point to) {
        ++stats_.moves;
        const auto a = static_cast<std::size_t>(agent);
        assert(a < next_.size() && "BucketIndex::move before rebuild");
        assert(agent_bx_[a] == from.x / side_ && agent_by_[a] == from.y / side_ &&
               "BucketIndex::move: stale `from` position");
        (void)from;
        const auto bx = agent_bx_[a];
        const auto by = agent_by_[a];
        // Power-of-two sides map an axis to its bucket with one shift;
        // otherwise the adjacent-bucket fast path (multiplications only)
        // with a division fallback for teleports spanning several buckets.
        grid::Coord nbx, nby;
        if (side_shift_ >= 0) {
            nbx = to.x >> side_shift_;
            nby = to.y >> side_shift_;
        } else {
            nbx = shift_bucket(bx, to.x);
            nby = shift_bucket(by, to.y);
        }
        mark_dirty(std::int64_t{by} * buckets_x_ + bx);
        if (nbx == bx && nby == by) return;
        ++stats_.relinks;
        mark_dirty(std::int64_t{nby} * buckets_x_ + nbx);
        // Unlink from the old bucket.
        const auto nxt = next_[a];
        const auto prv = prev_[a];
        if (prv != -1) {
            next_[static_cast<std::size_t>(prv)] = nxt;
        } else {
            const auto bucket = std::int64_t{by} * buckets_x_ + bx;
            head_[static_cast<std::size_t>(bucket)] = nxt;
            if (nxt == -1) drop_occupied(bucket);
        }
        if (nxt != -1) prev_[static_cast<std::size_t>(nxt)] = prv;
        link_front(agent, nbx, nby);
    }

    /// Calls `fn(agent_id)` for every agent within distance `radius` of `p`
    /// under `metric` (including agents exactly at distance radius and any
    /// agent co-located with p). Correct for any radius: the bucket scan
    /// widens to ceil(radius / bucket_side) rings as needed.
    template <typename Fn>
    void for_each_within(grid::Point p, std::int64_t radius, grid::Metric metric,
                         Fn&& fn) const {
        const auto reach = static_cast<grid::Coord>((radius + side_ - 1) / side_);
        const auto bx = p.x / side_;
        const auto by = p.y / side_;
        for (grid::Coord cy = std::max<grid::Coord>(0, by - reach);
             cy <= std::min<grid::Coord>(buckets_y_ - 1, by + reach); ++cy) {
            for (grid::Coord cx = std::max<grid::Coord>(0, bx - reach);
                 cx <= std::min<grid::Coord>(buckets_x_ - 1, bx + reach); ++cx) {
                for (auto a = head_[bucket_slot(cx, cy)]; a != -1;
                     a = next_[static_cast<std::size_t>(a)]) {
                    if (grid::within(p, points_[static_cast<std::size_t>(a)], radius, metric)) {
                        fn(a);
                    }
                }
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

    [[nodiscard]] std::int64_t bucket_of(grid::Point p) const noexcept {
        assert(grid_.contains(p));
        return std::int64_t{p.y / side_} * buckets_x_ + p.x / side_;
    }

private:
    [[nodiscard]] std::size_t bucket_slot(grid::Coord bx, grid::Coord by) const noexcept {
        return static_cast<std::size_t>(std::int64_t{by} * buckets_x_ + bx);
    }

    /// New bucket coordinate of axis value `v` whose previous bucket
    /// coordinate was `c`: unchanged or ±1 without dividing, anything
    /// farther (teleports) via division.
    [[nodiscard]] grid::Coord shift_bucket(grid::Coord c, grid::Coord v) const noexcept {
        if (v < std::int64_t{c} * side_) {
            --c;
            if (v < std::int64_t{c} * side_) c = v / side_;
        } else if (v >= std::int64_t{c + 1} * side_) {
            ++c;
            if (v >= std::int64_t{c + 1} * side_) c = v / side_;
        }
        return c;
    }

    void link_front(std::int32_t agent, grid::Coord bx, grid::Coord by) noexcept {
        const auto a = static_cast<std::size_t>(agent);
        const auto bucket = std::int64_t{by} * buckets_x_ + bx;
        auto& head = head_[static_cast<std::size_t>(bucket)];
        if (head == -1) {
            where_[static_cast<std::size_t>(bucket)] =
                static_cast<std::int32_t>(occupied_.size());
            occupied_.push_back(bucket);
        } else {
            prev_[static_cast<std::size_t>(head)] = agent;
        }
        next_[a] = head;
        prev_[a] = -1;
        head = agent;
        agent_bx_[a] = bx;
        agent_by_[a] = by;
    }

    /// Stamps `bucket` dirty for the current epoch (idempotent per epoch).
    void mark_dirty(std::int64_t bucket) {
        auto& stamp = dirty_stamp_[static_cast<std::size_t>(bucket)];
        if (stamp == dirty_epoch_) return;
        stamp = dirty_epoch_;
        ++stats_.dirty_marks;
        dirty_list_.push_back(bucket);
    }

    /// Discards all dirty marks by opening a new epoch; O(1) amortized.
    void clear_dirty() noexcept {
        dirty_list_.clear();
        ++dirty_epoch_;
    }

    void drop_occupied(std::int64_t bucket) noexcept {
        const auto slot = where_[static_cast<std::size_t>(bucket)];
        const auto last = occupied_.back();
        occupied_[static_cast<std::size_t>(slot)] = last;
        where_[static_cast<std::size_t>(last)] = slot;
        occupied_.pop_back();
        where_[static_cast<std::size_t>(bucket)] = -1;
    }

    grid::Grid2D grid_;
    grid::Coord side_;
    int side_shift_{-1};  ///< log2(side_) when side_ is a power of two, else -1
    grid::Coord buckets_x_{0};
    grid::Coord buckets_y_{0};
    std::vector<std::int32_t> head_;        ///< bucket -> first agent
    std::vector<std::int32_t> next_;        ///< agent -> next in bucket
    std::vector<std::int32_t> prev_;        ///< agent -> previous in bucket
    std::vector<grid::Coord> agent_bx_;     ///< agent -> bucket x coordinate
    std::vector<grid::Coord> agent_by_;     ///< agent -> bucket y coordinate
    std::vector<std::int64_t> occupied_;    ///< buckets with >= 1 agent
    std::vector<std::int32_t> where_;       ///< bucket -> slot in occupied_ (-1)
    std::vector<std::uint64_t> dirty_stamp_;  ///< bucket -> epoch of last dirty mark
    std::vector<std::int64_t> dirty_list_;    ///< buckets dirtied this epoch
    std::uint64_t dirty_epoch_{1};            ///< current epoch (0 = never dirty)
    std::span<const grid::Point> points_;     ///< view of the indexed storage
    Stats stats_;                             ///< telemetry tallies
};

}  // namespace smn::spatial
