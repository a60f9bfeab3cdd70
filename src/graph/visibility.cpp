#include "graph/visibility.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <limits>

#include "graph/range_filter.hpp"

namespace smn::graph {
namespace {

/// Coordinate-wise in-range test (metric resolved at compile time), the
/// hot predicate of the pair scan. L1/L∞ stay in 32-bit arithmetic
/// (coords are int32, so |dx|+|dy| < 2^32 cannot overflow a signed 64-bit
/// add of two int32 — and fits int32 since coords are grid-bounded);
/// squared Euclidean promotes to 64-bit.
template <grid::Metric M>
[[nodiscard]] inline bool within_coords(grid::Coord ax, grid::Coord ay, grid::Coord bx,
                                        grid::Coord by, std::int64_t radius) noexcept {
    if constexpr (M == grid::Metric::kEuclidean) {
        const std::int64_t dx = std::int64_t{ax} - bx;
        const std::int64_t dy = std::int64_t{ay} - by;
        return dx * dx + dy * dy <= radius * radius;
    } else {
        const std::int32_t dx = ax - bx;
        const std::int32_t dy = ay - by;
        const std::int32_t adx = dx < 0 ? -dx : dx;
        const std::int32_t ady = dy < 0 ? -dy : dy;
        if constexpr (M == grid::Metric::kManhattan) {
            return std::int64_t{adx} + ady <= radius;
        } else {
            return std::int64_t{adx > ady ? adx : ady} <= radius;
        }
    }
}

}  // namespace

VisibilityGraphBuilder::VisibilityGraphBuilder(const grid::Grid2D& grid, std::int64_t radius,
                                               grid::Metric metric)
    : grid_{grid},
      radius_{radius},
      rad32_{static_cast<grid::Coord>(
          std::min<std::int64_t>(radius, std::numeric_limits<grid::Coord>::max()))},
      metric_{metric},
      occupancy_{grid},
      buckets_{spatial::BucketIndex::for_radius(grid, radius)},
      threads_{util::step_threads()} {
    if (radius_ >= 1) {
        // Forward half-neighborhood for this radius/bucket-side pair: with
        // the for_radius sizing the reach is 1 (E, SW, S, SE), but any
        // reach is supported.
        const auto side = buckets_.bucket_side();
        reach_ = static_cast<grid::Coord>((radius_ + side - 1) / side);
        const auto reach = reach_;
        for (grid::Coord dx = 1; dx <= reach; ++dx) scan_fwd_.emplace_back(dx, 0);
        for (grid::Coord dy = 1; dy <= reach; ++dy) {
            for (grid::Coord dx = -reach; dx <= reach; ++dx) scan_fwd_.emplace_back(dx, dy);
        }
        for (const auto& [dx, dy] : scan_fwd_) taint_back_.emplace_back(-dx, -dy);

        const auto bx_count = buckets_.buckets_x();
        const auto by_count = buckets_.buckets_y();
        const auto bucket_count = static_cast<std::size_t>(std::int64_t{bx_count} * by_count);
        edge_flags_.resize(bucket_count);
        std::size_t b = 0;
        for (grid::Coord by = 0; by < by_count; ++by) {
            for (grid::Coord bx = 0; bx < bx_count; ++bx, ++b) {
                edge_flags_[b] = static_cast<std::uint8_t>((bx > 0 ? 1u : 0u) |
                                                           (bx + 1 < bx_count ? 2u : 0u) |
                                                           (by + 1 < by_count ? 4u : 0u));
            }
        }
        entry_off_[0].assign(bucket_count, 0);
        entry_off_[1].assign(bucket_count, 0);
        entry_len_[0].assign(bucket_count, 0);
        entry_len_[1].assign(bucket_count, 0);
        entry_stamp_.assign(bucket_count, 0);
        taint_stamp_.assign(bucket_count, 0);
    }
}

void VisibilityGraphBuilder::build(std::span<const grid::Point> positions, DisjointSets& dsu) {
    dsu.reset(positions.size());
    if (radius_ == 0) {
        // Co-location: union every agent on a node with the node's first
        // agent; O(k) total.
        occupancy_.rebuild(positions);
        for (const auto node : occupancy_.occupied_nodes()) {
            const auto first = occupancy_.first_at(grid_.point_of(node));
            occupancy_.for_each_at(grid_.point_of(node),
                                   [&](std::int32_t a) { dsu.unite(first, a); });
        }
        return;
    }
    buckets_.rebuild(positions);
    component_pass(positions, dsu, /*force_rescan=*/true);
}

void VisibilityGraphBuilder::rebuild_components(std::span<const grid::Point> positions,
                                                DisjointSets& dsu) {
    if (radius_ == 0) {
        build(positions, dsu);
        return;
    }
    dsu.reset(positions.size());
    component_pass(positions, dsu, /*force_rescan=*/false);
}

void VisibilityGraphBuilder::component_pass(std::span<const grid::Point> positions,
                                            DisjointSets& dsu, bool force_rescan) {
    ++seq_;
    ++stats_.passes;
    stats_.dirty_buckets += static_cast<std::int64_t>(buckets_.dirty_buckets().size());
    // smn-lint: allow(wall-clock) timing-only telemetry, gated behind timing_
    using clock = std::chrono::steady_clock;
    const auto prep_begin = timing_ ? clock::now() : clock::time_point{};
    // Bypass heuristic: once half the occupied buckets are dirty, taint
    // expansion makes nearly every footprint dirty anyway, so cache
    // maintenance can only cost. Build()s force a cached pass so the very
    // next step can already replay. The predicate reads only the
    // deterministic dirty set — identical at any thread count.
    const bool bypass = !force_rescan &&
                        buckets_.dirty_buckets().size() * 2 >= buckets_.occupied_bucket_count();
    if (bypass) ++stats_.bypass_passes;
    if (!bypass && !force_rescan) expand_taint();
    const bool sharded = threads_ > 1 && buckets_.occupied_bucket_count() > 1;
    if (sharded) enumerate_units();  // shards need the unit list upfront
    if (timing_) {
        prep_seconds_ += std::chrono::duration<double>(clock::now() - prep_begin).count();
    }
    const bool dense = buckets_.occupied_bucket_count() * 2 >= entry_stamp_.size();
    const auto dispatch = [&]<grid::Metric M>() {
        if (sharded) {
            bypass ? sharded_pass<M, true>(positions, dsu, force_rescan)
                   : sharded_pass<M, false>(positions, dsu, force_rescan);
        } else if (dense && reach_ == 1) {
            bypass ? row_window_pass<M, true>(positions, dsu, force_rescan)
                   : row_window_pass<M, false>(positions, dsu, force_rescan);
        } else {
            bypass ? serial_pass<M, true>(positions, dsu, force_rescan)
                   : serial_pass<M, false>(positions, dsu, force_rescan);
        }
    };
    switch (metric_) {
        case grid::Metric::kManhattan:
            dispatch.template operator()<grid::Metric::kManhattan>();
            break;
        case grid::Metric::kChebyshev:
            dispatch.template operator()<grid::Metric::kChebyshev>();
            break;
        case grid::Metric::kEuclidean:
            dispatch.template operator()<grid::Metric::kEuclidean>();
            break;
    }
    buckets_.end_step();  // the dirty epoch is consumed
    // Drain the per-worker pair tallies (each worker owned one scratch for
    // the pass, and the pool has joined).
    for (auto& scratch : scratch_) {
        stats_.pairs_tested += scratch.pairs_tested;
        stats_.pairs_survived += scratch.pairs_survived;
        scratch.pairs_tested = 0;
        scratch.pairs_survived = 0;
    }
}

/// Expands the dirty bucket set into taint stamps: a dirty bucket
/// invalidates its own scan unit plus the units whose forward footprint
/// contains it (its backward neighbors).
void VisibilityGraphBuilder::expand_taint() {
    const auto bx_count = buckets_.buckets_x();
    const auto by_count = buckets_.buckets_y();
    for (const auto d : buckets_.dirty_buckets()) {
        const auto dx0 = static_cast<grid::Coord>(d % bx_count);
        const auto dy0 = static_cast<grid::Coord>(d / bx_count);
        taint_stamp_[static_cast<std::size_t>(d)] = seq_;
        for (const auto& [dx, dy] : taint_back_) {
            const auto nx = dx0 + dx;
            const auto ny = dy0 + dy;
            if (nx < 0 || nx >= bx_count || ny < 0 || ny >= by_count) continue;
            taint_stamp_[static_cast<std::size_t>(std::int64_t{ny} * bx_count + nx)] = seq_;
        }
    }
}

/// Fills units_ with the occupied buckets in row-major order: a full sweep
/// in the dense regime (no sort), a sort of the occupied list when buckets
/// far outnumber agents.
void VisibilityGraphBuilder::enumerate_units() {
    const auto bucket_count = entry_stamp_.size();
    const auto occupied = buckets_.occupied_buckets();
    units_.clear();
    if (occupied.size() * 2 >= bucket_count) {
        for (std::int64_t b = 0; b < static_cast<std::int64_t>(bucket_count); ++b) {
            if (buckets_.bucket_occupied(b)) units_.push_back(b);
        }
    } else {
        units_.assign(occupied.begin(), occupied.end());
        std::sort(units_.begin(), units_.end());
    }
}

void VisibilityGraphBuilder::prepare_scratch(std::size_t k, int count, bool mini) {
    if (static_cast<int>(scratch_.size()) < count) {
        scratch_.resize(static_cast<std::size_t>(count));
    }
    if (!mini) return;
    for (int w = 0; w < count; ++w) {
        scratch_[static_cast<std::size_t>(w)].parent.resize(k);
        scratch_[static_cast<std::size_t>(w)].stamp.resize(k, 0);
    }
}

/// The shared pair sink: with kFilter, deduplicate through the unit-local
/// mini-DSU and keep only spanning survivors; route what remains to the
/// edge buffer (`out`) and/or the shared DSU — whichever the calling pass
/// wired up.
template <bool kFilter>
void VisibilityGraphBuilder::record_pair(ScanScratch& scratch, std::int32_t a, std::int32_t b,
                                         std::vector<CachedEdge>* out, DisjointSets* dsu) {
    ++scratch.pairs_survived;
    if constexpr (kFilter) {
        const auto ra = mini_find(scratch, a);
        const auto rb = mini_find(scratch, b);
        if (ra == rb) return;
        scratch.parent[static_cast<std::size_t>(rb)] = ra;
    }
    if (out != nullptr) out->push_back(CachedEdge{a, b});
    if (dsu != nullptr) dsu->unite(a, b);
}

/// Commits `count` edges as bucket `bucket`'s cache entry in the current
/// arena and unions them into `dsu` — the shared tail of every replay and
/// of the sharded merge.
void VisibilityGraphBuilder::commit_entry(std::size_t bucket, const CachedEdge* edges,
                                          std::size_t count, DisjointSets& dsu) {
    const auto cur = static_cast<std::size_t>(seq_ & 1);
    auto& arena = arena_[cur];
    entry_off_[cur][bucket] = static_cast<std::int32_t>(arena.size());
    entry_len_[cur][bucket] = static_cast<std::int32_t>(count);
    entry_stamp_[bucket] = seq_;
    arena.insert(arena.end(), edges, edges + count);
    for (std::size_t e = 0; e < count; ++e) dsu.unite(edges[e].a, edges[e].b);
}

std::int32_t VisibilityGraphBuilder::mini_find(ScanScratch& scratch,
                                               std::int32_t x) const noexcept {
    auto xi = static_cast<std::size_t>(x);
    if (scratch.stamp[xi] != scratch.epoch) {
        scratch.stamp[xi] = scratch.epoch;
        scratch.parent[xi] = x;
        return x;
    }
    // Path halving; every node on the path was stamped when first linked.
    while (scratch.parent[xi] != x) {
        auto& p = scratch.parent[xi];
        p = scratch.parent[static_cast<std::size_t>(p)];
        x = p;
        xi = static_cast<std::size_t>(x);
    }
    return x;
}

/// Enumerates the scan unit of `bucket`: gathers the bucket's members into
/// the scratch slice, then pairs it with itself and its forward
/// half-neighborhood (walking the neighbors' intrusive lists directly —
/// at percolation-scale occupancy a list is 1–2 nodes, cheaper than any
/// per-step re-materialization). With kFilter, in-range pairs go through
/// the unit-local mini-DSU and only survivors reach `out` / `dsu` (the
/// cached path); without it every in-range pair does (the bypass path).
/// `out` is null on the serial bypass path, `dsu` on the sharded paths
/// (workers cannot touch the shared DSU).
template <grid::Metric M, bool kFilter>
void VisibilityGraphBuilder::scan_unit(std::int64_t bucket,
                                       std::span<const grid::Point> positions,
                                       ScanScratch& scratch, std::vector<CachedEdge>* out,
                                       DisjointSets* dsu) {
    if constexpr (kFilter) ++scratch.epoch;
    scratch.ids.clear();
    scratch.xs.clear();
    scratch.ys.clear();
    buckets_.for_each_in_bucket(bucket, [&](std::int32_t a) {
        const auto p = positions[static_cast<std::size_t>(a)];
        scratch.ids.push_back(a);
        scratch.xs.push_back(p.x);
        scratch.ys.push_back(p.y);
    });
    const auto len = scratch.ids.size();
    // Padding owed to the masked in-range kernel (range_filter.hpp).
    scratch.xs.resize(len + kRangePad);
    scratch.ys.resize(len + kRangePad);

    const auto found = [&](std::int32_t a, std::int32_t b) {
        record_pair<kFilter>(scratch, a, b, out, dsu);
    };

    // Self pairs.
    scratch.pairs_tested +=
        len >= 2 ? static_cast<std::int64_t>(len) * (static_cast<std::int64_t>(len) - 1) / 2 : 0;
    for (std::size_t i = 0; i + 1 < len; ++i) {
        const auto xi = scratch.xs[i];
        const auto yi = scratch.ys[i];
        for (std::size_t j = i + 1; j < len; ++j) {
            if (within_coords<M>(xi, yi, scratch.xs[j], scratch.ys[j], radius_)) {
                found(scratch.ids[i], scratch.ids[j]);
            }
        }
    }

    /// Pairs the gathered slice against one forward neighbor's list: one
    /// masked in-range test per ≤8-lane chunk of the slice, survivors
    /// iterated in ascending lane order (= the scalar scan order).
    const auto cross = [&](std::int64_t nb) {
        buckets_.for_each_in_bucket(nb, [&](std::int32_t b) {
            scratch.pairs_tested += static_cast<std::int64_t>(len);
            const auto p = positions[static_cast<std::size_t>(b)];
            for (std::size_t i = 0; i < len; i += kRangeLanes) {
                auto bits = in_range_mask8<M>(scratch.xs.data() + i, scratch.ys.data() + i,
                                              std::min(kRangeLanes, len - i), p.x, p.y, rad32_);
                for (; bits != 0; bits &= bits - 1) {
                    const auto lane = static_cast<std::size_t>(std::countr_zero(bits));
                    found(scratch.ids[i + lane], b);
                }
            }
        });
    };

    if (reach_ == 1) {
        // Unrolled E / SW / S / SE — the for_radius sizing's only shape;
        // neighbor existence is static geometry (edge_flags_).
        const auto flags = edge_flags_[static_cast<std::size_t>(bucket)];
        if (flags & 2u) cross(bucket + 1);
        if (flags & 4u) {
            const auto south = bucket + buckets_.buckets_x();
            if (flags & 1u) cross(south - 1);
            cross(south);
            if (flags & 2u) cross(south + 1);
        }
        return;
    }
    const auto bx_count = buckets_.buckets_x();
    const auto by_count = buckets_.buckets_y();
    const auto bx = static_cast<grid::Coord>(bucket % bx_count);
    const auto by = static_cast<grid::Coord>(bucket / bx_count);
    for (const auto& [dx, dy] : scan_fwd_) {
        const auto nx = bx + dx;
        const auto ny = by + dy;
        if (nx < 0 || nx >= bx_count || ny >= by_count) continue;
        cross(std::int64_t{ny} * bx_count + nx);
    }
}

/// The serial pass: walk the units in row-major order; replay clean units
/// from the previous arena and rescan dirty ones (leaving fresh entries),
/// or — with kBypass — rescan everything straight into the DSU with no
/// cache interaction at all. Entry stamps going stale under bypass is what
/// makes the next cached pass rescan everything once.
template <grid::Metric M, bool kBypass>
void VisibilityGraphBuilder::serial_pass(std::span<const grid::Point> positions,
                                         DisjointSets& dsu, bool force_rescan) {
    prepare_scratch(positions.size(), 1, !kBypass);
    auto& scratch = scratch_[0];
    if constexpr (!kBypass) arena_[seq_ & 1].clear();

    const auto process = [&](std::int64_t b) {
        if constexpr (kBypass) {
            ++stats_.rescanned_units;
            scan_unit<M, false>(b, positions, scratch, nullptr, &dsu);
            return;
        }
        replay_or_rescan(b, force_rescan, dsu, [&](std::vector<CachedEdge>& arena_out) {
            scan_unit<M, true>(b, positions, scratch, &arena_out, &dsu);
        });
    };

    enumerate_units();
    for (const auto b : units_) process(b);
}

/// Gathers one bucket row into `buf`: per-bucket slices in list order,
/// each agent's position read from the random-access storage exactly once.
void VisibilityGraphBuilder::gather_row(grid::Coord row, std::span<const grid::Point> positions,
                                        RowBuffer& buf) {
    const auto bx_count = buckets_.buckets_x();
    buf.off.resize(static_cast<std::size_t>(bx_count) + 1);
    // Sized once for the worst case (every agent in one row); the writes
    // below are then unchecked index stores instead of push_backs. The
    // extra kRangePad elements honor the masked in-range kernel's padding
    // contract (range_filter.hpp).
    if (buf.ids.size() < positions.size() + kRangePad) {
        buf.ids.resize(positions.size() + kRangePad);
        buf.xs.resize(positions.size() + kRangePad);
        buf.ys.resize(positions.size() + kRangePad);
    }
    const auto base = std::int64_t{row} * bx_count;
    buf.occ.clear();
    std::int32_t n = 0;
    for (grid::Coord bx = 0; bx < bx_count; ++bx) {
        const auto start = n;
        buf.off[static_cast<std::size_t>(bx)] = start;
        buckets_.for_each_in_bucket(base + bx, [&](std::int32_t a) {
            const auto p = positions[static_cast<std::size_t>(a)];
            const auto slot = static_cast<std::size_t>(n++);
            buf.ids[slot] = a;
            buf.xs[slot] = p.x;
            buf.ys[slot] = p.y;
        });
        if (n != start) buf.occ.push_back(bx);
    }
    buf.off[static_cast<std::size_t>(bx_count)] = n;
}

/// scan_unit over the rolling window: identical pair enumeration order,
/// but every slice read is L1-resident. `south_row` is null on the last
/// bucket row.
template <grid::Metric M, bool kFilter>
void VisibilityGraphBuilder::scan_unit_window(const RowBuffer& self_row,
                                              const RowBuffer* south_row, grid::Coord bx,
                                              ScanScratch& scratch,
                                              std::vector<CachedEdge>* out, DisjointSets* dsu) {
    if constexpr (kFilter) ++scratch.epoch;
    const auto bx_count = buckets_.buckets_x();
    const auto off = static_cast<std::size_t>(self_row.off[static_cast<std::size_t>(bx)]);
    const auto end = static_cast<std::size_t>(self_row.off[static_cast<std::size_t>(bx) + 1]);

    const auto found = [&](std::int32_t a, std::int32_t b) {
        record_pair<kFilter>(scratch, a, b, out, dsu);
    };

    // Self pairs.
    scratch.pairs_tested += end - off >= 2 ? static_cast<std::int64_t>(end - off) *
                                                 (static_cast<std::int64_t>(end - off) - 1) / 2
                                           : 0;
    for (std::size_t i = off; i + 1 < end; ++i) {
        const auto xi = self_row.xs[i];
        const auto yi = self_row.ys[i];
        for (std::size_t j = i + 1; j < end; ++j) {
            if (within_coords<M>(xi, yi, self_row.xs[j], self_row.ys[j], radius_)) {
                found(self_row.ids[i], self_row.ids[j]);
            }
        }
    }

    /// Pairs the unit's slice against a contiguous range of a row buffer,
    /// neighbor-member outer — row buffers are bucket-ordered, so the
    /// merged SW|S|SE range enumerates members in exactly the order the
    /// per-bucket cross calls of scan_unit do (thread invariance depends
    /// on this). Both shapes run the masked in-range kernel
    /// (range_filter.hpp) and walk the survivor bits in ascending lane
    /// order, so the pair order matches the scalar loops they replaced.
    const auto cross_range = [&](const RowBuffer& row, std::size_t noff, std::size_t nend) {
        scratch.pairs_tested +=
            static_cast<std::int64_t>(nend - noff) * static_cast<std::int64_t>(end - off);
        if (end - off == 1) {
            // Single-occupant unit (the most common bucket at percolation
            // occupancy): hoist the self coords and sweep the neighbor
            // range 8 candidates per test.
            const auto xi = self_row.xs[off];
            const auto yi = self_row.ys[off];
            const auto id = self_row.ids[off];
            for (std::size_t j = noff; j < nend; j += kRangeLanes) {
                auto bits = in_range_mask8<M>(row.xs.data() + j, row.ys.data() + j,
                                              std::min(kRangeLanes, nend - j), xi, yi, rad32_);
                for (; bits != 0; bits &= bits - 1) {
                    const auto lane = static_cast<std::size_t>(std::countr_zero(bits));
                    found(id, row.ids[j + lane]);
                }
            }
            return;
        }
        for (std::size_t j = noff; j < nend; ++j) {
            const auto xj = row.xs[j];
            const auto yj = row.ys[j];
            const auto idj = row.ids[j];
            for (std::size_t i = off; i < end; i += kRangeLanes) {
                auto bits =
                    in_range_mask8<M>(self_row.xs.data() + i, self_row.ys.data() + i,
                                      std::min(kRangeLanes, end - i), xj, yj, rad32_);
                for (; bits != 0; bits &= bits - 1) {
                    const auto lane = static_cast<std::size_t>(std::countr_zero(bits));
                    found(self_row.ids[i + lane], idj);
                }
            }
        }
    };

    if (bx + 1 < bx_count) {  // E
        cross_range(self_row,
                    static_cast<std::size_t>(self_row.off[static_cast<std::size_t>(bx) + 1]),
                    static_cast<std::size_t>(self_row.off[static_cast<std::size_t>(bx) + 2]));
    }
    if (south_row != nullptr) {  // SW | S | SE as one contiguous range
        const auto lo = static_cast<std::size_t>(bx > 0 ? bx - 1 : 0);
        const auto hi = static_cast<std::size_t>(bx + 1 < bx_count ? bx + 2 : bx + 1);
        cross_range(*south_row, static_cast<std::size_t>(south_row->off[lo]),
                    static_cast<std::size_t>(south_row->off[hi]));
    }
}

/// The dense serial pass as a rolling two-row window: row R+1 is gathered
/// while row R's units are scanned, so the whole reach-1 footprint of
/// every unit lives in two compact row buffers.
template <grid::Metric M, bool kBypass>
void VisibilityGraphBuilder::row_window_pass(std::span<const grid::Point> positions,
                                             DisjointSets& dsu, bool force_rescan) {
    prepare_scratch(positions.size(), 1, !kBypass);
    auto& scratch = scratch_[0];
    if constexpr (!kBypass) arena_[seq_ & 1].clear();

    const auto bx_count = buckets_.buckets_x();
    const auto by_count = buckets_.buckets_y();
    gather_row(0, positions, rows_[0]);
    std::int64_t units = 0;
    for (grid::Coord row = 0; row < by_count; ++row) {
        auto& self_row = rows_[static_cast<std::size_t>(row & 1)];
        RowBuffer* south_row = nullptr;
        if (row + 1 < by_count) {
            south_row = &rows_[static_cast<std::size_t>((row + 1) & 1)];
            gather_row(row + 1, positions, *south_row);
        }
        const auto base = std::int64_t{row} * bx_count;
        if constexpr (!kBypass) {
            for (const auto bx : self_row.occ) {
                replay_or_rescan(base + bx, force_rescan, dsu,
                                 [&](std::vector<CachedEdge>& arena_out) {
                                     scan_unit_window<M, true>(self_row, south_row, bx, scratch,
                                                               &arena_out, &dsu);
                                 });
            }
        } else {
            // Bypass: enumerate the row's pairs into the staging arrays —
            // same pairs in the same order as scan_unit / scan_unit_window
            // (mask-compress keeps the ascending lane order), but with the
            // branchy survivor walks and DSU unions hoisted out of the
            // per-unit control flow. One tight union loop then drains the
            // row, preserving the global union sequence.
            units += static_cast<std::int64_t>(self_row.occ.size());
            std::size_t np = 0;
            const auto grown = [&](std::size_t need) {
                if (pair_a_.size() < need) {
                    pair_a_.resize(need * 2);
                    pair_b_.resize(need * 2);
                }
            };
            for (const auto bx : self_row.occ) {
                const auto o =
                    static_cast<std::size_t>(self_row.off[static_cast<std::size_t>(bx)]);
                const auto e =
                    static_cast<std::size_t>(self_row.off[static_cast<std::size_t>(bx) + 1]);
                if (e - o == 1) {
                    // Single-occupant unit, the common bucket at percolation
                    // occupancy: two masked sweeps, E then the merged
                    // SW|S|SE range, against the hoisted self point.
                    const auto xi = self_row.xs[o];
                    const auto yi = self_row.ys[o];
                    const auto id = self_row.ids[o];
                    const auto sweep = [&](const RowBuffer& nrow, std::size_t j0,
                                           std::size_t j1) {
                        scratch.pairs_tested += static_cast<std::int64_t>(j1 - j0);
                        for (std::size_t j = j0; j < j1; j += kRangeLanes) {
                            const auto bits =
                                in_range_mask8<M>(nrow.xs.data() + j, nrow.ys.data() + j,
                                                  std::min(kRangeLanes, j1 - j), xi, yi, rad32_);
                            grown(np + kRangeLanes);
                            util::simd::I32x8::splat(id).store(pair_a_.data() + np);
                            np += compress_store8(bits, nrow.ids.data() + j,
                                                  pair_b_.data() + np);
                        }
                    };
                    if (bx + 1 < bx_count) {
                        sweep(self_row, e,
                              static_cast<std::size_t>(
                                  self_row.off[static_cast<std::size_t>(bx) + 2]));
                    }
                    if (south_row != nullptr) {
                        const auto lo = static_cast<std::size_t>(bx > 0 ? bx - 1 : 0);
                        const auto hi = static_cast<std::size_t>(bx + 1 < bx_count ? bx + 2
                                                                                   : bx + 1);
                        sweep(*south_row, static_cast<std::size_t>(south_row->off[lo]),
                              static_cast<std::size_t>(south_row->off[hi]));
                    }
                } else {
                    // Multi-occupant unit: scalar self pairs, then the
                    // neighbor-member-outer masked sweeps over the self
                    // slice — the general cross_range shape.
                    scratch.pairs_tested += static_cast<std::int64_t>(e - o) *
                                            (static_cast<std::int64_t>(e - o) - 1) / 2;
                    for (std::size_t i = o; i + 1 < e; ++i) {
                        const auto xi = self_row.xs[i];
                        const auto yi = self_row.ys[i];
                        for (std::size_t j = i + 1; j < e; ++j) {
                            if (within_coords<M>(xi, yi, self_row.xs[j], self_row.ys[j],
                                                 radius_)) {
                                grown(np + 1);
                                pair_a_[np] = self_row.ids[i];
                                pair_b_[np] = self_row.ids[j];
                                ++np;
                            }
                        }
                    }
                    const auto cross = [&](const RowBuffer& nrow, std::size_t j0,
                                           std::size_t j1) {
                        scratch.pairs_tested += static_cast<std::int64_t>(j1 - j0) *
                                                static_cast<std::int64_t>(e - o);
                        for (std::size_t j = j0; j < j1; ++j) {
                            const auto xj = nrow.xs[j];
                            const auto yj = nrow.ys[j];
                            const auto idj = nrow.ids[j];
                            for (std::size_t i = o; i < e; i += kRangeLanes) {
                                const auto bits = in_range_mask8<M>(
                                    self_row.xs.data() + i, self_row.ys.data() + i,
                                    std::min(kRangeLanes, e - i), xj, yj, rad32_);
                                grown(np + kRangeLanes);
                                util::simd::I32x8::splat(idj).store(pair_b_.data() + np);
                                np += compress_store8(bits, self_row.ids.data() + i,
                                                      pair_a_.data() + np);
                            }
                        }
                    };
                    if (bx + 1 < bx_count) {
                        cross(self_row, e,
                              static_cast<std::size_t>(
                                  self_row.off[static_cast<std::size_t>(bx) + 2]));
                    }
                    if (south_row != nullptr) {
                        const auto lo = static_cast<std::size_t>(bx > 0 ? bx - 1 : 0);
                        const auto hi = static_cast<std::size_t>(bx + 1 < bx_count ? bx + 2
                                                                                   : bx + 1);
                        cross(*south_row, static_cast<std::size_t>(south_row->off[lo]),
                              static_cast<std::size_t>(south_row->off[hi]));
                    }
                }
            }
            // The staged pairs arrive in runs sharing their a side (one
            // sweep's survivors splat the same id), so a's root is found
            // once per run and carried through unite_root — the same link
            // sequence unite() would produce, minus the repeated finds.
            scratch.pairs_survived += static_cast<std::int64_t>(np);
            std::int32_t last_a = -1;
            std::int32_t root_a = -1;
            for (std::size_t i = 0; i < np; ++i) {
                const auto a = pair_a_[i];
                if (a != last_a) {
                    last_a = a;
                    root_a = dsu.find(a);
                }
                root_a = dsu.unite_root(root_a, pair_b_[i]);
            }
        }
    }
    if constexpr (kBypass) stats_.rescanned_units += units;
}

/// The sharded pass: units_ is partitioned into contiguous row-major
/// ranges; workers enumerate pairs into per-shard buffers (replaying units
/// are just marked), then a single merge walks the shards in order
/// committing entries and unions — the union sequence, and so the DSU
/// state, matches the serial path exactly.
template <grid::Metric M, bool kBypass>
void VisibilityGraphBuilder::sharded_pass(std::span<const grid::Point> positions,
                                          DisjointSets& dsu, bool force_rescan) {
    prepare_scratch(positions.size(), threads_, !kBypass);
    const auto cur = static_cast<std::size_t>(seq_ & 1);
    const auto prev = cur ^ 1;
    auto& arena = arena_[cur];
    if constexpr (!kBypass) arena.clear();

    // Contiguous ranges of roughly equal unit count; work stealing evens
    // out occupancy imbalance across ~4 shards per worker.
    const auto unit_count = static_cast<std::int32_t>(units_.size());
    const auto per_shard =
        std::max<std::int32_t>(1, unit_count / static_cast<std::int32_t>(threads_ * 4));
    shards_.clear();
    for (std::int32_t begin = 0; begin < unit_count; begin += per_shard) {
        shards_.emplace_back(begin, std::min(unit_count, begin + per_shard));
    }
    const auto shard_count = static_cast<int>(shards_.size());
    if (static_cast<int>(shard_out_.size()) < shard_count) {
        shard_out_.resize(static_cast<std::size_t>(shard_count));
    }
    if (pool_ == nullptr) pool_ = std::make_unique<util::WorkerPool>(threads_);

    pool_->run(shard_count, [&](int s, int worker) {
        auto& out = shard_out_[static_cast<std::size_t>(s)];
        out.edges.clear();
        out.counts.clear();
        auto& scratch = scratch_[static_cast<std::size_t>(worker)];
        const auto [lo, hi] = shards_[static_cast<std::size_t>(s)];
        for (std::int32_t i = lo; i < hi; ++i) {
            const auto b = units_[static_cast<std::size_t>(i)];
            if constexpr (kBypass) {
                scan_unit<M, false>(b, positions, scratch, &out.edges, nullptr);
            } else if (replayable(b, force_rescan)) {
                out.counts.push_back(-1);
            } else {
                const auto start = out.edges.size();
                scan_unit<M, true>(b, positions, scratch, &out.edges, nullptr);
                out.counts.push_back(static_cast<std::int32_t>(out.edges.size() - start));
            }
        }
    });

    if constexpr (kBypass) {
        stats_.rescanned_units += unit_count;
        for (int s = 0; s < shard_count; ++s) {
            for (const auto& e : shard_out_[static_cast<std::size_t>(s)].edges) {
                dsu.unite(e.a, e.b);
            }
        }
        return;
    }
    for (int s = 0; s < shard_count; ++s) {
        const auto& out = shard_out_[static_cast<std::size_t>(s)];
        const auto [lo, hi] = shards_[static_cast<std::size_t>(s)];
        std::size_t pos = 0;
        for (std::int32_t i = lo; i < hi; ++i) {
            const auto b = units_[static_cast<std::size_t>(i)];
            const auto bi = static_cast<std::size_t>(b);
            const auto count = out.counts[static_cast<std::size_t>(i - lo)];
            if (count < 0) {
                ++stats_.replayed_units;
                stats_.edges_replayed += entry_len_[prev][bi];
                commit_entry(bi, arena_[prev].data() + entry_off_[prev][bi],
                             static_cast<std::size_t>(entry_len_[prev][bi]), dsu);
            } else {
                ++stats_.rescanned_units;
                stats_.edges_cached += count;
                commit_entry(bi, out.edges.data() + pos, static_cast<std::size_t>(count), dsu);
                pos += static_cast<std::size_t>(count);
            }
        }
    }
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
