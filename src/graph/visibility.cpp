#include "graph/visibility.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>

namespace smn::graph {

namespace {

/// Bits one bitmap load yields: 64 minus the at most 7 bits of the byte
/// offset it shifts away.
constexpr std::int64_t kLoadBits = 57;

/// Windows staged before they are resolved (at least one node's worth).
constexpr std::size_t kStagedWindows = 512;

/// Little-endian 64-bit load from any byte address: bit i of the result is
/// bit i % 8 of byte i / 8, as the bitmap is written.
std::uint64_t load_bits(const std::uint8_t* p) noexcept {
    std::uint64_t v = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&v, p, sizeof v);
    } else {
        for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
    }
    return v;
}

}  // namespace

VisibilityGraphBuilder::VisibilityGraphBuilder(const grid::Grid2D& grid, std::int64_t radius,
                                               grid::Metric metric)
    : grid_{grid}, radius_{radius}, metric_{metric}, colocation_{grid.size()} {
    if (radius < 1) return;
    // A radius beyond the diameter connects the same pairs; offsets past
    // the grid's width or height reach no node.
    const auto r = std::min(radius, grid.diameter());
    const auto rows = std::min<std::int64_t>(r, grid.height() - 1);
    const auto reach = std::min<std::int64_t>(r, grid.width() - 1);
    // Node (x, y) is bit pad_ + y·stride_ + x. Every row is followed by
    // `reach` zero bits and the last by `rows` zero rows, so a window of
    // half-width <= reach never reads another row's nodes or past the end;
    // the 8 trailing bytes keep the last load inside the vector.
    pad_ = reach;
    stride_ = grid.width() + reach;
    bitmap_.assign(static_cast<std::size_t>((pad_ + (grid.height() + rows) * stride_) / 8 + 9), 0);
    // Columns [lo, lo + width) of row dy, relative to the node, split into
    // loads of at most kLoadBits.
    const auto add = [&](std::int64_t dy, std::int64_t lo, std::int64_t width) {
        for (std::int64_t at = 0; at < width; at += kLoadBits) {
            const auto bits = std::min(kLoadBits, width - at);
            windows_.push_back({dy * stride_ + lo + at, dy * grid.width() + lo + at,
                                (std::uint64_t{1} << bits) - 1});
        }
        window_nodes_ += width;
    };
    // h is the metric's half-width at row offset dy: r − dy (L1), r (L∞),
    // ⌊√(r² − dy²)⌋ (L2, in integers).
    std::int64_t h = r;
    for (std::int64_t dy = 0; dy <= rows; ++dy) {
        switch (metric) {
            case grid::Metric::kManhattan: h = r - dy; break;
            case grid::Metric::kChebyshev: h = r; break;
            case grid::Metric::kEuclidean:
                while (h * h + dy * dy > r * r) --h;
                break;
        }
        const auto half = std::min(h, reach);
        if (dy == 0) {
            add(0, 1, half);
        } else {
            add(dy, -half, 2 * half + 1);
        }
    }
    staged_.resize(std::max(kStagedWindows, windows_.size()));
}

void VisibilityGraphBuilder::build(std::span<const grid::Point> positions, DisjointSets& dsu) {
    dsu.reset(positions.size());
    // Unlist the previous build's linked agents: O(|linked|), never O(k).
    for (const auto a : linked_) linked_flag_[static_cast<std::size_t>(a)] = 0;
    linked_.clear();
    linked_flag_.resize(positions.size());
    const auto list = [this](std::int32_t a) { link(a); };
    if (radius_ == 0) {
        colocation_pass(colocation_, grid_, positions, dsu, list);
        return;
    }
    // smn-lint: allow(wall-clock) timing-only telemetry, gated behind timing_
    using clock = std::chrono::steady_clock;
    const auto index_begin = timing_ ? clock::now() : clock::time_point{};
    tally_moves(positions);
    occupied_.clear();
    const auto pass = colocation_pass(
        colocation_, grid_, positions, dsu, list, [this](std::int32_t a, grid::Point p) {
            const auto bit = pad_ + std::int64_t{p.y} * stride_ + p.x;
            bitmap_[static_cast<std::size_t>(bit >> 3)] |=
                static_cast<std::uint8_t>(1u << (bit & 7));
            occupied_.push_back({bit, grid_.node_id(p), a});
        });
    if (timing_) {
        index_seconds_ += std::chrono::duration<double>(clock::now() - index_begin).count();
    }
    node_pass(pass, dsu);
}

/// Counts the agents whose node changed since the last pass. The first
/// pass (or one over a different agent count) only records the positions.
void VisibilityGraphBuilder::tally_moves(std::span<const grid::Point> positions) {
    if (prev_.size() == positions.size()) {
        std::int64_t moves = 0;
        for (std::size_t a = 0; a < prev_.size(); ++a) {
            moves += static_cast<std::int64_t>(positions[a] != prev_[a]);
        }
        index_stats_.moves += moves;
    }
    prev_.assign(positions.begin(), positions.end());
}

/// Reads every occupied node's windows from the bitmap and stages the
/// non-empty ones without a branch, resolving the staged windows whenever
/// another node's might not fit; then clears the node bits.
void VisibilityGraphBuilder::node_pass(spatial::ColocationTable::Pass pass, DisjointSets& dsu) {
    const auto* bitmap = bitmap_.data();
    const auto* windows = windows_.data();
    const auto per_node = windows_.size();
    auto* staged = staged_.data();
    std::int64_t found = 0;
    std::size_t n = 0;
    for (const auto& o : occupied_) {
        if (n + per_node > staged_.size()) {
            found += resolve(pass, dsu, n);
            n = 0;
        }
        for (std::size_t w = 0; w < per_node; ++w) {
            const auto bit = o.bit + windows[w].bit_offset;
            const auto bits = (load_bits(bitmap + (bit >> 3)) >> (bit & 7)) & windows[w].mask;
            staged[n] = {bits, o.node + windows[w].node_offset, o.agent};
            n += static_cast<std::size_t>(bits != 0);
        }
    }
    found += resolve(pass, dsu, n);
    for (const auto& o : occupied_) bitmap_[static_cast<std::size_t>(o.bit >> 3)] = 0;
    const auto occupied = static_cast<std::int64_t>(occupied_.size());
    occupied_units_ = occupied;
    ++stats_.passes;
    stats_.rescanned_units += occupied;
    stats_.pairs_tested += occupied * window_nodes_;
    stats_.pairs_survived += found;
}

/// Unions each staged window's agent with the first agent of every node
/// its bits name, and lists both. A node's windows are staged in a run, so
/// its agent's root is found once per run and carried through unite_root.
/// Returns the number of node pairs found.
std::int64_t VisibilityGraphBuilder::resolve(spatial::ColocationTable::Pass pass,
                                             DisjointSets& dsu, std::size_t count) {
    std::int64_t found = 0;
    std::int32_t last = spatial::kNone;
    std::int32_t root = spatial::kNone;
    for (std::size_t i = 0; i < count; ++i) {
        const auto& w = staged_[i];
        if (w.agent != last) {
            last = w.agent;
            root = dsu.find(last);
            link(last);
        }
        found += std::popcount(w.bits);
        for (auto bits = w.bits; bits != 0; bits &= bits - 1) {
            const auto other = pass.first(w.node + std::countr_zero(bits));
            link(other);
            root = dsu.unite_root(root, other);
        }
    }
    return found;
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
