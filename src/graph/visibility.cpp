#include "graph/visibility.hpp"

#include <algorithm>
#include <bit>
#include <chrono>

#include "util/simd.hpp"

namespace smn::graph {

namespace {

namespace simd = util::simd;

/// Bits one bitmap load yields: 64 minus the at most 7 bits of the byte
/// offset it shifts away.
constexpr std::int64_t kLoadBits = 57;

/// Words in the node pass's word block (16 KiB): the block holds every
/// window of as many groups of 4 nodes as fit, and at least one group.
constexpr std::size_t kBlockWords = 2048;

constexpr std::size_t kLanes = simd::kU64Lanes;

/// Copies `positions` over `prev` and returns how many of them differed,
/// four Points per vector: each Point's 8 bytes are one lane.
std::int64_t record_positions(std::span<const grid::Point> positions, grid::Point* prev) {
    static_assert(sizeof(grid::Point) == sizeof(std::uint64_t));
    const auto k = positions.size();
    const auto* now = positions.data();
    auto same = simd::U64x4::splat(0);
    std::size_t i = 0;
    for (; i + kLanes <= k; i += kLanes) {
        const auto p = simd::U64x4::load_bytes(now + i);
        const auto equal = simd::cmpeq(p, simd::U64x4::load_bytes(prev + i));
        same = simd::add(same, simd::shift_right<63>(equal));  // +1 per unmoved agent
        p.store_bytes(prev + i);
    }
    std::uint64_t lanes[kLanes]{};
    same.store(lanes);
    auto moves = static_cast<std::int64_t>(i - (lanes[0] + lanes[1] + lanes[2] + lanes[3]));
    for (; i < k; ++i) {
        moves += static_cast<std::int64_t>(now[i] != prev[i]);
        prev[i] = now[i];
    }
    return moves;
}

/// Zero bits after each bitmap row at r >= 1: a window of half-width up to
/// this never reads another row's nodes. Windows never reach past the
/// width, so a radius beyond it pads no more.
std::int64_t row_pad(const grid::Grid2D& grid, std::int64_t radius) {
    return radius < 1 ? 0 : std::min<std::int64_t>(radius, grid.width() - 1);
}

}  // namespace

VisibilityGraphBuilder::VisibilityGraphBuilder(const grid::Grid2D& grid, std::int64_t radius,
                                               grid::Metric metric)
    : radius_{radius},
      metric_{metric},
      pad_{row_pad(grid, radius)},
      stride_{grid.width() + pad_},
      colocation_{pad_ + grid.height() * stride_} {
    if (radius < 1) return;
    // A radius beyond the diameter connects the same pairs; offsets past
    // the grid's width or height reach no node.
    const auto r = std::min(radius, grid.diameter());
    const auto rows = std::min<std::int64_t>(r, grid.height() - 1);
    const auto reach = pad_;
    // Node (x, y) is bit pad_ + y·stride_ + x, which is also its slot in
    // the node table. Every row is followed by `reach` zero bits and the
    // last by `rows` zero rows, so a window of half-width <= reach never
    // reads another row's nodes or past the end; the 8 trailing bytes keep
    // the last load inside the vector.
    bitmap_.assign(static_cast<std::size_t>((pad_ + (grid.height() + rows) * stride_) / 8 + 9), 0);
    // Columns [lo, lo + width) of row dy, relative to the node, split into
    // loads of at most kLoadBits. Every offset is positive: row 0's window
    // starts at x + 1, and a later row's at least `width` bits on.
    const auto add = [&](std::int64_t dy, std::int64_t lo, std::int64_t width) {
        for (std::int64_t at = 0; at < width; at += kLoadBits) {
            const auto bits = std::min(kLoadBits, width - at);
            windows_.push_back({static_cast<std::uint64_t>(dy * stride_ + lo + at),
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
    chunk_ = kLanes * std::max<std::size_t>(1, kBlockWords / kLanes /
                                                   std::max<std::size_t>(1, windows_.size()));
    words_.resize(windows_.size() * chunk_);
    hits_.resize(chunk_);
    nonempty_.resize(windows_.size());
}

void VisibilityGraphBuilder::build(std::span<const grid::Point> positions, DisjointSets& dsu) {
    dsu.reset(positions.size());
    // Unlist the previous build's linked agents: O(|linked|), never O(k).
    for (const auto a : linked_) linked_flag_[static_cast<std::size_t>(a)] = 0;
    linked_.clear();
    linked_flag_.resize(positions.size());
    if (radius_ == 0) {
        // The slot is the node id (pad_ is 0). This loop's speed hangs on
        // gcc's register allocation: the same slot with pad_ captured too
        // made gossip's component phase 7% slower, and through a shared
        // slot helper 15%.
        colocation_pass(
            colocation_, positions, dsu,
            [width = stride_](grid::Point p) { return std::int64_t{p.y} * width + p.x; },
            [](grid::NodeId, std::int32_t) {}, [this](std::int32_t a) { link(a); });
        return;
    }
    // smn-lint: allow(wall-clock) timing-only telemetry, gated behind timing_
    using clock = std::chrono::steady_clock;
    const auto index_begin = timing_ ? clock::now() : clock::time_point{};
    const auto pass = index_pass(positions, dsu);
    if (timing_) {
        index_seconds_ += std::chrono::duration<double>(clock::now() - index_begin).count();
    }
    node_pass(pass, dsu);
}

/// The r >= 1 co-location pass, claiming each agent's bitmap bit in the
/// node table: unions co-located agents, sets each occupied node's bitmap
/// bit and lists the node. Before it, counts the agents whose node changed
/// since the last pass (the first pass, or one over a different agent
/// count, only records the positions).
spatial::ColocationTable::Pass VisibilityGraphBuilder::index_pass(
    std::span<const grid::Point> positions, DisjointSets& dsu) {
    const auto k = positions.size();
    const bool tally = prev_.size() == k;
    prev_.resize(k);
    const auto moves = record_positions(positions, prev_.data());
    if (tally) index_stats_.moves += moves;
    occupied_bits_.resize(k + kLanes - 1);
    occupied_agents_.resize(k);
    auto* bits = occupied_bits_.data();
    auto* agents = occupied_agents_.data();
    auto* bitmap = bitmap_.data();
    std::size_t n = 0;
    const auto slot_of = [pad = pad_, stride = stride_](grid::Point p) {
        return pad + std::int64_t{p.y} * stride + p.x;
    };
    const auto pass = colocation_pass(
        colocation_, positions, dsu, slot_of,
        [&](grid::NodeId bit, std::int32_t a) {
            bitmap[bit >> 3] |= static_cast<std::uint8_t>(1u << (bit & 7));
            bits[n] = static_cast<std::uint64_t>(bit);
            agents[n] = a;
            ++n;
        },
        [this](std::int32_t a) { link(a); });
    occupied_units_ = static_cast<std::int64_t>(n);
    return pass;
}

/// Reads every occupied node's windows from the bitmap, 4 nodes per step
/// and one chunk of nodes per word block: each window is one byte-offset
/// gather, shifted by each lane's bit within its byte and masked. The nodes
/// with any set bit are listed without a branch, and only they are then
/// resolved from the stored words: each set bit names a node, whose first
/// agent is united with the node's and both are listed. A node's root is
/// found once and carried through unite_root. Then clears the node bits.
void VisibilityGraphBuilder::node_pass(spatial::ColocationTable::Pass pass, DisjointSets& dsu) {
    const auto occupied = static_cast<std::size_t>(occupied_units_);
    auto* bitmap = bitmap_.data();
    const auto* windows = windows_.data();
    const auto per_node = windows_.size();
    const auto chunk = chunk_;
    auto* bits = occupied_bits_.data();
    const auto* agents = occupied_agents_.data();
    auto* words = words_.data();
    auto* hits = hits_.data();
    auto* nonempty = nonempty_.data();
    // Pad the last group with the first node: its loads stay inside the
    // bitmap, and the lane mask drops its words.
    for (auto i = occupied; i % kLanes != 0; ++i) bits[i] = bits[0];
    const auto seven = simd::U64x4::splat(7);
    std::int64_t found = 0;
    for (std::size_t base = 0; base < occupied; base += chunk) {
        const auto end = std::min(occupied, base + chunk);
        std::size_t hit_count = 0;
        for (std::size_t i = base; i < end; i += kLanes) {
            const auto at = simd::U64x4::load(bits + i);
            auto* out = words + (i - base);
            auto any = simd::U64x4::splat(0);
            for (std::size_t w = 0; w < per_node; ++w) {
                const auto bit = simd::add(at, simd::U64x4::splat(windows[w].bit_offset));
                const auto loaded = simd::gather_bytes(bitmap, simd::shift_right<3>(bit));
                const auto word = simd::bit_and(simd::shift_right(loaded, simd::bit_and(bit, seven)),
                                                simd::U64x4::splat(windows[w].mask));
                word.store(out + w * chunk);
                any = simd::bit_or(any, word);
            }
            const auto lanes =
                simd::nonzero_mask(any) & (0xFu >> (kLanes - std::min(kLanes, end - i)));
            for (std::size_t l = 0; l < kLanes; ++l) {
                hits[hit_count] = static_cast<std::uint32_t>(i - base + l);
                hit_count += (lanes >> l) & 1u;
            }
        }
        for (std::size_t h = 0; h < hit_count; ++h) {
            const auto j = hits[h];
            const auto bit = bits[base + j];
            // The node's non-empty windows, listed without a branch.
            std::size_t listed = 0;
            for (std::size_t w = 0; w < per_node; ++w) {
                const auto word = words[w * chunk + j];
                found += std::popcount(word);
                nonempty[listed] = {word, bit + windows[w].bit_offset};
                listed += static_cast<std::size_t>(word != 0);
            }
            const auto agent = agents[base + j];
            auto root = dsu.find(agent);
            link(agent);
            for (std::size_t w = 0; w < listed; ++w) {
                for (auto b = nonempty[w].word; b != 0; b &= b - 1) {
                    const auto other = pass.first(static_cast<grid::NodeId>(
                        nonempty[w].bit + static_cast<std::uint64_t>(std::countr_zero(b))));
                    link(other);
                    root = dsu.unite_root(root, other);
                }
            }
        }
    }
    for (std::size_t i = 0; i < occupied; ++i) bitmap[bits[i] >> 3] = 0;
    const auto count = static_cast<std::int64_t>(occupied);
    ++stats_.passes;
    stats_.rescanned_units += count;
    stats_.pairs_tested += count * window_nodes_;
    stats_.pairs_survived += found;
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

ComponentStats component_stats(DisjointSets& dsu) {
    ComponentStats out;
    const auto k = dsu.element_count();
    if (k == 0) return out;

    std::vector<std::int64_t> root_size(k, 0);
    for (std::size_t a = 0; a < k; ++a) {
        ++root_size[static_cast<std::size_t>(dsu.find(static_cast<std::int32_t>(a)))];
    }

    for (const auto s : root_size) {
        if (s == 0) continue;
        ++out.component_count;
        out.max_size = std::max(out.max_size, s);
    }
    out.mean_size = static_cast<double>(k) / static_cast<double>(out.component_count);
    out.largest_fraction = static_cast<double>(out.max_size) / static_cast<double>(k);

    out.size_histogram.assign(static_cast<std::size_t>(out.max_size) + 1, 0);
    for (const auto s : root_size) {
        if (s > 0) ++out.size_histogram[static_cast<std::size_t>(s)];
    }
    return out;
}

}  // namespace smn::graph
