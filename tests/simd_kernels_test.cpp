// simd_kernels_test — bit-identity of the vectorized kernels vs their
// scalar references.
//
// The walk and visibility hot loops are vectorized behind util/simd.hpp
// under a hard contract: every SIMD kernel is an observable no-op relative
// to its scalar reference — same draws, same rejection decisions, same
// in-range bits, same survivor order. These suites diff the two
// implementations directly, in-process, on whatever backend this build
// selected; the CI force-scalar leg (-DSMN_DISABLE_SIMD=ON) then replays
// the same suites plus the golden captures with the reference backend, so
// both sides of every comparison get exercised as "the" implementation.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "graph/range_filter.hpp"
#include "grid/grid.hpp"
#include "grid/point.hpp"
#include "rng/rng.hpp"
#include "walk/decode.hpp"
#include "walk/ensemble.hpp"
#include "walk/step.hpp"

namespace {

using namespace smn;
using grid::Grid2D;
using grid::Metric;
using grid::Point;

// ------------------------------------------------------------ decode_draws5

TEST(DecodeDraws5, MatchesScalarOnRandomWords) {
    rng::Rng rng{2024};
    // Lengths straddling the 4-lane vector body and its scalar tail.
    for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{4},
                            std::size_t{5}, std::size_t{7}, std::size_t{8}, std::size_t{64},
                            std::size_t{67}}) {
        std::vector<std::uint64_t> words(len);
        for (auto& w : words) w = rng.next_u64();
        std::vector<std::int32_t> vec(len, -1);
        std::vector<std::int32_t> ref(len, -1);
        const bool ok_vec = walk::decode_draws5(words.data(), len, vec.data());
        const bool ok_ref = walk::decode_draws5_scalar(words.data(), len, ref.data());
        EXPECT_EQ(ok_vec, ok_ref) << "len=" << len;
        ASSERT_EQ(vec, ref) << "len=" << len;
        for (const auto d : vec) {
            EXPECT_GE(d, 0);
            EXPECT_LT(d, 5);
        }
    }
}

TEST(DecodeDraws5, RejectsZeroWordInEveryPosition) {
    // word == 0 is the one input Rng::below(5) rejects (threshold 1 and 5
    // invertible mod 2^64 — see decode.hpp); both variants must flag it no
    // matter where in the block it lands.
    rng::Rng rng{7};
    constexpr std::size_t kLen = 9;  // vector body + tail
    for (std::size_t zero_at = 0; zero_at < kLen; ++zero_at) {
        std::array<std::uint64_t, kLen> words{};
        for (auto& w : words) {
            do {
                w = rng.next_u64();
            } while (w == 0);
        }
        words[zero_at] = 0;
        std::array<std::int32_t, kLen> vec{};
        std::array<std::int32_t, kLen> ref{};
        EXPECT_FALSE(walk::decode_draws5(words.data(), kLen, vec.data()));
        EXPECT_FALSE(walk::decode_draws5_scalar(words.data(), kLen, ref.data()));
    }
}

TEST(DecodeDraws5, DrawEqualsLemireHighProduct) {
    // Spot-check the decode against the definition it replays:
    // draw = hi64(word * 5), the first pass of Rng::below(5).
    rng::Rng rng{11};
    for (int it = 0; it < 256; ++it) {
        const auto w = rng.next_u64();
        std::int32_t d = -1;
        (void)walk::decode_draws5(&w, 1, &d);
        const auto expected = static_cast<std::int32_t>(
            (static_cast<__uint128_t>(w) * static_cast<__uint128_t>(std::uint64_t{5})) >> 64);
        EXPECT_EQ(d, expected);
    }
}

// ------------------------------------------------------------ in_range_mask8

/// Exhaustive boundary sweep for one (metric, radius): every candidate
/// offset in the [-(r+2), r+2]^2 square around a probe point, chunked into
/// every count 1..kRangeLanes, mask vs scalar vs grid::within.
template <Metric M>
void check_in_range_boundary(std::int32_t r) {
    const Point p{1000, 2000};
    std::vector<std::int32_t> xs;
    std::vector<std::int32_t> ys;
    for (std::int32_t dy = -(r + 2); dy <= r + 2; ++dy) {
        for (std::int32_t dx = -(r + 2); dx <= r + 2; ++dx) {
            xs.push_back(p.x + dx);
            ys.push_back(p.y + dy);
        }
    }
    const std::size_t total = xs.size();
    // Padding contract: kRangePad readable elements past the slice.
    xs.resize(total + graph::kRangePad, 0);
    ys.resize(total + graph::kRangePad, 0);
    for (std::size_t count = 1; count <= graph::kRangeLanes; ++count) {
        for (std::size_t at = 0; at + count <= total; at += count) {
            const auto bits =
                graph::in_range_mask8<M>(xs.data() + at, ys.data() + at, count, p.x, p.y, r);
            const auto ref = graph::in_range_mask8_scalar<M>(xs.data() + at, ys.data() + at,
                                                             count, p.x, p.y, r);
            ASSERT_EQ(bits, ref) << "r=" << r << " count=" << count << " at=" << at;
            EXPECT_EQ(bits >> count, 0u) << "bits above count must be clear";
            for (std::size_t i = 0; i < count; ++i) {
                const bool in = grid::within(p, Point{xs[at + i], ys[at + i]}, r, M);
                EXPECT_EQ((bits >> i) & 1u, in ? 1u : 0u)
                    << "r=" << r << " candidate (" << xs[at + i] << "," << ys[at + i] << ")";
            }
        }
    }
}

TEST(InRangeMask8, MatchesScalarAndWithinNearBoundary) {
    for (const std::int32_t r : {0, 1, 2, 5}) {
        check_in_range_boundary<Metric::kManhattan>(r);
        check_in_range_boundary<Metric::kChebyshev>(r);
        check_in_range_boundary<Metric::kEuclidean>(r);
    }
}

TEST(InRangeMask8, PaddedLanesNeverLeakIntoTheMask) {
    // The kernel computes on all kRangeLanes lanes and masks the excess;
    // whatever sits in the pad (within arithmetic range) must not matter.
    const Point p{50, 50};
    std::array<std::int32_t, graph::kRangeLanes> xs{};
    std::array<std::int32_t, graph::kRangeLanes> ys{};
    for (std::size_t count = 1; count < graph::kRangeLanes; ++count) {
        for (std::size_t i = 0; i < count; ++i) {
            xs[i] = p.x + static_cast<std::int32_t>(i) - 2;
            ys[i] = p.y;
        }
        for (const std::int32_t pad : {0, 1000000, -1000000, 50}) {
            for (std::size_t i = count; i < graph::kRangeLanes; ++i) {
                xs[i] = pad;
                ys[i] = pad;
            }
            const auto bits = graph::in_range_mask8<Metric::kChebyshev>(xs.data(), ys.data(),
                                                                        count, p.x, p.y, 2);
            const auto ref = graph::in_range_mask8_scalar<Metric::kChebyshev>(
                xs.data(), ys.data(), count, p.x, p.y, 2);
            EXPECT_EQ(bits, ref) << "count=" << count << " pad=" << pad;
            EXPECT_EQ(bits >> count, 0u);
        }
    }
}

// ------------------------------------------------------------ compress_store8

TEST(CompressStore8, PacksSurvivorsAscendingForEveryMask) {
    std::array<std::int32_t, graph::kRangeLanes> src{};
    for (std::size_t i = 0; i < src.size(); ++i) src[i] = 100 + static_cast<std::int32_t>(i);
    for (std::uint32_t bits = 0; bits < 256; ++bits) {
        std::array<std::int32_t, graph::kRangeLanes> dst{};
        dst.fill(-1);
        const auto n = graph::compress_store8(bits, src.data(), dst.data());
        ASSERT_EQ(n, static_cast<std::size_t>(std::popcount(bits)));
        std::size_t at = 0;
        for (std::uint32_t lane = 0; lane < 8; ++lane) {
            if (bits & (1u << lane)) {
                EXPECT_EQ(dst[at], src[lane]) << "bits=" << bits << " lane=" << lane;
                ++at;
            }
        }
    }
}

// --------------------------------------------------- ensemble vs walk::step

/// The batched ensemble kernel must consume the engine RNG stream exactly
/// like the per-agent reference: one below(5) per stepping agent, agent
/// order, Lemire rejections included. Boundary-heavy grids exercise every
/// direction-mask lane shape.
TEST(EnsembleSimd, StepAllMatchesPerAgentReferenceOnBoundaryHeavyGrid) {
    const auto g = Grid2D{5, 4};  // most nodes are boundary
    rng::Rng rng_a{77};
    rng::Rng rng_b{77};
    walk::AgentEnsemble agents{g, 64, rng_a};
    {
        walk::AgentEnsemble twin{g, 64, rng_b};  // consume placement draws
        for (std::int32_t i = 0; i < 64; ++i) {
            ASSERT_EQ(agents.position(i), twin.position(i));
        }
    }
    std::vector<Point> ref(agents.positions().begin(), agents.positions().end());
    for (int t = 0; t < 200; ++t) {
        agents.step_all(rng_a);
        for (auto& p : ref) p = walk::step(g, p, rng_b);
        for (std::int32_t i = 0; i < 64; ++i) {
            ASSERT_EQ(agents.position(i), ref[static_cast<std::size_t>(i)])
                << "t=" << t << " agent=" << i;
        }
    }
}

TEST(EnsembleSimd, StepSubsetMatchesPerAgentReference) {
    const auto g = Grid2D::square(6);
    rng::Rng rng_a{31};
    rng::Rng rng_b{31};
    walk::AgentEnsemble agents{g, 40, rng_a};
    { walk::AgentEnsemble twin{g, 40, rng_b}; }
    std::vector<Point> ref(agents.positions().begin(), agents.positions().end());
    std::vector<std::uint8_t> mask(40, 0);
    for (std::size_t a = 0; a < mask.size(); a += 3) mask[a] = 1;
    for (int t = 0; t < 100; ++t) {
        agents.step_subset(rng_a, mask);
        for (std::size_t a = 0; a < ref.size(); ++a) {
            if (mask[a]) ref[a] = walk::step(g, ref[a], rng_b);
        }
        for (std::int32_t i = 0; i < 40; ++i) {
            ASSERT_EQ(agents.position(i), ref[static_cast<std::size_t>(i)]) << "t=" << t;
        }
    }
}

// ------------------------------------------ move-hook adapters vs kernel

struct Move {
    walk::AgentId agent;
    Point from;
    Point to;
    friend bool operator==(const Move&, const Move&) = default;
};

/// The OnMove overloads are adapters over the hook-free kernel: they must
/// leave bit-identical positions and RNG stream, and report exactly the
/// agents whose node changed, in ascending order, with the true endpoints.
/// Boundary-heavy grids, every walk kind, and k off the 8-lane and
/// 1024-agent block boundaries.
TEST(EnsembleSimd, MoveHookAdaptersMatchHookFreeStep) {
    const std::array<Grid2D, 3> grids{Grid2D{5, 4}, Grid2D{1, 7}, Grid2D::square(9)};
    const std::array<walk::WalkKind, 3> kinds{
        walk::WalkKind::kLazyPaper, walk::WalkKind::kSimple, walk::WalkKind::kLazyHalf};
    for (const auto& g : grids) {
        for (const auto kind : kinds) {
            for (const std::int32_t k : {13, 1031, 2053}) {
                rng::Rng rng_a{static_cast<std::uint64_t>(k)};
                rng::Rng rng_b{static_cast<std::uint64_t>(k)};
                walk::AgentEnsemble hooked{g, k, rng_a, kind};
                walk::AgentEnsemble plain{g, k, rng_b, kind};
                std::vector<std::uint8_t> mask(static_cast<std::size_t>(k), 0);
                for (std::size_t a = 0; a < mask.size(); a += 3) mask[a] = 1;
                std::vector<Move> reported;
                std::size_t total_moved = 0;
                const auto hook = [&reported](walk::AgentId a, Point from, Point to) {
                    reported.push_back({a, from, to});
                };
                for (int t = 0; t < 12; ++t) {
                    const std::vector<Point> before(plain.positions().begin(),
                                                    plain.positions().end());
                    reported.clear();
                    if (t % 2 == 0) {
                        hooked.step_all(rng_a, hook);
                        plain.step_all(rng_b);
                    } else {
                        hooked.step_subset(rng_a, mask, hook);
                        plain.step_subset(rng_b, mask);
                    }
                    std::vector<Move> moved;
                    for (std::int32_t a = 0; a < k; ++a) {
                        const auto i = static_cast<std::size_t>(a);
                        ASSERT_EQ(hooked.position(a), plain.position(a))
                            << walk::walk_kind_name(kind) << " k=" << k << " t=" << t;
                        if (plain.position(a) != before[i]) {
                            moved.push_back({a, before[i], plain.position(a)});
                        }
                    }
                    ASSERT_EQ(rng_a.next_u64(), rng_b.next_u64()) << "t=" << t;
                    total_moved += moved.size();
                    ASSERT_TRUE(reported == moved)
                        << walk::walk_kind_name(kind) << " k=" << k << " t=" << t << ": "
                        << reported.size() << " reported, " << moved.size() << " moved";
                }
                EXPECT_GT(total_moved, 0u);
            }
        }
    }
}

}  // namespace
