// diffusion_test.cpp — kernel diffusion constants, MSD growth, and
// first-meeting-time behaviour.
#include <gtest/gtest.h>

#include <cmath>

#include "grid/grid.hpp"
#include "rng/rng.hpp"
#include "walk/diffusion.hpp"
#include "walk/meeting.hpp"

namespace smn::walk {
namespace {

using grid::Grid2D;
using grid::Point;

TEST(Diffusion, ExactStepVariances) {
    EXPECT_DOUBLE_EQ(step_variance(WalkKind::kLazyPaper), 0.8);
    EXPECT_DOUBLE_EQ(step_variance(WalkKind::kSimple), 1.0);
    EXPECT_DOUBLE_EQ(step_variance(WalkKind::kLazyHalf), 0.5);
}

// MSD after t interior steps ≈ step_variance · t (independent coordinates,
// zero drift). Grid large enough that the boundary is unreachable.
TEST(Diffusion, MsdMatchesVarianceTimesT) {
    const auto g = Grid2D::square(201);
    const Point center{100, 100};
    rng::Rng rng{1};
    constexpr std::int64_t kSteps = 200;
    constexpr int kReps = 4000;
    for (const auto kind :
         {WalkKind::kLazyPaper, WalkKind::kSimple, WalkKind::kLazyHalf}) {
        const double msd = estimate_msd(g, center, kSteps, kReps, rng, kind);
        const double expected = step_variance(kind) * static_cast<double>(kSteps);
        EXPECT_NEAR(msd / expected, 1.0, 0.08) << walk_kind_name(kind);
    }
}

// MSD is linear in t (diffusive, not ballistic or trapped).
TEST(Diffusion, MsdGrowsLinearly) {
    const auto g = Grid2D::square(301);
    const Point center{150, 150};
    rng::Rng rng{2};
    const double msd100 = estimate_msd(g, center, 100, 3000, rng);
    const double msd400 = estimate_msd(g, center, 400, 3000, rng);
    EXPECT_NEAR(msd400 / msd100, 4.0, 0.6);
}

// Boundary saturates the MSD: on a small grid, MSD levels off near the
// equilibrium value E|X−Y|² of two independent uniform points.
TEST(Diffusion, BoundarySaturatesMsd) {
    const auto g = Grid2D::square(11);
    const Point center{5, 5};
    rng::Rng rng{3};
    const double msd_long = estimate_msd(g, center, 4000, 2000, rng);
    // Equilibrium: E[(x−5)²] for x uniform on 0..10 is 10; two coords → 20.
    EXPECT_NEAR(msd_long, 20.0, 2.5);
    // Far below unbounded diffusion (0.8 × 4000 = 3200).
    EXPECT_LT(msd_long, 100.0);
}

// ------------------------------------------------------------ meeting time

/// Mean first-meeting time over `reps` trials from fixed starts; trials
/// that exceed `cap` contribute `cap`.
double mean_meeting_time(const Grid2D& grid, Point a0, Point b0, std::int64_t cap, int reps,
                         rng::Rng& rng, WalkKind kind = WalkKind::kLazyPaper) {
    double total = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        const auto res = meet_within(grid, a0, b0, cap, rng, kind);
        total += static_cast<double>(res.met ? res.meet_time : cap);
    }
    return total / reps;
}

TEST(MeetingTime, ColocatedStartsMeetAtZero) {
    const auto g = Grid2D::square(10);
    rng::Rng rng{4};
    const auto res = meet_within(g, {3, 3}, {3, 3}, 10, rng);
    EXPECT_TRUE(res.met);
    EXPECT_EQ(res.meet_time, 0);
}

TEST(MeetingTime, CapReportsNoMeeting) {
    const auto g = Grid2D::square(60);
    rng::Rng rng{5};
    const auto res = meet_within(g, {0, 0}, {59, 59}, 3, rng);
    EXPECT_FALSE(res.met);
    EXPECT_EQ(res.meet_time, -1);
}

TEST(MeetingTime, AdjacentFasterThanCorners) {
    const auto g = Grid2D::square(16);
    rng::Rng rng{6};
    const std::int64_t cap = 1 << 22;
    const double adjacent = mean_meeting_time(g, {8, 8}, {9, 8}, cap, 60, rng);
    const double corners = mean_meeting_time(g, {0, 0}, {15, 15}, cap, 60, rng);
    EXPECT_LT(adjacent, corners);
}

// Meeting time on the grid scales ~ n log n (Aldous–Fill, quoted in
// Sec. 1.1): growing the grid 4x should grow the corner meeting time by
// clearly more than 3x and less than ~8x.
TEST(MeetingTime, ScalesSuperlinearlyInN) {
    rng::Rng rng{7};
    const std::int64_t cap = 1 << 24;
    const auto g1 = Grid2D::square(12);
    const auto g2 = Grid2D::square(24);
    const double t1 = mean_meeting_time(g1, {0, 0}, {11, 11}, cap, 80, rng);
    const double t2 = mean_meeting_time(g2, {0, 0}, {23, 23}, cap, 80, rng);
    EXPECT_GT(t2 / t1, 2.8);
    EXPECT_LT(t2 / t1, 9.0);
}

// The lazy kernel's slower diffusion lengthens meetings proportionally.
TEST(MeetingTime, LazyHalfSlowerThanSimpleOnAverage) {
    const auto g = Grid2D::square(12);
    rng::Rng rng{8};
    const std::int64_t cap = 1 << 22;
    // Even-parity starts so the simple walk can meet (parity constraint).
    const double simple =
        mean_meeting_time(g, {0, 0}, {2, 0}, cap, 80, rng, WalkKind::kSimple);
    const double lazy_half =
        mean_meeting_time(g, {0, 0}, {2, 0}, cap, 80, rng, WalkKind::kLazyHalf);
    EXPECT_LT(simple, lazy_half);
}

// Parity trap: simple (non-lazy) walks from odd-distance starts never meet.
TEST(MeetingTime, SimpleWalkOddParityNeverMeets) {
    const auto g = Grid2D::square(8);
    rng::Rng rng{9};
    for (int rep = 0; rep < 10; ++rep) {
        EXPECT_FALSE(meet_within(g, {3, 3}, {4, 3}, 20000, rng, WalkKind::kSimple).met);
    }
}

}  // namespace
}  // namespace smn::walk
