// claims_test.cpp — the paper's claims, asserted on the lab's scenarios.
//
// Each test runs registered scenarios through exp::run_sweep at the lab's
// default seed and at full scale (several claims do not hold on the quick
// sweeps), then asserts the claim's band. The experiment ids (E1..E23)
// match docs/experiments.md, which gives the `smn_lab` command that
// reproduces each test's numbers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/bounds.hpp"
#include "exp/runner.hpp"
#include "exp/scenarios.hpp"
#include "graph/percolation.hpp"
#include "stats/regression.hpp"

namespace smn {
namespace {

using Points = std::vector<exp::PointResult>;

/// Runs `sweep` (empty: the scenario's default sweep) at the lab's
/// default seed.
Points run(const std::string& scenario, const std::string& sweep, int reps) {
    exp::register_builtin_scenarios();
    const auto& registered = exp::ScenarioRegistry::instance().at(scenario);
    exp::RunOptions options;
    options.reps = reps;
    return exp::run_sweep(registered,
                          exp::SweepSpec::parse(sweep.empty() ? registered.default_sweep : sweep),
                          options);
}

double param(const exp::PointResult& point, const std::string& key) {
    return std::stod(point.params.at(key));
}

std::vector<double> params(const Points& points, const std::string& key) {
    std::vector<double> out;
    for (const auto& point : points) out.push_back(param(point, key));
    return out;
}

std::vector<double> means(const Points& points, const std::string& metric) {
    std::vector<double> out;
    for (const auto& point : points) out.push_back(point.metric(metric).mean());
    return out;
}

/// Log-log slope of the mean of `metric` against the swept `key`.
double slope(const Points& points, const std::string& key, const std::string& metric) {
    return stats::loglog_fit(params(points, key), means(points, metric)).slope;
}

const exp::PointResult& at(const Points& points, const std::string& key,
                           const std::string& value) {
    const auto it = std::find_if(points.begin(), points.end(), [&](const auto& point) {
        return point.params.at(key) == value;
    });
    if (it == points.end()) throw std::out_of_range("no point with " + key + "=" + value);
    return *it;
}

// E1 (Thm 1): at fixed n, log T_B vs log k is a line of slope ~ -1/2,
// far from the -1 of [28].
TEST(Claims, BroadcastTimeVsK) {
    const auto points = run("grid_broadcast", "side=64;k=4,8,16,32,64,128,256;radius=0", 30);
    const auto fit = stats::loglog_fit(params(points, "k"), means(points, "broadcast_time"));
    EXPECT_LT(fit.slope, -0.25);
    EXPECT_GT(fit.slope, -0.8);
    EXPECT_GT(fit.r_squared, 0.85);
}

// E2 (Thm 1): at fixed k, T_B is linear in n up to polylog factors.
TEST(Claims, BroadcastTimeVsN) {
    const auto points = run("grid_broadcast", "side=16,24,32,48,64,96,128;k=16;radius=0", 30);
    std::vector<double> ns;
    for (const double side : params(points, "side")) ns.push_back(side * side);
    const double s = stats::loglog_fit(ns, means(points, "broadcast_time")).slope;
    EXPECT_GT(s, 0.7);
    EXPECT_LT(s, 1.4);
}

// E3 (Thms 1+2, Cor 1): T_B plateaus for r < r_c and collapses above
// it, and it does not grow with r beyond noise.
TEST(Claims, RadiusPlateauBelowPercolation) {
    const auto points =
        run("percolation_radius",
            "side=64;k=64;rfrac=0,0.125,0.25,0.375,0.5,0.625,0.75,0.875,1,1.25,1.5,2,2.5", 30);
    const double rc = graph::percolation_radius(64 * 64, 64);
    double plateau_min = 1e300;
    double plateau_max = 0.0;
    double super_min = 1e300;
    double last_radius = -1.0;
    double last_tb = 0.0;
    for (const auto& point : points) {
        const double r = point.metric("radius").mean();
        if (r == last_radius) continue;  // rfracs that round to the same radius
        const double tb = point.metric("broadcast_time").mean();
        if (last_radius >= 0.0) {
            EXPECT_LT(tb, 1.25 * last_tb) << "radius " << r;
        }
        last_radius = r;
        last_tb = tb;
        if (r / rc < 0.8) {
            plateau_min = std::min(plateau_min, tb);
            plateau_max = std::max(plateau_max, tb);
        }
        if (r / rc > 1.8) super_min = std::min(super_min, tb);
    }
    EXPECT_LT(plateau_max, 8.0 * std::max(1.0, plateau_min));
    EXPECT_LT(super_min, 0.2 * plateau_min);
    const double tb0 = at(points, "rfrac", "0").metric("broadcast_time").mean();
    EXPECT_GT(at(points, "rfrac", "0.25").metric("broadcast_time").mean(), tb0 / 3.0);
    EXPECT_LT(super_min, tb0 / 10.0);
}

// E4 (Thm 2): at r <= sqrt(n/(64 e^6 k)), T_B sits above the
// Omega(n/(sqrt(k) log^2 n)) scale.
TEST(Claims, LowerBoundAtTheoremTwoRadius) {
    struct Config {
        std::int64_t side;
        std::int64_t k;
    };
    double min_ratio = 1e300;
    for (const Config c : {Config{24, 8}, Config{32, 8}, Config{32, 16}, Config{48, 16},
                           Config{48, 32}, Config{64, 32}, Config{64, 64}, Config{96, 64}}) {
        const std::int64_t n = c.side * c.side;
        const auto r = static_cast<std::int64_t>(graph::lower_bound_radius(n, c.k));
        const auto points = run("grid_broadcast",
                                "side=" + std::to_string(c.side) + ";k=" + std::to_string(c.k) +
                                    ";radius=" + std::to_string(r),
                                25);
        min_ratio = std::min(min_ratio, points[0].metric("broadcast_time").mean() /
                                            core::bounds::broadcast_lower_bound_scale(n, c.k));
    }
    EXPECT_GT(min_ratio, 1.0);
}

// E5 (Cor 2): gossip time scales like a single broadcast, and stays
// within a small factor of it at every k.
TEST(Claims, GossipTimeVsK) {
    const auto points = run("gossip", "side=48;k=4,8,16,32,64,128", 20);
    const double s = slope(points, "k", "gossip_time");
    EXPECT_LT(s, -0.2);
    EXPECT_GT(s, -0.9);
    const auto broadcast = run("grid_broadcast", "side=48;k=4,8,16,32,64,128;radius=0", 20);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const double ratio = points[i].metric("gossip_time").mean() /
                             broadcast[i].metric("broadcast_time").mean();
        EXPECT_GT(ratio, 0.5) << "k " << points[i].params.at("k");
        EXPECT_LT(ratio, 8.0) << "k " << points[i].params.at("k");
    }
}

/// min and max of P(metric) * ln d over the points of a d sweep.
std::pair<double, double> p_log_d_range(const Points& points, const std::string& metric) {
    double lo = 1e300;
    double hi = 0.0;
    for (const auto& point : points) {
        const double v = point.metric(metric).mean() * std::log(param(point, "d"));
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    return {lo, hi};
}

// E6 (Lemma 3): two walks at distance d meet in the lens within d^2 steps
// with probability >= c3/log d.
TEST(Claims, MeetingProbabilityLemma3) {
    const auto [lo, hi] = p_log_d_range(run("meeting_probability", "", 3000), "met_in_lens");
    EXPECT_GT(lo, 0.05);
    EXPECT_GT(lo, hi / 10.0);
}

// E7 (Lemma 1): one walk hits a node at distance d within d^2 steps with
// probability >= c1/log d, at the boundary too. 30,000 walks per point:
// at 3,000 the band is decided by noise.
TEST(Claims, HittingProbabilityLemma1) {
    Points points;
    for (const char* d : {"2", "4", "8", "16", "32", "64"}) {
        // One d at a time keeps the per-unit records of a pass small.
        for (auto& point : run("hitting_probability",
                               std::string("d=") + d + ";placement=interior,boundary", 30000)) {
            points.push_back(std::move(point));
        }
    }
    const auto [lo, hi] = p_log_d_range(points, "hit");
    EXPECT_GT(lo, 0.05);
    EXPECT_GT(lo, hi / 10.0);
}

// E8 (Lemma 2): the maximum displacement over l steps has a subgaussian
// tail. The Azuma bound 2e^{-lambda^2/2} is per coordinate; the L1
// displacement sums two, so the reference is min(1, 2 x bound).
TEST(Claims, DisplacementTailLemma2) {
    const auto points = run("walk_range", "length=1024;side=200", 2000);
    const auto displacements = points[0].metric("max_displacement").values();
    for (const double lambda : {0.5, 1.0, 1.5, 2.0, 2.5, 3.0}) {
        const double threshold = lambda * std::sqrt(1024.0);
        const auto exceed = std::count_if(displacements.begin(), displacements.end(),
                                          [&](double d) { return d >= threshold; });
        const double tail =
            static_cast<double>(exceed) / static_cast<double>(displacements.size());
        const double reference = std::min(1.0, 4.0 * std::exp(-lambda * lambda / 2.0));
        EXPECT_LE(tail, reference + 0.05) << "lambda " << lambda;
    }
}

// E9 (Lemma 6): islands of parameter gamma hold O(log n) agents; the band
// is 4 log2 n at every grid size.
TEST(Claims, IslandsStayLogarithmic) {
    for (const auto& point : run("islands", "", 15)) {
        const double side = param(point, "side");
        EXPECT_LE(point.metric("max_island").max(), 4.0 * std::log2(side * side))
            << "side " << side;
    }
}

// E10 ([24, 25]): the visibility graph percolates near r_c.
TEST(Claims, PercolationTransitionAtRc) {
    const auto points = run("percolation", "", 60);
    EXPECT_LT(at(points, "rfrac", "0.5").metric("largest_fraction").mean(), 0.25);
    EXPECT_GT(at(points, "rfrac", "2").metric("largest_fraction").mean(), 0.6);
}

// E11 (Sec. 4): the Frog model has the same Theta~(n/sqrt(k)) scale.
TEST(Claims, FrogTimeVsK) {
    const auto points = run("frog_broadcast", "side=48;k=4,8,16,32,64,128;radius=0", 20);
    const double s = slope(points, "k", "broadcast_time");
    EXPECT_LT(s, -0.25);
    EXPECT_GT(s, -0.9);
}

// E12 (Sec. 4): coverage tracks broadcast up to small factors.
TEST(Claims, CoverageTracksBroadcast) {
    const auto points = run("coverage", "", 20);
    for (const auto& point : points) {
        EXPECT_LT(point.metric("coverage_time").mean() /
                      std::max(1.0, point.metric("broadcast_time").mean()),
                  30.0)
            << "k " << point.params.at("k");
    }
    EXPECT_LT(slope(points, "k", "coverage_time"), -0.2);
}

// E13 (Sec. 4): cover time of k walks is O(n log^2 n / k + n log n).
TEST(Claims, CoverTimeBound) {
    const auto points = run("cover_time", "", 15);
    EXPECT_LT(slope(points, "k", "cover_time"), -0.4);
    for (const auto& point : points) {
        const auto k = static_cast<std::int64_t>(param(point, "k"));
        EXPECT_LT(point.metric("cover_time").max() / core::bounds::cover_time_scale(48 * 48, k),
                  4.0)
            << "k " << k;
    }
}

// E14 (Sec. 4, [9]): prey extinction time shrinks ~1/k.
TEST(Claims, PredatorPreyExtinction) {
    const auto points = run("predator_prey", "side=48;k=4,8,16,32,64,128;prey_moves=1", 20);
    EXPECT_LT(slope(points, "k", "extinction_time"), -0.4);
    for (const auto& point : points) {
        const auto k = static_cast<std::int64_t>(param(point, "k"));
        EXPECT_LT(point.metric("extinction_time").mean() /
                      core::bounds::extinction_scale(48 * 48, k),
                  4.0)
            << "k " << k;
    }
}

// E15 (Sec. 1.1): T_B follows n/sqrt(k), not the Theta(n log n log k / k)
// claimed in [28]. Over small k the two predictors are nearly parallel, so
// the exponents are compared on the top half of a k sweep to n/8.
TEST(Claims, InfectionTimeRefutesWkk) {
    const auto points =
        run("grid_broadcast", "side=256;k=32,64,128,256,512,1024,2048,4096,8192;radius=0", 15);
    const std::int64_t n = 256 * 256;
    std::vector<double> ks;
    std::vector<double> measured;
    std::vector<double> paper;
    std::vector<double> wkk;
    for (std::size_t i = points.size() / 2; i < points.size(); ++i) {
        const auto k = static_cast<std::int64_t>(param(points[i], "k"));
        ks.push_back(static_cast<double>(k));
        measured.push_back(points[i].metric("broadcast_time").mean());
        paper.push_back(core::bounds::broadcast_scale(n, k));
        wkk.push_back(core::bounds::wkk_claimed_scale(n, k));
    }
    const double s = stats::loglog_fit(ks, measured).slope;
    EXPECT_LT(std::abs(s - stats::loglog_fit(ks, paper).slope),
              std::abs(s - stats::loglog_fit(ks, wkk).slope))
        << "high-k exponent " << s;
}

// E16 ([7]): with k = n/2 the dense regime is radius-limited,
// T_B = Theta(sqrt(n)/R).
TEST(Claims, DenseRegimeIsRadiusLimited) {
    const double s = slope(run("dense_baseline", "", 25), "R", "broadcast_time");
    EXPECT_LT(s, -0.6);
    EXPECT_GT(s, -1.4);
}

// E17 (Lemma 7): the informed frontier never outruns (gamma log n)/2 per
// window of gamma^2/(144 log n) steps.
TEST(Claims, FrontierSpeedLemma7) {
    for (const auto& point : run("frontier", "", 20)) {
        const double side = param(point, "side");
        const double n = side * side;
        const double gamma =
            graph::island_gamma(static_cast<std::int64_t>(n), std::stoll(point.params.at("k")));
        EXPECT_LE(point.metric("window_advance").max(), std::max(1.0, gamma * std::log(n) / 2.0))
            << exp::canonical_point(point.params);
    }
}

// E19 (beyond the paper): narrower gaps slow broadcast; a sealed wall
// partitions the system.
TEST(Claims, BarrierGapBottleneck) {
    const auto points = run("barriers", "", 20);
    const double open_tb = at(points, "gap", "open").metric("broadcast_time").mean();
    const double widest_tb = at(points, "gap", "16").metric("broadcast_time").mean();
    const double narrowest_tb = at(points, "gap", "1").metric("broadcast_time").mean();
    EXPECT_GT(narrowest_tb, 1.3 * widest_tb);
    EXPECT_GE(widest_tb, 0.8 * open_tb);
    const auto& sealed = at(points, "gap", "0");
    EXPECT_EQ(sealed.metric("completed").max(), 0.0);
    EXPECT_LT(sealed.metric("informed").mean(), 0.8 * 32);
}

// E20 part A: the walk kernel moves constants, never the -1/2 law. r = 1
// because the non-lazy walk cannot co-locate odd-parity pairs (part C).
// The two lazy kernels differ only in step variance (walk::step_variance
// 0.8 vs 0.5, a time rescaling of 1.6), so their total T_B stays within a
// factor 2.
TEST(Claims, AblationWalkKernelKeepsExponent) {
    const auto points = run(
        "grid_broadcast", "side=48;k=4,8,16,32,64,128;radius=1;walk=lazy-1/5,lazy-1/2,simple",
        20);
    std::map<std::string, double> total_tb;
    for (const char* kind : {"lazy-1/5", "lazy-1/2", "simple"}) {
        Points series;
        for (const auto& point : points) {
            if (point.params.at("walk") == kind) series.push_back(point);
        }
        const double s = slope(series, "k", "broadcast_time");
        EXPECT_LT(s, -0.25) << kind;
        EXPECT_GT(s, -0.85) << kind;
        for (const double tb : means(series, "broadcast_time")) total_tb[kind] += tb;
    }
    const double half_vs_paper = total_tb["lazy-1/2"] / total_tb["lazy-1/5"];
    EXPECT_GT(half_vs_paper, 0.5);
    EXPECT_LT(half_vs_paper, 2.0);
}

// E20 part B: at r = r_c/2 the metric moves constants only; the L-inf
// ball contains the L1 ball, so Chebyshev can only be faster.
TEST(Claims, AblationMetricMovesConstantsOnly) {
    const auto r = static_cast<std::int64_t>(0.5 * std::sqrt(48.0 * 48.0 / 32.0));
    const auto points =
        run("grid_broadcast",
            "side=48;k=32;radius=" + std::to_string(r) + ";metric=manhattan,chebyshev,euclidean",
            20);
    const double manhattan = at(points, "metric", "manhattan").metric("broadcast_time").mean();
    const double chebyshev = at(points, "metric", "chebyshev").metric("broadcast_time").mean();
    EXPECT_LE(chebyshev, manhattan * 1.1);
    EXPECT_LT(manhattan, chebyshev * 4.0);
}

// E20 part C: the paper's lazy kernel is load-bearing at r = 0. Two simple
// (non-lazy) walkers both flip their (x+y) parity every step, so a pair
// that starts at odd distance never co-locates. Starts are uniform, so
// about half of the simple-walk replications run into the cap.
TEST(Claims, AblationLazinessBreaksParity) {
    const auto points = run("grid_broadcast", "side=48;k=2;radius=0;walk=lazy-1/5,simple", 20);
    EXPECT_GT(at(points, "walk", "lazy-1/5").metric("completed").mean(), 0.0);
    EXPECT_LT(at(points, "walk", "simple").metric("completed").mean(), 1.0);
}

// E20 part D (Lemma 1's reflection argument): boundaries move T_B by
// constants only.
TEST(Claims, AblationBoundaryMovesConstantsOnly) {
    const auto bounded = run("grid_broadcast", "side=48;k=8,32;radius=0", 20);
    const auto torus = run("torus_broadcast", "side=48;k=8,32", 20);
    for (std::size_t i = 0; i < bounded.size(); ++i) {
        const double ratio = bounded[i].metric("broadcast_time").mean() /
                             std::max(1.0, torus[i].metric("broadcast_time").mean());
        EXPECT_GT(ratio, 0.4) << "k " << bounded[i].params.at("k");
        EXPECT_LT(ratio, 2.5) << "k " << bounded[i].params.at("k");
    }
}

// E21 ([1], Sec. 1.1): the worst-case (opposite corners) meeting time of
// two walks scales as n log n.
TEST(Claims, MeetingTimeScalesAsNLogN) {
    const auto points = run("meeting_time", "side=8,12,16,24,32,48;starts=corners;capx=400", 120);
    std::vector<double> ns;
    for (const double side : params(points, "side")) ns.push_back(side * side);
    const double s = stats::loglog_fit(ns, means(points, "meeting_time")).slope;
    EXPECT_GT(s, 0.85);
    EXPECT_LT(s, 1.35);
}

// E22 (Lemmas 4-5): the rumor reaches tessellation cells at constant
// speed: reach time is linear in the cell distance from the source.
TEST(Claims, CellWavefrontIsLinear) {
    const auto points = run("cell_spread", "", 20);
    std::vector<double> ds;
    std::vector<double> ts;
    for (const auto& [name, sample] : points[0].metrics) {
        if (!name.starts_with("reach_d")) continue;
        const double d = std::stod(name.substr(7));
        if (d == 0.0) continue;
        ds.push_back(d);
        ts.push_back(sample.mean());
    }
    const auto fit = stats::linear_fit(ds, ts);
    EXPECT_GT(fit.r_squared, 0.9);
    EXPECT_GT(fit.slope, 0.0);
}

// E23 (beyond the paper): relocation churn mixes positions faster than
// diffusion, so it accelerates broadcast.
TEST(Claims, RelocationChurnAccelerates) {
    const auto points = run("churn", "side=48;k=32;rate=0,0.02;reset=0", 25);
    const double baseline = at(points, "rate", "0").metric("broadcast_time").mean();
    const double churned = at(points, "rate", "0.02").metric("broadcast_time").mean();
    EXPECT_GT(churned, 0.0);
    EXPECT_LT(churned, baseline);
}

}  // namespace
}  // namespace smn
