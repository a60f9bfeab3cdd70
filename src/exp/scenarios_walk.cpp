// Random-walk scenarios: the single- and two-walk probes behind Lemmas 1-3,
// the pairwise first-meeting times underlying the t* = O(n log n)
// infection bound quoted in Sec. 1.1, and the cover time of k walks.
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "exp/scenario.hpp"
#include "exp/scenarios.hpp"
#include "models/coverage.hpp"
#include "walk/ensemble.hpp"
#include "walk/meeting.hpp"
#include "walk/meeting_time.hpp"
#include "walk/tracker.hpp"

namespace smn::exp {
namespace {

SMN_REGISTER_SCENARIO(
    meeting_scenario,
    Scenario{
        .name = "meeting_time",
        .title = "first-meeting time of two lazy walks on the grid",
        .claim = "t* = O(n log n), worst starts at opposite corners ([1], Sec 1.1)",
        .params =
            std::vector<ParamSpec>{
                {"side", "16", "grid side; n = side^2"},
                {"starts", "random", "start geometry: random, adjacent, or corners"},
                {"capx", "64", "step cap as a multiple of n ln n"},
            },
        .default_sweep = "side=12,16,24;starts=random,adjacent,corners",
        .quick_sweep = "side=8,12;starts=corners",
        .run_rep =
            [](const ScenarioParams& p, std::uint64_t seed) {
                const auto side = static_cast<grid::Coord>(p.get_int("side"));
                const auto g = grid::Grid2D::square(side);
                const std::int64_t n = g.size();
                const auto cap = static_cast<std::int64_t>(
                    static_cast<double>(p.get_int("capx")) * static_cast<double>(n) *
                    std::log(static_cast<double>(n)));
                rng::Rng rng{seed};
                const std::string& starts = p.get_string("starts");
                grid::Point a{0, 0};
                grid::Point b{0, 0};
                if (starts == "random") {
                    a = walk::AgentEnsemble::random_node(g, rng);
                    b = walk::AgentEnsemble::random_node(g, rng);
                } else if (starts == "adjacent") {
                    if (side < 2) {
                        throw std::invalid_argument(
                            "meeting_time: starts=adjacent needs side >= 2");
                    }
                    a = g.clamp(grid::Point{
                        static_cast<grid::Coord>(
                            rng.below(static_cast<std::uint64_t>(side - 1))),
                        static_cast<grid::Coord>(rng.below(static_cast<std::uint64_t>(side)))});
                    b = grid::Point{static_cast<grid::Coord>(a.x + 1), a.y};
                } else if (starts == "corners") {
                    b = grid::Point{static_cast<grid::Coord>(side - 1),
                                    static_cast<grid::Coord>(side - 1)};
                } else {
                    throw std::invalid_argument(
                        "meeting_time: starts must be random, adjacent, or corners, got '" +
                        starts + "'");
                }
                const auto met = walk::first_meeting_time(g, a, b, cap, rng);
                Metrics m;
                m["capped"] = met.has_value() ? 0.0 : 1.0;
                m["meeting_time"] = static_cast<double>(met.value_or(cap));
                m["steps"] = static_cast<double>(met.value_or(cap));
                return m;
            },
    });

SMN_REGISTER_SCENARIO(
    hitting_scenario,
    Scenario{
        .name = "hitting_probability",
        .title = "one walk hits a node at distance d within d^2 steps",
        .claim = "P(hit) >= c1/log d, near boundaries too (Lemma 1)",
        .params =
            std::vector<ParamSpec>{
                {"d", "8", "distance from start to target, on a 6d x 6d grid"},
                {"placement", "interior",
                 "interior: start (3d,3d); boundary: start at the corner (0,0)"},
            },
        .default_sweep = "d=2,4,8,16,32,64;placement=interior,boundary",
        .quick_sweep = "d=2,4,8,16;placement=interior,boundary",
        .run_rep =
            [](const ScenarioParams& p, std::uint64_t seed) {
                const auto d = static_cast<grid::Coord>(p.get_int("d"));
                const auto g = grid::Grid2D::square(static_cast<grid::Coord>(6 * d));
                const std::string& placement = p.get_string("placement");
                grid::Point start{0, 0};
                if (placement == "interior") {
                    start = grid::Point{static_cast<grid::Coord>(3 * d),
                                        static_cast<grid::Coord>(3 * d)};
                } else if (placement != "boundary") {
                    throw std::invalid_argument(
                        "hitting_probability: placement must be interior or boundary, got '" +
                        placement + "'");
                }
                const grid::Point target{static_cast<grid::Coord>(start.x + d), start.y};
                const auto budget = std::int64_t{d} * d;
                rng::Rng rng{seed};
                const auto res = walk::hit_within(g, start, target, budget, rng);
                Metrics m;
                m["hit"] = res.hit ? 1.0 : 0.0;
                m["steps"] = static_cast<double>(res.hit ? res.hit_time : budget);
                if (res.hit) m["hit_time"] = static_cast<double>(res.hit_time);
                return m;
            },
    });

SMN_REGISTER_SCENARIO(
    meeting_probability_scenario,
    Scenario{
        .name = "meeting_probability",
        .title = "two walks at distance d meet in the lens D within d^2 steps",
        .claim = "P(meet in D) >= c3/log d (Lemma 3)",
        .params =
            std::vector<ParamSpec>{
                {"d", "8", "initial distance of the two walks, on a 6d x 6d grid"},
            },
        .default_sweep = "d=2,4,8,16,32,64",
        .quick_sweep = "d=2,4,8,16",
        .run_rep =
            [](const ScenarioParams& p, std::uint64_t seed) {
                const auto d = static_cast<grid::Coord>(p.get_int("d"));
                const auto g = grid::Grid2D::square(static_cast<grid::Coord>(6 * d));
                // The lens around the two starts stays interior.
                const grid::Point a{static_cast<grid::Coord>(2 * d + d / 2),
                                    static_cast<grid::Coord>(3 * d)};
                const grid::Point b{static_cast<grid::Coord>(a.x + d), a.y};
                const auto budget = std::int64_t{d} * d;
                rng::Rng rng{seed};
                const auto res = walk::meet_within(g, a, b, budget, rng);
                Metrics m;
                m["met"] = res.met ? 1.0 : 0.0;
                m["met_in_lens"] = res.met_in_lens ? 1.0 : 0.0;
                m["steps"] = static_cast<double>(res.met ? res.meet_time : budget);
                if (res.met) m["meet_time"] = static_cast<double>(res.meet_time);
                return m;
            },
    });

SMN_REGISTER_SCENARIO(
    walk_range_scenario,
    Scenario{
        .name = "walk_range",
        .title = "range and maximum displacement of one walk over l steps",
        .claim = "range >= c2 l/log l w.p. > 1/2; displacement tail <= 2e^{-lambda^2/2} "
                 "(Lemma 2)",
        .params =
            std::vector<ParamSpec>{
                {"length", "1024", "walk length l"},
                {"side", "0", "grid side; 0: 4 sqrt(l) + 8 (boundary almost never hit)"},
            },
        .default_sweep = "length=64,256,1024,4096,16384",
        .quick_sweep = "length=64,256,1024",
        .run_rep =
            [](const ScenarioParams& p, std::uint64_t seed) {
                const std::int64_t length = p.get_int("length");
                auto side = static_cast<grid::Coord>(p.get_int("side"));
                if (side == 0) {
                    side = static_cast<grid::Coord>(
                        4 * static_cast<std::int64_t>(std::sqrt(static_cast<double>(length))) +
                        8);
                }
                const auto g = grid::Grid2D::square(side);
                const grid::Point start{static_cast<grid::Coord>(side / 2),
                                        static_cast<grid::Coord>(side / 2)};
                rng::Rng rng{seed};
                walk::WalkTracker tracker{g};
                tracker.begin(start);
                grid::Point at = start;
                std::int64_t max_displacement = 0;
                for (std::int64_t t = 0; t < length; ++t) {
                    at = walk::step(g, at, rng);
                    tracker.record(at);
                    max_displacement = std::max(max_displacement, grid::manhattan(start, at));
                }
                Metrics m;
                m["range"] = static_cast<double>(tracker.range());
                m["max_displacement"] = static_cast<double>(max_displacement);
                m["steps"] = static_cast<double>(length);
                return m;
            },
    });

SMN_REGISTER_SCENARIO(
    cover_time_scenario,
    Scenario{
        .name = "cover_time",
        .title = "cover time of k independent walks",
        .claim = "cover time = O(n log^2 n / k + n log n) w.h.p. (Sec. 4)",
        .params =
            std::vector<ParamSpec>{
                {"side", "48", "grid side; n = side^2"},
                {"k", "16", "walk count: integer or log/sqrt/linear of n"},
            },
        .default_sweep = "side=48;k=1,4,16,64,256",
        .quick_sweep = "side=24;k=1,4,16",
        .run_rep =
            [](const ScenarioParams& p, std::uint64_t seed) {
                const auto side = static_cast<grid::Coord>(p.get_int("side"));
                const std::int64_t n = std::int64_t{side} * side;
                const auto k = static_cast<std::int32_t>(p.get_count("k", n));
                const std::int64_t cap = std::int64_t{1} << 30;
                const auto res = models::run_cover_time(side, k, seed, cap);
                Metrics m;
                m["covered"] = res.covered ? 1.0 : 0.0;
                m["steps"] = static_cast<double>(res.covered ? res.cover_time : cap);
                if (res.covered) m["cover_time"] = static_cast<double>(res.cover_time);
                return m;
            },
    });

}  // namespace

void link_scenarios_walk() {}

}  // namespace smn::exp
