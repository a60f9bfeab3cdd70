// Tests of the benchmark's own rules: the tail-percentile rule, failure
// accounting, and shadow-vs-engine agreement on tiny configs of each
// engine. Run with `ctest --test-dir <build>` after building the package.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/broadcast.hpp"
#include "exp/scenario.hpp"
#include "exp/scenarios.hpp"
#include "paperbench.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                                  \
    do {                                                                             \
        if (!(cond)) {                                                               \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, #cond); \
            ++g_failures;                                                            \
        }                                                                            \
    } while (0)

using paperbench::EngineConfig;
using paperbench::Workload;

void tail_needs_ten_samples_beyond() {
    CHECK(!paperbench::tail({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}).has_value());

    const auto eleven = paperbench::tail({11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
    CHECK(eleven.has_value());
    CHECK(eleven->value == 1.0);
    CHECK(eleven->samples == 11);

    std::vector<double> hundred;
    for (int i = 100; i >= 1; --i) hundred.push_back(i);
    const auto t = paperbench::tail(hundred);
    CHECK(t.has_value());
    CHECK(t->value == 90.0);
    CHECK(t->percentile == 90.0);
    CHECK(std::count_if(hundred.begin(), hundred.end(), [&](double v) { return v > t->value; }) ==
          10);

    CHECK(paperbench::median({3, 1, 2}) == 2.0);
    CHECK(paperbench::median({4, 1, 3, 2}) == 2.5);
    CHECK(paperbench::quantile({5, 1, 4, 2, 3}, 0.99) == 5.0);
    CHECK(paperbench::quantile({5, 1, 4, 2, 3}, 0.5) == 3.0);
}

void failed_reps_are_counted() {
    // Rep 0 completes, rep 1 hits a planted one-step cap, rep 2 throws.
    int calls = 0;
    paperbench::Scenario planted{
        .name = "planted",
        .title = "",
        .claim = "",
        .params = {{"side", "32", ""}, {"k", "4", ""}, {"radius", "0", ""}},
        .default_sweep = "",
        .quick_sweep = "",
        .run_rep =
            [&calls](const smn::exp::ScenarioParams&, std::uint64_t seed) {
                const int call = calls++;
                if (call == 2) throw std::runtime_error("planted");
                EngineConfig cfg;
                cfg.side = 32;
                cfg.k = 4;
                cfg.seed = seed;
                smn::core::BroadcastOptions options;
                if (call == 1) options.max_steps = 1;
                const auto res = smn::core::run_broadcast(cfg, options);
                return smn::exp::Metrics{{"completed", res.completed ? 1.0 : 0.0},
                                         {"steps", static_cast<double>(res.steps_run)}};
            },
    };
    const Workload w{"planted", "planted", {{"side", "32"}, {"k", "4"}, {"radius", "0"}}, 3, 0};
    const auto run = paperbench::run_sweeps(planted, w, 7, 0.0, 1);
    CHECK(run.reps.size() == 3);
    CHECK(run.failed() == 2);
    CHECK(run.reps[0].failure.empty());
    CHECK(run.reps[0].wall_ms > 0.0);
    CHECK(run.reps[1].failure == "hit the step cap");
    CHECK(run.reps[2].failure.rfind("threw: planted", 0) == 0);
    CHECK(run.agent_steps == 4.0 * run.reps[0].metrics.at("steps"));
    CHECK(paperbench::rep_failure({{"steps", 3.0}}) == "no 'completed' metric");
}

void shadow_matches_engine(const Workload& w) {
    const bool gossip = paperbench::is_gossip(w);
    for (int rep = 0; rep < 3; ++rep) {
        const auto cfg = paperbench::engine_config(w, paperbench::rep_seed(w, 11, 0, rep));
        std::vector<paperbench::Span> spans;
        const auto engine = paperbench::run_engine(cfg, gossip, rep, spans);
        const auto engine_spans = spans.size();
        const auto shadow = paperbench::run_shadow(cfg, gossip, rep, spans, 1);
        CHECK(engine.finish > 0);
        CHECK(shadow.run.finish == engine.finish);
        CHECK(shadow.run.rumor_times == engine.rumor_times);
        CHECK(gossip == !engine.rumor_times.empty());
        CHECK(shadow.naive_mismatches == 0);
        CHECK(shadow.counts.naive_checks == engine.finish);
        CHECK(engine_spans == static_cast<std::size_t>(engine.finish));
        CHECK(spans.size() - engine_spans == 5 * static_cast<std::size_t>(engine.finish));
        std::size_t matched = 0;
        for (const auto& [name, value] : engine.counters) {
            for (const auto& [shadow_name, shadow_value] : shadow.run.counters) {
                if (std::string{name} == shadow_name) {
                    ++matched;
                    CHECK(value == shadow_value);
                }
            }
        }
        CHECK(matched == (gossip ? 0u : shadow.run.counters.size()));
        std::vector<paperbench::Span> again;
        CHECK(paperbench::run_shadow(cfg, gossip, rep, again, 1).counts == shadow.counts);
        if (cfg.radius == 0) CHECK(shadow.counts.spatial_moves == 0);
        if (cfg.radius >= 1) CHECK(shadow.counts.spatial_moves == shadow.counts.walk_moves);
    }
}

void trace_pass_checks_out(const Workload& w) {
    const auto& scenario = smn::exp::ScenarioRegistry::instance().at(w.scenario);
    const auto trace = paperbench::run_trace(scenario, w, 5, 7);
    for (const auto& why : trace.failures) std::fprintf(stderr, "  %s\n", why.c_str());
    CHECK(trace.failures.empty());
    CHECK(trace.sweep.reps.size() == static_cast<std::size_t>(w.batch));
    CHECK(trace.counts.steps > 0);
    for (const auto& m : paperbench::layer_metrics(trace)) {
        if (m.name == "graph.s" || m.name == "walk.s") CHECK(m.value > 0.0);
    }
}

void replay_check_catches_a_wrong_record(const Workload& w) {
    const auto& scenario = smn::exp::ScenarioRegistry::instance().at(w.scenario);
    auto run = paperbench::run_sweeps(scenario, w, 3, 0.0, 1);
    CHECK(paperbench::replay_check(w, 3, 1, run.reps[1]).empty());
    CHECK(!paperbench::replay_check(w, 3, 0, run.reps[1]).empty());  // another rep's record
    auto& finish = run.reps[1].metrics.at(paperbench::is_gossip(w) ? "gossip_time"
                                                                    : "broadcast_time");
    finish += 1.0;
    CHECK(!paperbench::replay_check(w, 3, 1, run.reps[1]).empty());
}

void calibration_scales_times(const Workload& w) {
    CHECK(paperbench::host_factor(0.0) == 1.0);
    CHECK(paperbench::host_factor(2 * paperbench::kReferenceSliceS) == 0.5);

    const auto& scenario = smn::exp::ScenarioRegistry::instance().at(w.scenario);
    const auto run = paperbench::run_sweeps(scenario, w, 9, 0.0, 1);
    const auto reps = static_cast<std::size_t>(w.batch);
    CHECK(run.factors.size() == reps + 1);  // one per rep, one after the batch
    CHECK(run.slice_s > 0.0);
    double ref_ms = 0.0;
    for (const auto& rep : run.reps) {
        CHECK(rep.slice.wall_s > 0.0);
        CHECK(rep.wall_ms > 0.0);
        CHECK(rep.peak_rss_mb > 0.0);
        // Each replication is scaled by a factor inside the slices' range.
        const auto [lo, hi] = std::minmax_element(run.factors.begin(), run.factors.end());
        CHECK(rep.ref_ms >= rep.wall_ms * *lo * (1 - 1e-9));
        CHECK(rep.ref_ms <= rep.wall_ms * *hi * (1 + 1e-9));
        ref_ms += rep.ref_ms;
    }
    // The runner's time outside the replications is scaled too.
    CHECK(run.ref_wall_s >= ref_ms * 1e-3);
    CHECK(run.ref_cpu_s > 0.0);
}

void digest_tracks_outputs() {
    std::vector<paperbench::RepRecord> reps(2);
    reps[0].metrics = {{"broadcast_time", 10.0}, {"completed", 1.0}};
    reps[1].metrics = {{"broadcast_time", 12.0}, {"completed", 1.0}};
    const auto base = paperbench::digest(reps, 2);
    CHECK(paperbench::digest(reps, 2) == base);
    CHECK(paperbench::digest(reps, 1) != base);
    reps[1].metrics["broadcast_time"] = 13.0;
    CHECK(paperbench::digest(reps, 2) != base);
    reps[1].wall_ms = 99.0;  // timings are not outputs
    const auto timed = paperbench::digest(reps, 2);
    reps[1].wall_ms = 1.0;
    CHECK(paperbench::digest(reps, 2) == timed);
}

}  // namespace

int main() {
    smn::exp::register_builtin_scenarios();
    const std::vector<Workload> tiny{
        {"tiny_r0", "grid_broadcast", {{"side", "16"}, {"k", "24"}, {"radius", "0"}}, 3, 0},
        {"tiny_r2", "grid_broadcast", {{"side", "16"}, {"k", "24"}, {"radius", "2"}}, 3, 0},
        {"tiny_frog", "frog_broadcast", {{"side", "16"}, {"k", "24"}, {"radius", "2"}}, 3, 0},
        {"tiny_gossip", "gossip", {{"side", "12"}, {"k", "70"}}, 3, 0},
    };
    tail_needs_ten_samples_beyond();
    failed_reps_are_counted();
    digest_tracks_outputs();
    for (const auto& w : tiny) {
        shadow_matches_engine(w);
        trace_pass_checks_out(w);
        replay_check_catches_a_wrong_record(w);
        calibration_scales_times(w);
    }
    // The real workloads resolve against the registry and agree with the
    // configs their scenarios build.
    for (const auto& w : paperbench::workloads()) {
        CHECK(smn::exp::ScenarioRegistry::instance().find(w.scenario) != nullptr);
        CHECK(&paperbench::find_workload(w.name) == &w);
    }
    std::printf("%s (%d failed checks)\n", g_failures == 0 ? "OK" : "FAILED", g_failures);
    return g_failures == 0 ? 0 : 1;
}
