#include "paperbench.hpp"

#include <time.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "core/bounds.hpp"
#include "core/gossip.hpp"
#include "core/rumor.hpp"
#include "exp/runner.hpp"
#include "graph/dsu.hpp"
#include "graph/visibility.hpp"
#include "rng/rng.hpp"
#include "walk/ensemble.hpp"

namespace paperbench {
namespace {

namespace core = smn::core;
namespace graph = smn::graph;
namespace grid = smn::grid;
namespace walk = smn::walk;

std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double cpu_seconds() noexcept {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::int64_t step_cap(const EngineConfig& cfg) noexcept {
    return core::bounds::default_max_steps(cfg.n(), cfg.k);
}

/// Same partition ⇔ same labels, where an agent's label is the smallest
/// agent id in its set (roots depend on the union order; minima do not).
std::vector<std::int32_t> canonical_labels(graph::DisjointSets& dsu) {
    const auto k = dsu.element_count();
    std::vector<std::int32_t> low(k, std::numeric_limits<std::int32_t>::max());
    std::vector<std::int32_t> out(k);
    for (std::size_t a = 0; a < k; ++a) {
        auto& l = low[static_cast<std::size_t>(dsu.find(static_cast<std::int32_t>(a)))];
        l = std::min(l, static_cast<std::int32_t>(a));
    }
    for (std::size_t a = 0; a < k; ++a) {
        out[a] = low[static_cast<std::size_t>(dsu.find(static_cast<std::int32_t>(a)))];
    }
    return out;
}

/// BroadcastProcess::exchange(), rebuilt from public calls.
class BroadcastExchange {
public:
    explicit BroadcastExchange(const EngineConfig& cfg)
        : rumor_{cfg.k, cfg.source}, state_(static_cast<std::size_t>(cfg.k)),
          labels_(static_cast<std::size_t>(cfg.k)) {}

    [[nodiscard]] bool complete() const noexcept { return rumor_.all_informed(); }
    [[nodiscard]] std::span<const std::uint8_t> flags() const noexcept { return rumor_.flags(); }
    [[nodiscard]] std::vector<std::int64_t> rumor_times() const { return {}; }

    void run(graph::DisjointSets& dsu, std::int64_t t, LayerCounts& c) {
        if (rumor_.all_informed()) return;
        // Bit 0: the component has an informed member; bit 1: an uninformed one.
        std::fill(state_.begin(), state_.end(), std::uint8_t{0});
        const auto k = rumor_.agent_count();
        bool any_mixed = false;
        for (std::int32_t a = 0; a < k; ++a) {
            const auto root = dsu.find(a);
            labels_[static_cast<std::size_t>(a)] = root;
            auto& s = state_[static_cast<std::size_t>(root)];
            s |= rumor_.is_informed(a) ? std::uint8_t{1} : std::uint8_t{2};
            any_mixed |= s == 3;
        }
        if (!any_mixed) return;
        for (std::int32_t a = 0; a < k; ++a) {
            const auto root = static_cast<std::size_t>(labels_[static_cast<std::size_t>(a)]);
            if (state_[root] == 3 && !rumor_.is_informed(a)) {
                rumor_.inform(a, t);
                ++c.informs;
            }
        }
    }

private:
    core::SingleRumor rumor_;
    std::vector<std::uint8_t> state_;
    std::vector<std::int32_t> labels_;
};

/// GossipProcess::exchange(), rebuilt from DisjointSets::find and
/// MultiRumorState::merge_word.
class GossipExchange {
public:
    explicit GossipExchange(const EngineConfig& cfg)
        : k_{cfg.k},
          rumors_{core::MultiRumorState::one_rumor_per_agent(cfg.k)},
          known_pairs_{cfg.k},
          known_count_(static_cast<std::size_t>(cfg.k), 1),
          complete_time_(static_cast<std::size_t>(cfg.k), -1),
          acc_(static_cast<std::size_t>(cfg.k) * rumors_.words_per_agent(), 0),
          labels_(static_cast<std::size_t>(cfg.k)) {
        if (k_ == 1) complete_time_[0] = 0;
    }

    [[nodiscard]] bool complete() const noexcept {
        return known_pairs_ == std::int64_t{k_} * k_;
    }
    [[nodiscard]] std::vector<std::int64_t> rumor_times() const { return complete_time_; }

    void run(graph::DisjointSets& dsu, std::int64_t t, LayerCounts& c) {
        const auto words = rumors_.words_per_agent();
        for (std::int32_t a = 0; a < k_; ++a) labels_[static_cast<std::size_t>(a)] = dsu.find(a);
        roots_.clear();
        for (std::int32_t a = 0; a < k_; ++a) {
            const auto root = labels_[static_cast<std::size_t>(a)];
            auto* acc = &acc_[static_cast<std::size_t>(root) * words];
            if (root == a) roots_.push_back(root);
            for (std::size_t w = 0; w < words; ++w) acc[w] |= rumors_.word(a, w);
        }
        for (std::int32_t a = 0; a < k_; ++a) {
            const auto* acc = &acc_[static_cast<std::size_t>(labels_[static_cast<std::size_t>(a)]) *
                                    words];
            for (std::size_t w = 0; w < words; ++w) {
                std::uint64_t gained = rumors_.merge_word(a, w, acc[w]);
                if (gained == 0) continue;
                ++c.merge_gains;
                const auto learned = std::popcount(gained);
                known_pairs_ += learned;
                c.informs += learned;
                for (; gained != 0; gained &= gained - 1) {
                    const auto r = w * 64 + static_cast<std::size_t>(std::countr_zero(gained));
                    if (++known_count_[r] == k_ && complete_time_[r] < 0) complete_time_[r] = t;
                }
            }
        }
        // One merge_word call per agent word, counted outside the hot loop.
        c.merge_words += std::int64_t{k_} * static_cast<std::int64_t>(words);
        for (const auto root : roots_) {
            auto* acc = &acc_[static_cast<std::size_t>(root) * words];
            std::fill(acc, acc + words, std::uint64_t{0});
        }
    }

private:
    std::int32_t k_;
    core::MultiRumorState rumors_;
    std::int64_t known_pairs_;
    std::vector<std::int32_t> known_count_;   ///< per rumor: agents knowing it
    std::vector<std::int64_t> complete_time_;  ///< per rumor: T_B of that rumor
    std::vector<std::uint64_t> acc_;           ///< per-root OR accumulator
    std::vector<std::int32_t> roots_;
    std::vector<std::int32_t> labels_;
};

struct Move {
    walk::AgentId agent;
    grid::Point from;
    grid::Point to;
};

template <typename Exchange>
ShadowRun shadow_loop(const EngineConfig& cfg, std::int32_t rep, std::vector<Span>& spans,
                      std::int64_t check_every) {
    ShadowRun out;
    auto& c = out.counts;
    const auto begin = now_ns();
    const auto k = static_cast<std::size_t>(cfg.k);
    // Construction mirrors the engines': one RNG seeds the placement and
    // then drives the walk, so the draws line up word for word.
    smn::rng::Rng rng{cfg.seed};
    walk::AgentEnsemble agents{grid::Grid2D::square(cfg.side), cfg.k, rng, cfg.walk};
    graph::VisibilityGraphBuilder builder{agents.grid(), cfg.radius, cfg.metric};
    graph::DisjointSets dsu{k};
    graph::DisjointSets naive{k};
    Exchange exchange{cfg};
    builder.build(agents.positions(), dsu);
    exchange.run(dsu, 0, c);

    const bool frog = cfg.mobility == core::Mobility::kInformedOnly;
    std::vector<std::uint8_t> mask(k, 0);
    std::vector<Move> moves;
    moves.reserve(k);
    const auto buffer = [&moves](walk::AgentId a, grid::Point from, grid::Point to) {
        moves.push_back({a, from, to});
    };
    const auto cap = step_cap(cfg);
    std::int64_t t = 0;
    while (!exchange.complete() && t < cap) {
        ++t;
        const auto t0 = now_ns();
        moves.clear();
        if constexpr (std::is_same_v<Exchange, BroadcastExchange>) {
            if (frog) {
                const auto flags = exchange.flags();
                std::copy(flags.begin(), flags.end(), mask.begin());
                agents.step_subset(rng, mask, buffer);
            } else {
                agents.step_all(rng, buffer);
            }
        } else {
            agents.step_all(rng, buffer);
        }
        const auto t1 = now_ns();
        // Below r = 1 the builder has no bucket index and on_move is a
        // no-op, so the spatial layer does no work there.
        if (cfg.radius >= 1) {
            builder.begin_step();
            for (const auto& m : moves) builder.on_move(m.agent, m.from, m.to);
        }
        const auto t2 = now_ns();
        builder.rebuild_components(agents.positions(), dsu);
        const auto t3 = now_ns();
        exchange.run(dsu, t, c);
        const auto t4 = now_ns();
        const auto s = static_cast<std::int32_t>(t);
        spans.push_back({rep, s, Layer::kShadowStep, t0, t4});
        spans.push_back({rep, s, Layer::kWalk, t0, t1});
        spans.push_back({rep, s, Layer::kSpatial, t1, t2});
        spans.push_back({rep, s, Layer::kGraph, t2, t3});
        spans.push_back({rep, s, Layer::kExchange, t3, t4});
        c.walk_moves += static_cast<std::int64_t>(moves.size());
        c.occupied_units += builder.occupied_units();
        if (check_every > 0 && t % check_every == 0) {
            graph::VisibilityGraphBuilder::build_naive(agents.positions(), cfg.radius, cfg.metric,
                                                       naive);
            ++c.naive_checks;
            if (canonical_labels(dsu) != canonical_labels(naive)) ++out.naive_mismatches;
        }
    }
    out.run.finish = exchange.complete() ? t : -1;
    out.run.rumor_times = exchange.rumor_times();
    out.run.wall_s = static_cast<double>(now_ns() - begin) * 1e-9;

    const auto& walk_stats = agents.decode_stats();
    const auto& index = builder.index_stats();
    const auto& scan = builder.scan_stats();
    const auto& dsu_stats = dsu.stats();
    c.blocks_decoded = walk_stats.blocks_decoded;
    c.blocks_scalar = walk_stats.blocks_scalar;
    c.spatial_moves = index.moves;
    c.relinks = index.relinks;
    c.passes = scan.passes;
    c.bypass_passes = scan.bypass_passes;
    c.units_rescanned = scan.rescanned_units;
    c.units_replayed = scan.replayed_units;
    c.pairs_tested = scan.pairs_tested;
    c.pairs_survived = scan.pairs_survived;
    c.edges_replayed = scan.edges_replayed;
    c.dsu_unites = dsu_stats.unites;
    c.dsu_fast_hits = dsu_stats.fast_path_hits;
    c.steps = t;
    // The engine's own counter names (BroadcastProcess::counters), so the
    // two runs can be compared name by name.
    const auto d = [](std::int64_t v) { return static_cast<double>(v); };
    out.run.counters = {
        {"scan.passes", d(scan.passes)},
        {"scan.bypass_passes", d(scan.bypass_passes)},
        {"scan.units_rescanned", d(scan.rescanned_units)},
        {"scan.units_replayed", d(scan.replayed_units)},
        {"scan.pairs_tested", d(scan.pairs_tested)},
        {"scan.pairs_survived", d(scan.pairs_survived)},
        {"scan.edges_replayed", d(scan.edges_replayed)},
        {"index.moves", d(index.moves)},
        {"index.relinks", d(index.relinks)},
        {"dsu.unites", d(dsu_stats.unites)},
        {"dsu.fast_path_hits", d(dsu_stats.fast_path_hits)},
        {"walk.blocks_decoded", d(walk_stats.blocks_decoded)},
        {"walk.blocks_scalar", d(walk_stats.blocks_scalar)},
    };
    return out;
}

template <typename Process>
EngineRun engine_loop(const EngineConfig& cfg, std::int32_t rep, std::vector<Span>& spans) {
    EngineRun out;
    const auto begin = now_ns();
    Process process{cfg};
    const auto cap = step_cap(cfg);
    while (!process.complete() && process.time() < cap) {
        const auto t0 = now_ns();
        process.step();
        const auto t1 = now_ns();
        const auto step = static_cast<std::int32_t>(process.time());
        spans.push_back({rep, step, Layer::kEngineStep, t0, t1});
    }
    out.wall_s = static_cast<double>(now_ns() - begin) * 1e-9;
    if (process.complete()) out.finish = process.time();
    if constexpr (std::is_same_v<Process, core::GossipProcess>) {
        for (std::int32_t r = 0; r < cfg.k; ++r) {
            out.rumor_times.push_back(process.rumor_broadcast_time(r));
        }
    } else {
        out.counters = process.counters();
    }
    return out;
}

double metric_or(const Metrics& metrics, const char* name, double fallback) {
    const auto it = metrics.find(name);
    return it == metrics.end() ? fallback : it->second;
}

/// The calibration kernel's state. It persists across slices, so every
/// slice continues one deterministic run and does the same work.
class Calibration {
public:
    /// `words` = 0 exchanges one informed flag per agent (broadcast);
    /// otherwise `words` 64-bit rumor words per agent are merged (gossip).
    Calibration(std::uint32_t side, std::size_t words)
        : side_{side}, words_{words}, cell_(kAgents),
          root_(kAgents), informed_(kAgents, 0), stamp_(std::size_t{side} * side, 0),
          first_(std::size_t{side} * side, 0), rumors_(kAgents * words, 0),
          acc_(kAgents * words, 0) {
        for (auto& c : cell_) c = static_cast<std::uint32_t>(next() % (side_ * side_));
        informed_[0] = 1;
        for (std::size_t a = 0; a < kAgents && words_ > 0; ++a) {
            rumors_[a * words_ + a / 64 % words_] = std::uint64_t{1} << (a % 64);
        }
    }

    void run(int steps) {
        for (int s = 0; s < steps; ++s) {
            ++step_;
            walk();
            // Agents on one cell form a component rooted at its first comer.
            for (std::size_t a = 0; a < kAgents; ++a) {
                const auto c = cell_[a];
                if (stamp_[c] != step_) {
                    stamp_[c] = step_;
                    first_[c] = static_cast<std::uint32_t>(a);
                }
                root_[a] = first_[c];
            }
            if (words_ == 0) {
                for (std::size_t a = 0; a < kAgents; ++a) informed_[root_[a]] |= informed_[a];
                for (std::size_t a = 0; a < kAgents; ++a) informed_[a] |= informed_[root_[a]];
            } else {
                merge();
            }
        }
    }

private:
    static constexpr std::size_t kAgents = 1024;

    std::uint64_t next() noexcept {  // xorshift64*
        rng_ ^= rng_ >> 12;
        rng_ ^= rng_ << 25;
        rng_ ^= rng_ >> 27;
        return rng_ * 0x2545F4914F6CDD1DULL;
    }

    /// Four bits per agent: half stay, the rest move one cell, blocked at
    /// the border.
    void walk() noexcept {
        for (std::size_t a = 0; a < kAgents; a += 16) {
            auto bits = next();
            for (std::size_t j = 0; j < 16; ++j, bits >>= 4) {
                auto& c = cell_[a + j];
                const auto x = c % side_;
                const auto y = c / side_;
                switch (bits & 7) {
                    case 4: c -= x > 0 ? 1 : 0; break;
                    case 5: c += x < side_ - 1 ? 1 : 0; break;
                    case 6: c -= y > 0 ? side_ : 0; break;
                    case 7: c += y < side_ - 1 ? side_ : 0; break;
                    default: break;
                }
            }
        }
    }

    /// Each root ORs its members' rumor words, then every member takes
    /// the union and counts the bits it gained.
    void merge() noexcept {
        for (std::size_t a = 0; a < kAgents; ++a) {
            auto* acc = &acc_[root_[a] * words_];
            const auto* own = &rumors_[a * words_];
            for (std::size_t w = 0; w < words_; ++w) acc[w] |= own[w];
        }
        for (std::size_t a = 0; a < kAgents; ++a) {
            const auto* acc = &acc_[root_[a] * words_];
            auto* own = &rumors_[a * words_];
            for (std::size_t w = 0; w < words_; ++w) {
                const auto gained = acc[w] & ~own[w];
                own[w] |= gained;
                if (gained != 0) learned_ += static_cast<std::uint64_t>(std::popcount(gained));
            }
        }
        for (std::size_t a = 0; a < kAgents; ++a) {
            if (root_[a] == a) std::fill_n(&acc_[a * words_], words_, std::uint64_t{0});
        }
    }

    std::uint32_t side_;
    std::size_t words_;
    std::uint64_t rng_{0x9E3779B97F4A7C15ULL};
    std::uint32_t step_{0};
    std::uint64_t learned_{0};
    std::vector<std::uint32_t> cell_;
    std::vector<std::uint32_t> root_;
    std::vector<std::uint8_t> informed_;
    std::vector<std::uint32_t> stamp_;
    std::vector<std::uint32_t> first_;
    std::vector<std::uint64_t> rumors_;
    std::vector<std::uint64_t> acc_;
};

}  // namespace

Slice calibration_slice(const Workload& w) {
    static Calibration broadcast{256, 0};
    static Calibration gossip{128, 16};
    const double cpu0 = cpu_seconds();
    const auto t0 = now_ns();
    // Each shape's step count takes about 10 ms on the reference host.
    // A gossip step walks and finds components like a broadcast step and
    // then merges rumor words: half a slice of each shape tracked its
    // speed best (per-replication log-log slope about 1, against 0.8 for
    // the merge shape alone and 1.2-1.5 for the broadcast shape alone).
    if (is_gossip(w)) {
        broadcast.run(512);
        gossip.run(128);
    } else {
        broadcast.run(1024);
    }
    const auto t1 = now_ns();
    return {static_cast<double>(t1 - t0) * 1e-9, cpu_seconds() - cpu0};
}

double host_factor(double took_s) noexcept {
    return took_s > 0.0 ? kReferenceSliceS / took_s : 1.0;
}

double peak_rss_mb() {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
    char line[256];
    long long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof line, f) != nullptr) {
        if (std::sscanf(line, "VmHWM: %lld kB", &kib) != 1) kib = -1;
    }
    std::fclose(f);
    if (kib < 0) throw std::runtime_error("no VmHWM in /proc/self/status");
    return static_cast<double>(kib) / 1024.0;
}

bool reset_peak_rss() {
    std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
    if (f == nullptr) return false;
    const bool wrote = std::fputs("5", f) >= 0;
    return std::fclose(f) == 0 && wrote;
}

const std::vector<Workload>& workloads() {
    // Rationale per workload: README.md and BENCHMARK.json. A batch is one
    // to two seconds of work on a 4-core Xeon VM; the digest covers batch
    // 0 at the default seed, so changing a batch size re-records it.
    static const std::vector<Workload> table{
        {"bcast_r0", "grid_broadcast", {{"side", "256"}, {"k", "1024"}, {"radius", "0"}}, 8,
         0x4da843ae84a0286d},
        {"bcast_r2", "grid_broadcast", {{"side", "256"}, {"k", "1024"}, {"radius", "2"}}, 4,
         0x572fee6a329855c9},
        {"frog_r2", "frog_broadcast", {{"side", "128"}, {"k", "1024"}, {"radius", "2"}}, 16,
         0x9e1b2e22f72b86ad},
        {"gossip_r0", "gossip", {{"side", "128"}, {"k", "1024"}}, 8, 0xc9dff1e2565751dd},
    };
    return table;
}

const Workload& find_workload(const std::string& name) {
    std::string known;
    for (const auto& w : workloads()) {
        if (w.name == name) return w;
        known += (known.empty() ? "" : ", ") + w.name;
    }
    throw std::invalid_argument("unknown workload '" + name + "' (known: " + known + ")");
}

std::uint64_t batch_seed(std::uint64_t seed, int batch) noexcept {
    return smn::rng::replication_seed(seed, static_cast<std::uint64_t>(batch));
}

std::uint64_t rep_seed(const Workload& w, std::uint64_t seed, int batch, int rep) noexcept {
    return smn::rng::replication_seed(
        smn::exp::point_seed(batch_seed(seed, batch), w.scenario, w.params),
        static_cast<std::uint64_t>(rep));
}

bool is_gossip(const Workload& w) noexcept { return w.scenario == "gossip"; }

EngineConfig engine_config(const Workload& w, std::uint64_t seed) {
    EngineConfig cfg;
    cfg.side = static_cast<grid::Coord>(std::stoi(w.params.at("side")));
    cfg.k = static_cast<std::int32_t>(std::stoi(w.params.at("k")));
    const auto radius = w.params.find("radius");
    cfg.radius = radius == w.params.end() ? 0 : std::stoll(radius->second);
    if (w.scenario == "frog_broadcast") cfg.mobility = core::Mobility::kInformedOnly;
    cfg.seed = seed;
    return cfg;
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const auto n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

std::optional<Tail> tail(std::vector<double> values, std::size_t beyond) {
    const auto n = values.size();
    if (n <= beyond) return std::nullopt;
    std::sort(values.begin(), values.end());
    return Tail{values[n - 1 - beyond],
                100.0 * static_cast<double>(n - beyond) / static_cast<double>(n), n};
}

std::string rep_failure(const Metrics& metrics) {
    const auto completed = metrics.find("completed");
    if (completed == metrics.end()) return "no 'completed' metric";
    if (completed->second != 1.0) return "hit the step cap";
    return {};
}

int SweepRun::failed() const {
    return static_cast<int>(std::count_if(reps.begin(), reps.end(),
                                          [](const RepRecord& r) { return !r.failure.empty(); }));
}

SweepRun run_sweeps(const Scenario& scenario, const Workload& w, std::uint64_t seed,
                    double seconds, int max_batches, FirstRepHook on_first_rep) {
    SweepRun out;
    const double k = static_cast<double>(engine_config(w, 0).k);
    const auto slice = [&out, &w]() {
        const auto s = calibration_slice(w);
        out.slice_s += s.wall_s;
        out.factors.push_back(host_factor(s.wall_s));
        return s;
    };
    // Observe the registered body without changing what it computes.
    Scenario observed = scenario;
    observed.run_rep = [&](const smn::exp::ScenarioParams& p, std::uint64_t s) -> Metrics {
        if (on_first_rep != nullptr && out.reps.empty()) on_first_rep();
        out.reps.emplace_back();
        out.reps.back().slice = slice();
        (void)reset_peak_rss();
        try {
            out.reps.back().metrics = scenario.run_rep(p, s);
        } catch (const std::exception& err) {
            out.reps.back().failure = std::string{"threw: "} + err.what();
            throw;
        }
        out.reps.back().peak_rss_mb = peak_rss_mb();
        return out.reps.back().metrics;
    };
    const auto sweep = smn::exp::SweepSpec::parse(smn::exp::canonical_point(w.params));
    struct Stamp {
        std::int64_t wall_ns;
        double cpu_s;
    };
    std::vector<Stamp> stamps;
    smn::exp::RunOptions options;
    options.reps = w.batch;
    options.threads = 1;
    options.tolerate_failures = true;
    options.on_progress = [&stamps](std::size_t, std::size_t) {
        stamps.push_back({now_ns(), cpu_seconds()});
    };

    const auto start = now_ns();
    const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    // Ten replications beyond the tail percentile, and the tail at or
    // above the median, need twenty in every run.
    constexpr std::size_t kMinReps = 20;
    for (int b = 0; max_batches <= 0 || b < max_batches; ++b) {
        if (b > 0 && now_ns() >= deadline && out.reps.size() >= kMinReps) break;
        options.seed = batch_seed(seed, b);
        const auto first = out.reps.size();
        stamps.clear();
        const double cpu0 = cpu_seconds();
        const auto t0 = now_ns();
        const auto results = smn::exp::run_sweep(observed, sweep, options);
        const auto t1 = now_ns();
        const double cpu1 = cpu_seconds();
        const auto after = slice();
        ++out.batches;
        // Slices ran inside run_sweep, within the runner's replication
        // times too; their time is not the library's.
        Slice in_batch;
        for (auto i = first; i < out.reps.size(); ++i) {
            in_batch.wall_s += out.reps[i].slice.wall_s;
            in_batch.cpu_s += out.reps[i].slice.cpu_s;
        }
        out.runner_rep_s += results.front().wall_seconds - in_batch.wall_s;
        double rest_wall = static_cast<double>(t1 - t0) * 1e-9 - in_batch.wall_s;
        double rest_cpu = cpu1 - cpu0 - in_batch.cpu_s;
        out.wall_s += rest_wall;
        out.cpu_s += rest_cpu;
        // One on_progress stamp per replication that returned, in order.
        // An interval holds the slices run since the previous stamp; they
        // come off. The interval's reference time uses the geometric mean
        // of the factors of the slices on either side of the replication.
        Stamp prev{t0, cpu0};
        Slice pending;
        double wall_factor = 1.0;
        double cpu_factor = 1.0;
        std::size_t next = 0;
        for (auto i = first; i < out.reps.size(); ++i) {
            auto& rep = out.reps[i];
            pending.wall_s += rep.slice.wall_s;
            pending.cpu_s += rep.slice.cpu_s;
            if (rep.failure.empty() && next < stamps.size()) {
                const auto& stamp = stamps[next++];
                const double wall =
                    static_cast<double>(stamp.wall_ns - prev.wall_ns) * 1e-9 - pending.wall_s;
                const double cpu = stamp.cpu_s - prev.cpu_s - pending.cpu_s;
                const auto& later = i + 1 < out.reps.size() ? out.reps[i + 1].slice : after;
                wall_factor = std::sqrt(host_factor(rep.slice.wall_s) * host_factor(later.wall_s));
                cpu_factor = std::sqrt(host_factor(rep.slice.cpu_s) * host_factor(later.cpu_s));
                rep.wall_ms = wall * 1e3;
                rep.ref_ms = wall * 1e3 * wall_factor;
                out.ref_wall_s += wall * wall_factor;
                out.ref_cpu_s += cpu * cpu_factor;
                rest_wall -= wall;
                rest_cpu -= cpu;
                prev = stamp;
                pending = {};
            }
            if (!rep.failure.empty()) continue;
            rep.failure = rep_failure(rep.metrics);
            if (rep.failure.empty()) out.agent_steps += k * metric_or(rep.metrics, "steps", 0.0);
        }
        // The runner's own time around the replications, at the last factor.
        out.ref_wall_s += rest_wall * wall_factor;
        out.ref_cpu_s += rest_cpu * cpu_factor;
    }
    return out;
}

std::uint64_t digest(const std::vector<RepRecord>& reps, std::size_t count) {
    std::uint64_t hash = 0xCBF29CE484222325ULL;
    const auto mix = [&hash](const void* data, std::size_t len) {
        const auto* bytes = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < len; ++i) {
            hash ^= bytes[i];
            hash *= 0x100000001B3ULL;
        }
    };
    for (std::size_t i = 0; i < std::min(count, reps.size()); ++i) {
        mix("|", 1);
        for (const auto& [name, value] : reps[i].metrics) {
            mix(name.data(), name.size());
            const auto bits = std::bit_cast<std::uint64_t>(value);
            mix(&bits, sizeof bits);
        }
    }
    return hash;
}

LayerCounts& LayerCounts::operator+=(const LayerCounts& o) {
    walk_moves += o.walk_moves;
    blocks_decoded += o.blocks_decoded;
    blocks_scalar += o.blocks_scalar;
    spatial_moves += o.spatial_moves;
    relinks += o.relinks;
    passes += o.passes;
    bypass_passes += o.bypass_passes;
    units_rescanned += o.units_rescanned;
    units_replayed += o.units_replayed;
    pairs_tested += o.pairs_tested;
    pairs_survived += o.pairs_survived;
    edges_replayed += o.edges_replayed;
    dsu_unites += o.dsu_unites;
    dsu_fast_hits += o.dsu_fast_hits;
    occupied_units += o.occupied_units;
    steps += o.steps;
    informs += o.informs;
    merge_words += o.merge_words;
    merge_gains += o.merge_gains;
    naive_checks += o.naive_checks;
    return *this;
}

const char* layer_name(Layer layer) noexcept {
    switch (layer) {
        case Layer::kEngineStep: return "engine.step";
        case Layer::kShadowStep: return "shadow.step";
        case Layer::kWalk: return "walk";
        case Layer::kSpatial: return "spatial";
        case Layer::kGraph: return "graph";
        case Layer::kExchange: return "core.exchange";
    }
    return "?";
}

EngineRun run_engine(const EngineConfig& cfg, bool gossip, std::int32_t rep,
                     std::vector<Span>& spans) {
    return gossip ? engine_loop<core::GossipProcess>(cfg, rep, spans)
                  : engine_loop<core::BroadcastProcess>(cfg, rep, spans);
}

ShadowRun run_shadow(const EngineConfig& cfg, bool gossip, std::int32_t rep,
                     std::vector<Span>& spans, std::int64_t check_every) {
    return gossip ? shadow_loop<GossipExchange>(cfg, rep, spans, check_every)
                  : shadow_loop<BroadcastExchange>(cfg, rep, spans, check_every);
}

namespace {

/// How an engine or shadow run of a replication differs from what the
/// sweep reported for it.
std::vector<std::string> compare_to_sweep(bool gossip, const Metrics& sweep,
                                          const EngineRun& run, const std::string& who) {
    std::vector<std::string> out;
    const auto expected = static_cast<std::int64_t>(
        metric_or(sweep, gossip ? "gossip_time" : "broadcast_time", -1.0));
    if (run.finish < 0) out.push_back(who + " hit the step cap");
    if (run.finish != expected) {
        out.push_back(who + " finished at " + std::to_string(run.finish) + ", the sweep at " +
                      std::to_string(expected));
    }
    if (gossip && !run.rumor_times.empty()) {
        // The scenario reports the fastest and the mean per-rumor time.
        const auto& times = run.rumor_times;
        double sum = 0.0;
        for (const auto tb : times) sum += static_cast<double>(tb);
        if (static_cast<double>(*std::min_element(times.begin(), times.end())) !=
                metric_or(sweep, "min_rumor_broadcast_time", -1.0) ||
            sum / static_cast<double>(times.size()) !=
                metric_or(sweep, "mean_rumor_broadcast_time", -1.0)) {
            out.push_back(who + "'s per-rumor times disagree with the sweep's summary");
        }
    }
    return out;
}

}  // namespace

std::vector<std::string> replay_check(const Workload& w, std::uint64_t seed, int rep,
                                      const RepRecord& record) {
    std::vector<Span> discard;
    const auto shadow = run_shadow(engine_config(w, rep_seed(w, seed, 0, rep)), is_gossip(w),
                                   rep, discard, 0);
    return compare_to_sweep(is_gossip(w), record.metrics, shadow.run, "shadow");
}

TraceRun run_trace(const Scenario& scenario, const Workload& w, std::uint64_t seed,
                   std::int64_t check_every) {
    TraceRun out;
    out.sweep = run_sweeps(scenario, w, seed, 0.0, 1);
    const bool gossip = is_gossip(w);
    // Engine and shadow spans of every step, so recording never reallocates.
    double steps = 0.0;
    for (const auto& rep : out.sweep.reps) steps += metric_or(rep.metrics, "steps", 0.0);
    out.spans.reserve(static_cast<std::size_t>(steps) * 6);
    for (int rep = 0; rep < static_cast<int>(out.sweep.reps.size()); ++rep) {
        const auto& record = out.sweep.reps[static_cast<std::size_t>(rep)];
        std::vector<std::string> why;
        if (!record.failure.empty()) why.push_back("sweep: " + record.failure);
        const auto cfg = engine_config(w, rep_seed(w, seed, 0, rep));
        const auto engine = run_engine(cfg, gossip, rep, out.spans);
        out.engine_wall_s += engine.wall_s;
        const auto shadow = run_shadow(cfg, gossip, rep, out.spans, check_every);
        for (const auto* run : {&engine, &shadow.run}) {
            const auto diff = compare_to_sweep(gossip, record.metrics, *run,
                                               run == &engine ? "engine" : "shadow");
            why.insert(why.end(), diff.begin(), diff.end());
        }
        if (shadow.run.rumor_times != engine.rumor_times) {
            why.emplace_back("per-rumor times differ between engine and shadow");
        }
        for (const auto& [name, value] : engine.counters) {
            for (const auto& [shadow_name, shadow_value] : shadow.run.counters) {
                if (std::strcmp(name, shadow_name) == 0 && value != shadow_value) {
                    why.push_back(std::string{"counter "} + name + ": engine " +
                                  std::to_string(value) + ", shadow " +
                                  std::to_string(shadow_value));
                }
            }
        }
        if (shadow.naive_mismatches > 0) {
            why.push_back(std::to_string(shadow.naive_mismatches) + " of " +
                          std::to_string(shadow.counts.naive_checks) +
                          " sampled partitions differ from build_naive");
        }
        if (rep == 0) {
            // Counts are cited as exact: a second run must repeat them.
            std::vector<Span> discard;
            if (!(run_shadow(cfg, gossip, rep, discard, check_every).counts == shadow.counts)) {
                why.emplace_back("two shadow runs of one seed gave different counts");
            }
        }
        out.counts += shadow.counts;
        for (const auto& line : why) {
            out.failures.push_back(w.name + " rep " + std::to_string(rep) + ": " + line);
        }
        if (!why.empty()) ++out.failed_reps;
    }
    return out;
}

std::vector<Metric> layer_metrics(const TraceRun& trace) {
    std::array<double, kLayerCount> seconds{};
    std::vector<double> step_us;
    for (const auto& s : trace.spans) {
        const double d = static_cast<double>(s.end_ns - s.begin_ns);
        seconds[static_cast<std::size_t>(s.layer)] += d * 1e-9;
        if (s.layer == Layer::kEngineStep) step_us.push_back(d * 1e-3);
    }
    const auto sec = [&](Layer l) { return seconds[static_cast<std::size_t>(l)]; };
    const double engine_s = sec(Layer::kEngineStep);
    const double layers_s = sec(Layer::kWalk) + sec(Layer::kSpatial) + sec(Layer::kGraph) +
                            sec(Layer::kExchange);
    const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
    const auto n = [](std::int64_t v) { return static_cast<double>(v); };
    const auto& c = trace.counts;
    double untraced_s = 0.0;
    for (const auto& rep : trace.sweep.reps) untraced_s += rep.wall_ms * 1e-3;
    return {
        {"walk.s", sec(Layer::kWalk), "s"},
        {"walk.frac", ratio(sec(Layer::kWalk), engine_s), "ratio"},
        {"walk.moves", n(c.walk_moves), "count"},
        {"walk.blocks_decoded", n(c.blocks_decoded), "count"},
        {"walk.blocks_scalar", n(c.blocks_scalar), "count"},
        {"spatial.s", sec(Layer::kSpatial), "s"},
        {"spatial.frac", ratio(sec(Layer::kSpatial), engine_s), "ratio"},
        {"spatial.moves", n(c.spatial_moves), "count"},
        {"spatial.relinks", n(c.relinks), "count"},
        {"spatial.relink_frac", ratio(n(c.relinks), n(c.spatial_moves)), "ratio"},
        {"graph.s", sec(Layer::kGraph), "s"},
        {"graph.frac", ratio(sec(Layer::kGraph), engine_s), "ratio"},
        {"graph.passes", n(c.passes), "count"},
        {"graph.bypass_frac", ratio(n(c.bypass_passes), n(c.passes)), "ratio"},
        {"graph.units_rescanned", n(c.units_rescanned), "count"},
        {"graph.units_replayed", n(c.units_replayed), "count"},
        {"graph.replay_ratio",
         ratio(n(c.units_replayed), n(c.units_replayed) + n(c.units_rescanned)), "ratio"},
        {"graph.pairs_tested", n(c.pairs_tested), "count"},
        {"graph.pair_survival", ratio(n(c.pairs_survived), n(c.pairs_tested)), "ratio"},
        {"graph.edges_replayed", n(c.edges_replayed), "count"},
        {"graph.dsu_unites", n(c.dsu_unites), "count"},
        {"graph.dsu_fast_hit_frac", ratio(n(c.dsu_fast_hits), n(c.dsu_fast_hits) + n(c.dsu_unites)),
         "ratio"},
        {"graph.occupied_units", ratio(n(c.occupied_units), n(c.steps)), "count"},
        {"core.exchange_s", sec(Layer::kExchange), "s"},
        {"core.exchange_frac", ratio(sec(Layer::kExchange), engine_s), "ratio"},
        {"core.informs", n(c.informs), "count"},
        {"core.merge_words", n(c.merge_words), "count"},
        {"core.merge_gain_frac", ratio(n(c.merge_gains), n(c.merge_words)), "ratio"},
        {"core.step_us_p50", quantile(step_us, 0.50), "us"},
        {"core.step_us_p99", quantile(step_us, 0.99), "us"},
        {"core.glue_s", engine_s - layers_s, "s"},
        {"core.glue_frac", ratio(engine_s - layers_s, engine_s), "ratio"},
        {"exp.overhead_s", trace.sweep.wall_s - trace.sweep.runner_rep_s, "s"},
        {"trace.overhead_frac", ratio(trace.engine_wall_s, untraced_s) - 1.0, "ratio"},
    };
}

}  // namespace paperbench
