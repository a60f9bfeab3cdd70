#include "core/engine.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

#include "graph/visibility.hpp"
#include "obs/registry.hpp"

namespace smn::core {

EngineConfig validate(EngineConfig config) {
    if (config.side < 1) {
        throw std::invalid_argument("EngineConfig: side must be >= 1");
    }
    if (config.k < 1) {
        throw std::invalid_argument("EngineConfig: k must be >= 1");
    }
    if (config.radius < 0) {
        throw std::invalid_argument("EngineConfig: radius must be >= 0");
    }
    if (config.source < 0 || config.source >= config.k) {
        throw std::invalid_argument("EngineConfig: source " + std::to_string(config.source) +
                                    " out of range [0," + std::to_string(config.k) + ")");
    }
    return config;
}

namespace {

rng::Rng make_rng(const EngineConfig& config) { return rng::Rng{config.seed}; }

walk::AgentEnsemble make_agents(const EngineConfig& config, rng::Rng& rng) {
    return walk::AgentEnsemble{grid::Grid2D::square(config.side), config.k, rng, config.walk};
}

}  // namespace

BroadcastProcess::BroadcastProcess(const EngineConfig& config)
    : config_{validate(config)},
      rng_{make_rng(config_)},
      agents_{make_agents(config_, rng_)},
      builder_{agents_.grid(), config_.radius, config_.metric},
      dsu_{static_cast<std::size_t>(config_.k)},
      rumor_{config_.k, config_.source},
      root_informed_(static_cast<std::size_t>(config_.k), 0),
      move_mask_(static_cast<std::size_t>(config_.k), 0) {
    // Initial exchange at t = 0: the rumor floods the source's component
    // of G_0(r) before anyone moves.
    builder_.build(agents_.positions(), dsu_);
    exchange();
    notify();
    // One-shot trace arming (smn_lab --trace): the first engine built
    // after obs::arm_trace claims the sink. Purely observational — the
    // only engine-side effect is phase timing, which touches no state the
    // trajectories depend on.
    set_trace(obs::claim_trace());
}

BroadcastProcess::~BroadcastProcess() {
    // Moved-from shells keep their (trivially copyable) tally totals;
    // flushing them too would double-count. A move empties the ensemble's
    // vectors, so count() == 0 identifies a shell.
    if (agents_.count() == 0) return;
    auto& registry = obs::Registry::instance();
    for (const auto& [name, value] : counters()) {
        registry.counter(std::string{"engine."} + name)
            .add(static_cast<std::int64_t>(value));
    }
}

std::vector<std::pair<const char*, double>> BroadcastProcess::counters() const {
    const auto& scan = builder_.scan_stats();
    const auto& index = builder_.index_stats();
    const auto& dsu = dsu_.stats();
    const auto& walk = agents_.decode_stats();
    const auto d = [](std::int64_t v) { return static_cast<double>(v); };
    return {
        {"scan.passes", d(scan.passes)},
        {"scan.bypass_passes", d(scan.bypass_passes)},
        {"scan.units_rescanned", d(scan.rescanned_units)},
        {"scan.units_replayed", d(scan.replayed_units)},
        {"scan.pairs_tested", d(scan.pairs_tested)},
        {"scan.pairs_survived", d(scan.pairs_survived)},
        {"scan.edges_replayed", d(scan.edges_replayed)},
        {"index.moves", d(index.moves)},
        {"index.relinks", d(index.relinks)},
        {"dsu.unites", d(dsu.unites)},
        {"dsu.fast_path_hits", d(dsu.fast_path_hits)},
        {"walk.blocks_decoded", d(walk.blocks_decoded)},
        {"walk.blocks_scalar", d(walk.blocks_scalar)},
        {"exchange.linked", d(exchange_linked_)},
    };
}

void BroadcastProcess::set_trace(obs::StepTrace* trace) noexcept {
    trace_ = trace;
    if (trace_ != nullptr) {
        set_phase_timing(true);
        // Baseline at attach time, so the first traced step's deltas cover
        // that step only — not the construction-time build pass.
        trace_prev_ = trace_totals();
    }
}

/// Current cumulative totals of every traced engine counter and phase.
obs::StepRecord BroadcastProcess::trace_totals() const noexcept {
    obs::StepRecord cur{};
    const auto ph = phase_timings();
    cur.walk_s = ph.walk_s;
    cur.index_s = ph.index_s;
    cur.components_s = ph.components_s;
    cur.exchange_s = ph.exchange_s;
    const auto& scan = builder_.scan_stats();
    cur.rescanned = scan.rescanned_units;
    cur.pairs_tested = scan.pairs_tested;
    cur.pairs_survived = scan.pairs_survived;
    const auto& index = builder_.index_stats();
    cur.index_moves = index.moves;
    cur.index_relinks = index.relinks;
    const auto& dsu = dsu_.stats();
    cur.dsu_unites = dsu.unites;
    cur.dsu_fast_hits = dsu.fast_path_hits;
    const auto& walk = agents_.decode_stats();
    cur.blocks_decoded = walk.blocks_decoded;
    cur.blocks_scalar = walk.blocks_scalar;
    return cur;
}

/// Pushes one StepRecord: deltas of every cumulative engine counter and
/// phase total since the previous traced step, plus instantaneous gauges.
void BroadcastProcess::trace_step() {
    if (trace_ == nullptr) return;
    const obs::StepRecord cur = trace_totals();
    obs::StepRecord rec{};
    rec.step = t_;
    rec.walk_s = cur.walk_s - trace_prev_.walk_s;
    rec.index_s = cur.index_s - trace_prev_.index_s;
    rec.components_s = cur.components_s - trace_prev_.components_s;
    rec.exchange_s = cur.exchange_s - trace_prev_.exchange_s;
    rec.rescanned = cur.rescanned - trace_prev_.rescanned;
    rec.pairs_tested = cur.pairs_tested - trace_prev_.pairs_tested;
    rec.pairs_survived = cur.pairs_survived - trace_prev_.pairs_survived;
    rec.index_moves = cur.index_moves - trace_prev_.index_moves;
    rec.index_relinks = cur.index_relinks - trace_prev_.index_relinks;
    rec.dsu_unites = cur.dsu_unites - trace_prev_.dsu_unites;
    rec.dsu_fast_hits = cur.dsu_fast_hits - trace_prev_.dsu_fast_hits;
    rec.blocks_decoded = cur.blocks_decoded - trace_prev_.blocks_decoded;
    rec.blocks_scalar = cur.blocks_scalar - trace_prev_.blocks_scalar;
    rec.units = builder_.occupied_units();
    rec.informed = rumor_.informed_count();
    rec.components = static_cast<std::int64_t>(dsu_.set_count());
    trace_->push(rec);
    trace_prev_ = cur;
}

void BroadcastProcess::step() {
    ++t_;
    // smn-lint: allow(wall-clock) timing-only telemetry, gated behind timing_
    using clock = std::chrono::steady_clock;
    const auto stamp = [this] { return timing_ ? clock::now() : clock::time_point{}; };
    const auto t0 = stamp();
    // Once the rumor has saturated and nothing observes the partition,
    // neither the component pass nor the exchange can affect observable
    // state. The step degenerates to the walk; components() recomputes
    // the partition on demand.
    const bool lazy = observers_.empty() && rumor_.all_informed();
    if (config_.mobility == Mobility::kAllMove) {
        agents_.step_all(rng_);
    } else {
        // Frog model: agents informed *before* this step's motion walk;
        // agents informed during this step's exchange start moving next
        // step. Copy the flags because exchange mutates them.
        const auto flags = rumor_.flags();
        std::copy(flags.begin(), flags.end(), move_mask_.begin());
        agents_.step_subset(rng_, move_mask_);
    }
    const auto t1 = stamp();
    if (timing_) walk_seconds_ += std::chrono::duration<double>(t1 - t0).count();
    if (lazy) {
        stale_ = true;
        trace_step();
        return;
    }
    builder_.build(agents_.positions(), dsu_);
    stale_ = false;
    const auto t2 = stamp();
    exchange();
    if (timing_) {
        const auto t3 = clock::now();
        rebuild_seconds_ += std::chrono::duration<double>(t2 - t1).count();
        exchange_seconds_ += std::chrono::duration<double>(t3 - t2).count();
    }
    trace_step();
    notify();
}

void BroadcastProcess::refresh_components() {
    if (!stale_) return;  // partition is current as of the last full step
    // Deferred steps skipped the component pass: recompute it. Accounted
    // under the rebuild phase so phase_timings() subtraction stays
    // consistent.
    // smn-lint: allow(wall-clock) timing-only telemetry, gated behind timing_
    using clock = std::chrono::steady_clock;
    const auto t0 = timing_ ? clock::now() : clock::time_point{};
    builder_.build(agents_.positions(), dsu_);
    if (timing_) rebuild_seconds_ += std::chrono::duration<double>(clock::now() - t0).count();
    stale_ = false;
}

void BroadcastProcess::set_phase_timing(bool on) noexcept {
    timing_ = on;
    builder_.set_timing(on);
}

StepPhaseTimings BroadcastProcess::phase_timings() const noexcept {
    StepPhaseTimings timings;
    timings.walk_s = walk_seconds_;
    timings.index_s = builder_.index_seconds();
    // Clamp: clock granularity can make the sort total nominally exceed
    // the enclosing rebuild total.
    timings.components_s = std::max(0.0, rebuild_seconds_ - builder_.index_seconds());
    timings.exchange_s = exchange_seconds_;
    return timings;
}

std::optional<std::int64_t> BroadcastProcess::run_until_complete(std::int64_t max_steps) {
    while (!complete()) {
        if (t_ >= max_steps) return std::nullopt;
        step();
    }
    return t_;
}

void BroadcastProcess::exchange() {
    // Saturated: no component can learn anything new.
    if (rumor_.all_informed()) return;
    // Only linked agents (members of components of size >= 2) can learn or
    // teach, so both passes run over builder_.linked(), not all k agents.
    const auto linked = builder_.linked();
    exchange_linked_ += static_cast<std::int64_t>(linked.size());
    // Pass 1: one find per linked agent (labels_ remembers it for pass 2),
    // classifying each component — bit 0: has an informed member, bit 1:
    // has an uninformed member.
    labels_.resize(linked.size());
    bool any_mixed = false;
    for (std::size_t i = 0; i < linked.size(); ++i) {
        const auto a = linked[i];
        const auto root = dsu_.find(a);
        labels_[i] = root;
        auto& state = root_informed_[static_cast<std::size_t>(root)];
        state |= rumor_.is_informed(a) ? std::uint8_t{1} : std::uint8_t{2};
        any_mixed |= state == 3;
    }
    // Pass 2: flood only mixed components (fully informed ones — the
    // common case late in a run — need no work).
    if (any_mixed) {
        for (std::size_t i = 0; i < linked.size(); ++i) {
            const auto a = linked[i];
            if (root_informed_[static_cast<std::size_t>(labels_[i])] == 3 &&
                !rumor_.is_informed(a)) {
                rumor_.inform(a, t_);
            }
        }
    }
    // Clear only the roots this exchange touched.
    for (const auto root : labels_) root_informed_[static_cast<std::size_t>(root)] = 0;
}

void BroadcastProcess::notify() {
    if (observers_.empty()) return;
    StepView view{
        .time = t_, .positions = agents_.positions(), .components = dsu_, .rumor = rumor_};
    for (auto* obs : observers_) obs->on_step(view);
}

}  // namespace smn::core
