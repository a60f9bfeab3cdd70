// step_trace.hpp — a bounded per-step telemetry timeline.
//
// StepTrace is a fixed-capacity ring of StepRecord entries, one per engine
// step: the four phase wall-clock spans plus the step's deltas of every
// engine counter (cells scanned, pairs tested/survived, DSU unions, walk
// moves, …) and a few instantaneous gauges (informed agents,
// component count). The ring keeps the *latest* `capacity` steps; pushes
// past capacity overwrite the oldest and bump `dropped`, so a week-long
// run can leave a trace armed without unbounded memory.
//
// Arming: smn_lab --trace=FILE arms the process-wide one-shot sink, and
// the first engine constructed afterwards — broadcast or gossip — claims
// it (an atomic exchange — exactly one replication traces, whichever
// engine is built first; run with --threads=1 --reps=1 to pin it to a
// specific one).
// Tracing is purely observational: the claiming engine enables its phase
// timing, which touches only timing fields, never trajectories.
//
// Export: write_json() emits a standalone JSON document
// ({"record":"step_trace", "steps":[...]}) which
// scripts/trace_to_chrome.py converts into a chrome://tracing /
// Perfetto-loadable event file.
#pragma once

#include <atomic>
#include <charconv>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace smn::obs {

/// One engine step's telemetry: phase spans, counter deltas, gauges.
struct StepRecord {
    std::int64_t step{0};        ///< engine time t
    double walk_s{0.0};          ///< walk phase
    double index_s{0.0};         ///< counting sort into the cell list
    double components_s{0.0};    ///< pair scan + unions
    double exchange_s{0.0};      ///< rumor exchange
    std::int64_t units{0};       ///< occupied cells at the pass
    std::int64_t rescanned{0};   ///< cells scanned this step
    std::int64_t pairs_tested{0};     ///< candidate pairs distance-tested
    std::int64_t pairs_survived{0};   ///< in-range pairs reaching the DSU
    std::int64_t index_moves{0};      ///< agents whose node changed since the last pass
    std::int64_t index_relinks{0};    ///< moves that changed cell
    std::int64_t dsu_unites{0};       ///< DSU merges performed
    std::int64_t dsu_fast_hits{0};    ///< DSU same-parent/root fast-path hits
    std::int64_t blocks_decoded{0};   ///< walk RNG blocks decoded vectorized
    std::int64_t blocks_scalar{0};    ///< blocks replayed scalar (rejection/ablation)
    std::int64_t informed{0};         ///< agents knowing every rumor after the exchange
    std::int64_t components{0};       ///< components of G_t(r)
};

/// Bounded ring of the latest `capacity` StepRecords.
class StepTrace {
public:
    explicit StepTrace(std::size_t capacity = 4096)
        : capacity_{capacity == 0 ? 1 : capacity} {}

    void push(const StepRecord& record) {
        if (ring_.size() < capacity_) {
            ring_.push_back(record);
            return;
        }
        ring_[head_] = record;
        head_ = (head_ + 1) % capacity_;
        ++dropped_;
    }

    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
    [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
    [[nodiscard]] std::int64_t dropped() const noexcept { return dropped_; }

    /// i-th retained record in chronological order (0 = oldest retained).
    [[nodiscard]] const StepRecord& at(std::size_t i) const noexcept {
        return ring_[(head_ + i) % ring_.size()];
    }

    void clear() noexcept {
        ring_.clear();
        head_ = 0;
        dropped_ = 0;
    }

    /// Writes the whole trace as one standalone JSON document.
    void write_json(std::ostream& os) const {
        std::string out = "{\"schema\":1,\"record\":\"step_trace\"";
        out += ",\"capacity\":" + std::to_string(capacity_);
        out += ",\"dropped\":" + std::to_string(dropped_);
        out += ",\"steps\":[";
        for (std::size_t i = 0; i < size(); ++i) {
            if (i != 0) out += ',';
            append_record(out, at(i));
        }
        out += "]}\n";
        os << out;
    }

private:
    static void append_number(std::string& out, double v) {
        char buf[32];
        const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
        if (ec != std::errc{}) {
            out += '0';
            return;
        }
        out.append(buf, ptr);
    }

    static void append_record(std::string& out, const StepRecord& r) {
        out += "{\"step\":" + std::to_string(r.step);
        const auto field_d = [&out](const char* name, double v) {
            out += ",\"";
            out += name;
            out += "\":";
            append_number(out, v);
        };
        const auto field_i = [&out](const char* name, std::int64_t v) {
            out += ",\"";
            out += name;
            out += "\":" + std::to_string(v);
        };
        field_d("walk_s", r.walk_s);
        field_d("index_s", r.index_s);
        field_d("components_s", r.components_s);
        field_d("exchange_s", r.exchange_s);
        field_i("units", r.units);
        field_i("rescanned", r.rescanned);
        field_i("pairs_tested", r.pairs_tested);
        field_i("pairs_survived", r.pairs_survived);
        field_i("index_moves", r.index_moves);
        field_i("index_relinks", r.index_relinks);
        field_i("dsu_unites", r.dsu_unites);
        field_i("dsu_fast_hits", r.dsu_fast_hits);
        field_i("blocks_decoded", r.blocks_decoded);
        field_i("blocks_scalar", r.blocks_scalar);
        field_i("informed", r.informed);
        field_i("components", r.components);
        out += '}';
    }

    std::size_t capacity_;
    std::vector<StepRecord> ring_;
    std::size_t head_{0};       ///< index of the oldest retained record
    std::int64_t dropped_{0};
};

/// The process-wide one-shot trace sink. arm_trace publishes a trace for
/// the next engine to claim; claim_trace atomically takes it (so exactly
/// one claimant wins); disarm_trace withdraws an unclaimed trace. The
/// armed pointer must outlive the engine that claims it.
[[nodiscard]] inline std::atomic<StepTrace*>& trace_slot() noexcept {
    static std::atomic<StepTrace*> slot{nullptr};
    return slot;
}

inline void arm_trace(StepTrace* trace) noexcept {
    trace_slot().store(trace, std::memory_order_release);
}

[[nodiscard]] inline StepTrace* claim_trace() noexcept {
    // Plain load first: the unarmed case (every engine construction in a
    // normal run) stays a read, not an exchange.
    if (trace_slot().load(std::memory_order_acquire) == nullptr) return nullptr;
    return trace_slot().exchange(nullptr, std::memory_order_acq_rel);
}

inline void disarm_trace() noexcept { trace_slot().store(nullptr, std::memory_order_release); }

}  // namespace smn::obs
