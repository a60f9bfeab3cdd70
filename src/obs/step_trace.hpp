// step_trace.hpp — a bounded per-step telemetry timeline.
//
// StepTrace is a fixed-capacity ring of StepRecord entries, one per engine
// step: the four phase wall-clock spans, the step's delta of every engine
// counter under the engine's own counter names (the names of
// core::DisseminationLoop::counters(), so a counter is named once), and a
// few instantaneous gauges (occupied nodes, informed agents, component
// count). The ring keeps the *latest* `capacity` steps; pushes past
// capacity overwrite the oldest and bump `dropped`, so a week-long run can
// carry a trace without unbounded memory.
//
// Attaching: a trace rides the per-attempt counter sink (CounterSink::
// trace, counter_sink.hpp). The runner puts RunOptions::trace on the sink
// of the lowest-index unit its pass computes, and the first engine built
// under that sink — broadcast or gossip — takes it, so exactly one
// replication traces and which one does not depend on the thread count.
// Tracing is purely observational: the tracing engine enables its phase
// timing, which touches only timing fields, never trajectories.
//
// Export: write_json() emits a standalone JSON document
// ({"schema":2,"record":"step_trace", "steps":[...]}) which
// scripts/trace_to_chrome.py converts into a chrome://tracing /
// Perfetto-loadable event file.
#pragma once

#include <charconv>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace smn::obs {

/// Named counter values in a fixed order: an engine's cumulative
/// counters() or one step's deltas of them. The names are string
/// literals.
using Counters = std::vector<std::pair<const char*, double>>;

/// One engine step's telemetry: phase spans, counter deltas, gauges.
struct StepRecord {
    std::int64_t step{0};        ///< engine time t
    double walk_s{0.0};          ///< walk phase
    double index_s{0.0};         ///< motion tally + co-location pass filling the node bitmap
    double components_s{0.0};    ///< bitmap window reads + unions
    double exchange_s{0.0};      ///< rumor exchange
    Counters counters;           ///< this step's delta of every engine counter
    std::int64_t units{0};       ///< occupied nodes at the pass (0 at r = 0)
    std::int64_t informed{0};    ///< agents knowing every rumor after the exchange
    std::int64_t components{0};  ///< components of G_t(r)
};

/// Bounded ring of the latest `capacity` StepRecords.
class StepTrace {
public:
    explicit StepTrace(std::size_t capacity = 4096)
        : capacity_{capacity == 0 ? 1 : capacity} {}

    void push(StepRecord record) {
        if (ring_.size() < capacity_) {
            ring_.push_back(std::move(record));
            return;
        }
        ring_[head_] = std::move(record);
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
        std::string out = "{\"schema\":2,\"record\":\"step_trace\"";
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
        field_i("informed", r.informed);
        field_i("components", r.components);
        out += ",\"counters\":{";
        const char* sep = "\"";
        for (const auto& [name, delta] : r.counters) {
            out += sep;
            out += name;
            out += "\":";
            append_number(out, delta);
            sep = ",\"";
        }
        out += "}}";
    }

    std::size_t capacity_;
    std::vector<StepRecord> ring_;
    std::size_t head_{0};       ///< index of the oldest retained record
    std::int64_t dropped_{0};
};

}  // namespace smn::obs
