// counter_sink.hpp — where an engine's counters and phase times go when it
// is destroyed.
//
// Engines keep their counters as plain per-object tallies and list them
// by name (core::DisseminationLoop::counters()). The experiment runner
// points this thread's sink at a fresh one around each attempt of a
// replication body; an engine destroyed while a sink is set adds its
// totals there under the "obs." metric prefix, and the runner merges the
// sink's metrics into that replication's. A timed sink (smn_lab
// --timings) also turns on the engine's phase timers when the engine is
// built, and receives its phase seconds under "timing.". A failed
// attempt's sink is dropped with it, so a retried replication reports
// one attempt's counters and phases. A sink can also carry a step trace
// (obs/step_trace.hpp, smn_lab --trace): the first engine built under it
// takes the trace, times its phases, and pushes one record per step.
// Without a sink (benchmarks, tests, examples driving engines directly)
// the constructor and destructor do nothing but read the thread-local
// pointer.
#pragma once

#include <map>
#include <string>

namespace smn::obs {

class StepTrace;

struct CounterSink {
    /// Metric name ("obs." counter or "timing." phase) → summed value.
    std::map<std::string, double> metrics;
    /// Engines built under this sink time their phases and report them.
    bool timed{false};
    /// Step trace for the first engine built under this sink (non-owning);
    /// that engine takes it and sets this back to nullptr.
    StepTrace* trace{nullptr};
};

/// This thread's current sink; nullptr when none is set.
[[nodiscard]] inline CounterSink*& counter_sink() noexcept {
    thread_local CounterSink* sink = nullptr;
    return sink;
}

/// Points this thread's sink at `sink` for the guard's lifetime and then
/// restores the previous one, so a replication body that runs units of
/// its own inline keeps each unit's counters and phases apart.
class ScopedCounterSink {
public:
    explicit ScopedCounterSink(CounterSink& sink) noexcept : previous_{counter_sink()} {
        counter_sink() = &sink;
    }
    ~ScopedCounterSink() { counter_sink() = previous_; }
    ScopedCounterSink(const ScopedCounterSink&) = delete;
    ScopedCounterSink& operator=(const ScopedCounterSink&) = delete;

private:
    CounterSink* previous_;
};

}  // namespace smn::obs
