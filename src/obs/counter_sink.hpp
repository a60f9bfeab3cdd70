// counter_sink.hpp — where an engine's counters go when it is destroyed.
//
// Engines keep their counters as plain per-object tallies and list them
// by name (core::DisseminationLoop::counters()). The experiment runner
// points this thread's sink at a fresh map around each attempt of a
// replication body; an engine destroyed while a sink is set adds its
// totals there under the "obs." metric prefix, and the runner merges the
// map into that replication's metrics. A failed attempt's map is dropped
// with it, so a retried replication reports one attempt's counters.
// Without a sink (benchmarks, tests, examples driving engines directly)
// the destructor does nothing but read the thread-local pointer.
#pragma once

#include <map>
#include <string>

namespace smn::obs {

/// Metric name ("obs." + counter name) → summed value.
using CounterSink = std::map<std::string, double>;

/// This thread's current sink; nullptr when none is set.
[[nodiscard]] inline CounterSink*& counter_sink() noexcept {
    thread_local CounterSink* sink = nullptr;
    return sink;
}

/// Points this thread's sink at `sink` for the guard's lifetime and then
/// restores the previous one, so a replication body that runs units of
/// its own inline keeps each unit's counters apart.
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
