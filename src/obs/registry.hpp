// registry.hpp — process-wide named counters and gauges.
//
// The registry is the *cold* aggregation side of the telemetry layer: hot
// loops bump plain per-object tallies and flush them here in bulk — once
// per engine lifetime, once per pool pass — so the shared atomics are
// touched a handful of times per replication, never per pair or per move.
// Everything is relaxed-atomic: counters are monotonic sums with no
// ordering relationship to anything, and readers (snapshot/export) only
// run at quiescent points.
//
// Handles returned by counter()/gauge() are stable for the process
// lifetime (node-based map), so callers may cache references, making the
// steady-state cost of a registered increment one relaxed fetch_add.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace smn::obs {

/// Monotonic (well, add-what-you-like) relaxed-atomic counter.
class Counter {
public:
    void add(std::int64_t delta) noexcept { value_.fetch_add(delta, std::memory_order_relaxed); }
    [[nodiscard]] std::int64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::int64_t> value_{0};
};

/// Monotone level for peak tracking.
class Gauge {
public:
    /// Raises the gauge to at least `v` (peak semantics).
    void set_max(std::int64_t v) noexcept {
        auto cur = value_.load(std::memory_order_relaxed);
        while (v > cur && !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
        }
    }
    [[nodiscard]] std::int64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::int64_t> value_{0};
};

/// The process-wide name -> metric map. Lookup is mutex-guarded (cold);
/// the returned references stay valid forever, so cache them.
class Registry {
public:
    [[nodiscard]] static Registry& instance() {
        static Registry registry;
        return registry;
    }

    [[nodiscard]] Counter& counter(std::string_view name) { return find(counters_, name); }
    [[nodiscard]] Gauge& gauge(std::string_view name) { return find(gauges_, name); }

    /// Sorted (name, value) view of all counters — the JSON-snapshot feed.
    [[nodiscard]] std::vector<std::pair<std::string, std::int64_t>> counters_snapshot() {
        std::lock_guard<std::mutex> lock{mutex_};
        std::vector<std::pair<std::string, std::int64_t>> out;
        out.reserve(counters_.size());
        for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
        return out;
    }

    [[nodiscard]] std::vector<std::pair<std::string, std::int64_t>> gauges_snapshot() {
        std::lock_guard<std::mutex> lock{mutex_};
        std::vector<std::pair<std::string, std::int64_t>> out;
        out.reserve(gauges_.size());
        for (const auto& [name, g] : gauges_) out.emplace_back(name, g->value());
        return out;
    }

    /// Zeroes every registered metric (names stay registered). Tests use
    /// this to isolate assertions; production code never needs it.
    void reset_all() {
        std::lock_guard<std::mutex> lock{mutex_};
        for (auto& [name, c] : counters_) c->reset();
        for (auto& [name, g] : gauges_) g->reset();
    }

private:
    Registry() = default;

    template <typename T>
    [[nodiscard]] T& find(std::map<std::string, std::unique_ptr<T>, std::less<>>& map,
                          std::string_view name) {
        std::lock_guard<std::mutex> lock{mutex_};
        const auto it = map.find(name);
        if (it != map.end()) return *it->second;
        return *map.emplace(std::string{name}, std::make_unique<T>()).first->second;
    }

    std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
};

}  // namespace smn::obs
