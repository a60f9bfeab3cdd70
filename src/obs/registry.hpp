// registry.hpp — process-wide named counters, gauges and histograms.
//
// The registry is the *cold* aggregation side of the telemetry layer: hot
// loops bump plain per-object tallies and flush them here in bulk — once
// per engine lifetime, once per pool pass — so the shared atomics are
// touched a handful of times per replication, never per pair or per move.
// Everything is relaxed-atomic: counters are monotonic sums with no
// ordering relationship to anything, and readers (snapshot/export) only
// run at quiescent points.
//
// Handles returned by counter()/gauge()/histogram() are stable for the
// process lifetime (node-based map), so callers may cache references; the
// SMN_OBS_* macros do exactly that through a function-local static, making
// the steady-state cost of a registered increment one relaxed fetch_add.
#pragma once

#include <atomic>
#include <bit>
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

/// Last-write-wins level, plus a monotone max for peak tracking.
class Gauge {
public:
    void set(std::int64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
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

/// Power-of-two histogram over non-negative int64 values: bucket 0 holds
/// v <= 0, bucket i >= 1 holds values with bit_width(v) == i, i.e.
/// 2^(i-1) <= v < 2^i. Coarse by design — it answers "what order of
/// magnitude" questions (component sizes, edges per unit) with 65 relaxed
/// atomics and no configuration.
class Histogram {
public:
    static constexpr int kBuckets = 65;

    /// Bucket index of `v` (exposed for tests).
    [[nodiscard]] static int bucket_of(std::int64_t v) noexcept {
        if (v <= 0) return 0;
        return std::bit_width(static_cast<std::uint64_t>(v));
    }

    void observe(std::int64_t v) noexcept {
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(v, std::memory_order_relaxed);
        buckets_[static_cast<std::size_t>(bucket_of(v))].fetch_add(1,
                                                                   std::memory_order_relaxed);
    }

    [[nodiscard]] std::int64_t count() const noexcept {
        return count_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::int64_t sum() const noexcept {
        return sum_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::int64_t bucket(int i) const noexcept {
        return buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
    }

    void reset() noexcept {
        count_.store(0, std::memory_order_relaxed);
        sum_.store(0, std::memory_order_relaxed);
        for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    }

private:
    std::atomic<std::int64_t> count_{0};
    std::atomic<std::int64_t> sum_{0};
    std::atomic<std::int64_t> buckets_[kBuckets]{};
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
    [[nodiscard]] Histogram& histogram(std::string_view name) {
        return find(histograms_, name);
    }

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

    /// Calls fn(name, histogram) for every registered histogram, in name
    /// order, under the registry lock (fn must not re-enter the registry).
    template <typename Fn>
    void for_each_histogram(Fn&& fn) {
        std::lock_guard<std::mutex> lock{mutex_};
        for (const auto& [name, h] : histograms_) fn(name, *h);
    }

    /// Zeroes every registered metric (names stay registered). Tests use
    /// this to isolate assertions; production code never needs it.
    void reset_all() {
        std::lock_guard<std::mutex> lock{mutex_};
        for (auto& [name, c] : counters_) c->reset();
        for (auto& [name, g] : gauges_) g->reset();
        for (auto& [name, h] : histograms_) h->reset();
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
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace smn::obs

// Registered-metric macros: one relaxed atomic op in steady state (the
// registry lookup happens once per call site via the local static). Use
// for cold/warm paths; truly hot loops should bump a plain per-object
// tally and flush.
#define SMN_OBS_COUNT(name, delta)                                                  \
    do {                                                                            \
        static ::smn::obs::Counter& smn_obs_counter_ =                              \
            ::smn::obs::Registry::instance().counter(name);                         \
        smn_obs_counter_.add(delta);                                                \
    } while (0)
#define SMN_OBS_GAUGE_SET(name, value)                                              \
    do {                                                                            \
        static ::smn::obs::Gauge& smn_obs_gauge_ =                                  \
            ::smn::obs::Registry::instance().gauge(name);                           \
        smn_obs_gauge_.set(value);                                                  \
    } while (0)
#define SMN_OBS_GAUGE_MAX(name, value)                                              \
    do {                                                                            \
        static ::smn::obs::Gauge& smn_obs_gauge_ =                                  \
            ::smn::obs::Registry::instance().gauge(name);                           \
        smn_obs_gauge_.set_max(value);                                              \
    } while (0)
#define SMN_OBS_HIST(name, value)                                                   \
    do {                                                                            \
        static ::smn::obs::Histogram& smn_obs_hist_ =                               \
            ::smn::obs::Registry::instance().histogram(name);                       \
        smn_obs_hist_.observe(value);                                               \
    } while (0)
