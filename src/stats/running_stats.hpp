// running_stats.hpp — streaming moments (Welford) and order statistics.
//
// RunningStats accumulates count/mean/variance/min/max in one pass with
// Welford's numerically stable update; Sample additionally retains the
// observations for quantiles.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace smn::stats {

/// One-pass mean/variance/min/max accumulator.
class RunningStats {
public:
    void add(double x) noexcept {
        ++count_;
        const double delta = x - mean_;
        mean_ += delta / static_cast<double>(count_);
        m2_ += delta * (x - mean_);
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }

    [[nodiscard]] std::int64_t count() const noexcept { return count_; }
    [[nodiscard]] double mean() const noexcept { return count_ > 0 ? mean_ : 0.0; }

    /// Sample variance (n−1 denominator); 0 for fewer than 2 observations.
    [[nodiscard]] double variance() const noexcept {
        return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
    }

    [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }

    /// Standard error of the mean.
    [[nodiscard]] double stderr_mean() const noexcept {
        return count_ > 0 ? stddev() / std::sqrt(static_cast<double>(count_)) : 0.0;
    }

    [[nodiscard]] double min() const noexcept {
        return count_ > 0 ? min_ : std::numeric_limits<double>::quiet_NaN();
    }
    [[nodiscard]] double max() const noexcept {
        return count_ > 0 ? max_ : std::numeric_limits<double>::quiet_NaN();
    }

    /// Merges another accumulator (parallel reduction), Chan et al. update.
    void merge(const RunningStats& other) noexcept {
        if (other.count_ == 0) return;
        if (count_ == 0) {
            *this = other;
            return;
        }
        const double delta = other.mean_ - mean_;
        const auto total = count_ + other.count_;
        m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                               static_cast<double>(other.count_) / static_cast<double>(total);
        mean_ += delta * static_cast<double>(other.count_) / static_cast<double>(total);
        count_ = total;
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }

private:
    std::int64_t count_{0};
    double mean_{0.0};
    double m2_{0.0};
    double min_{std::numeric_limits<double>::infinity()};
    double max_{-std::numeric_limits<double>::infinity()};
};

/// Retained sample with quantile queries. Observations are kept in
/// insertion order — values() always reflects the order of add() calls,
/// even after quantile queries (which sort a separate scratch buffer).
class Sample {
public:
    void add(double x) {
        values_.push_back(x);
        stats_.add(x);
        sorted_dirty_ = true;
    }

    [[nodiscard]] std::int64_t count() const noexcept { return stats_.count(); }
    [[nodiscard]] double mean() const noexcept { return stats_.mean(); }
    [[nodiscard]] double stddev() const noexcept { return stats_.stddev(); }
    [[nodiscard]] double stderr_mean() const noexcept { return stats_.stderr_mean(); }
    [[nodiscard]] double min() const noexcept { return stats_.min(); }
    [[nodiscard]] double max() const noexcept { return stats_.max(); }
    [[nodiscard]] const RunningStats& stats() const noexcept { return stats_; }
    [[nodiscard]] std::span<const double> values() const noexcept { return values_; }

    /// Empirical quantile q in [0,1], linear interpolation between order
    /// statistics. Requires a non-empty sample.
    [[nodiscard]] double quantile(double q) const {
        assert(!values_.empty());
        assert(q >= 0.0 && q <= 1.0);
        ensure_sorted();
        const double pos = q * static_cast<double>(sorted_.size() - 1);
        const auto lo = static_cast<std::size_t>(pos);
        const auto hi = std::min(lo + 1, sorted_.size() - 1);
        const double frac = pos - static_cast<double>(lo);
        return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
    }

    [[nodiscard]] double median() const { return quantile(0.5); }

private:
    void ensure_sorted() const {
        if (sorted_dirty_) {
            sorted_ = values_;
            std::sort(sorted_.begin(), sorted_.end());
            sorted_dirty_ = false;
        }
    }

    std::vector<double> values_;
    mutable std::vector<double> sorted_;
    mutable bool sorted_dirty_{true};
    RunningStats stats_;
};

}  // namespace smn::stats
