// epidemic.hpp — analytics over informed-count time series.
//
// The informed-count series s(t) (BroadcastResult::informed_series, which
// run_broadcast fills when record_series is set) is the system's epidemic
// curve. These helpers extract the milestones practitioners plan against —
// time to 10%/50%/90% informed — and the "last-straggler tail" T_B − t_90
// that the paper's analysis attributes to the final meetings of isolated
// agents.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace smn::core {

/// First index t with series[t] >= target; −1 if never reached.
[[nodiscard]] inline std::int64_t time_to_count(std::span<const std::int32_t> series,
                                                std::int32_t target) noexcept {
    for (std::size_t t = 0; t < series.size(); ++t) {
        if (series[t] >= target) return static_cast<std::int64_t>(t);
    }
    return -1;
}

/// First time the informed fraction reaches `fraction` of `k` (rounded up,
/// minimum 1); −1 if never.
[[nodiscard]] inline std::int64_t time_to_fraction(std::span<const std::int32_t> series,
                                                   std::int32_t k, double fraction) noexcept {
    const auto target =
        static_cast<std::int32_t>(fraction * k + 0.999999);  // ceil without <cmath>
    return time_to_count(series, target < 1 ? 1 : target);
}

/// Epidemic-curve milestones of a completed broadcast.
struct Milestones {
    std::int64_t t10{-1};   ///< 10% informed
    std::int64_t t50{-1};   ///< 50% informed
    std::int64_t t90{-1};   ///< 90% informed
    std::int64_t t100{-1};  ///< all informed (T_B)

    /// The last-straggler tail T_B − t90 (−1 if incomplete).
    [[nodiscard]] std::int64_t straggler_tail() const noexcept {
        return (t100 >= 0 && t90 >= 0) ? t100 - t90 : -1;
    }
};

/// Extracts milestones from a series over k agents.
[[nodiscard]] inline Milestones milestones(std::span<const std::int32_t> series,
                                           std::int32_t k) noexcept {
    return Milestones{
        .t10 = time_to_fraction(series, k, 0.1),
        .t50 = time_to_fraction(series, k, 0.5),
        .t90 = time_to_fraction(series, k, 0.9),
        .t100 = time_to_count(series, k),
    };
}

}  // namespace smn::core
