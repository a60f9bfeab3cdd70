// bounds.hpp — every closed-form bound and scale in the paper.
//
// These are the predictions the claim tests compare measurements
// against. Θ̃/O-bounds carry no constants, so the functions return the
// *scale* (the bound with constant 1); fits remove the constant by
// centering in log space.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "graph/percolation.hpp"

namespace smn::core::bounds {

/// Natural log of n, floored at 1 to keep scales positive for tiny n.
[[nodiscard]] inline double log_floor(double x) noexcept {
    return std::max(1.0, std::log(x));
}

/// Θ̃(n/√k): the paper's headline broadcast-time scale (Theorem 1,
/// Corollary 1) — valid for every radius below the percolation point.
[[nodiscard]] inline double broadcast_scale(std::int64_t n, std::int64_t k) noexcept {
    return static_cast<double>(n) / std::sqrt(static_cast<double>(k));
}

/// Lower bound Ω(n/(√k log²n)) of Theorem 2.
[[nodiscard]] inline double broadcast_lower_bound_scale(std::int64_t n, std::int64_t k) noexcept {
    const double ln = log_floor(static_cast<double>(n));
    return broadcast_scale(n, k) / (ln * ln);
}

/// The claimed (and, per this paper, incorrect) infection-time bound of
/// Wang, Kapadia, Krishnamachari [28]: Θ((n log n log k)/k).
[[nodiscard]] inline double wkk_claimed_scale(std::int64_t n, std::int64_t k) noexcept {
    return static_cast<double>(n) * log_floor(static_cast<double>(n)) *
           log_floor(static_cast<double>(k)) / static_cast<double>(k);
}

/// Cover-time bound for k independent walks on the n-grid (Sec. 4
/// by-product): O((n log²n)/k + n log n).
[[nodiscard]] inline double cover_time_scale(std::int64_t n, std::int64_t k) noexcept {
    const double nn = static_cast<double>(n);
    const double ln = log_floor(nn);
    return nn * ln * ln / static_cast<double>(k) + nn * ln;
}

/// Predator–prey extinction-time bound (Sec. 4): O((n log²n)/k) for
/// k = Ω(log n) predators.
[[nodiscard]] inline double extinction_scale(std::int64_t n, std::int64_t k) noexcept {
    const double nn = static_cast<double>(n);
    const double ln = log_floor(nn);
    return nn * ln * ln / static_cast<double>(k);
}

/// Tessellation cell side ℓ = √(14 n log³n/(c₃ k)) from Sec. 3.1, clamped
/// to [1, grid side]. `c3` is the (unknown) constant of Lemma 3; the proofs
/// only need it positive, so callers pass an empirical value.
[[nodiscard]] inline double cell_side(std::int64_t n, std::int64_t k, double c3) noexcept {
    const double nn = static_cast<double>(n);
    const double ln = log_floor(nn);
    const double raw = std::sqrt(14.0 * nn * ln * ln * ln / (c3 * static_cast<double>(k)));
    return std::clamp(raw, 1.0, std::sqrt(nn));
}

/// The time horizon the paper uses for "the whole process" (Lemma 6 and the
/// k = O(polylog) base case): 8 n log² n.
[[nodiscard]] inline double horizon(std::int64_t n) noexcept {
    const double nn = static_cast<double>(n);
    const double ln = log_floor(nn);
    return 8.0 * nn * ln * ln;
}

/// A practical simulation cut-off: comfortably above the expected broadcast
/// time yet far below overflow. max(64·n/√k·log n, 64·n, 4096).
[[nodiscard]] inline std::int64_t default_max_steps(std::int64_t n, std::int64_t k) noexcept {
    const double scale = broadcast_scale(n, k) * log_floor(static_cast<double>(n));
    const double cap = std::max({64.0 * scale, 64.0 * static_cast<double>(n), 4096.0});
    return static_cast<std::int64_t>(cap);
}

// Re-exported radius thresholds (defined with the graph layer so the
// builder can use them without depending on core).
using graph::island_gamma;
using graph::lower_bound_radius;
using graph::percolation_radius;

}  // namespace smn::core::bounds
