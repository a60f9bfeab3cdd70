// broadcast.hpp — one-call broadcast driver.
//
// run_broadcast steps a BroadcastProcess to completion (or to the step
// cap), recording the informed count if asked, and returns everything a
// table row needs. This is the main entry point for scenarios, examples and most
// integration tests; the class API in engine.hpp remains available for
// custom loops.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/bounds.hpp"
#include "core/engine.hpp"

namespace smn::core {

/// Result of one broadcast replication.
struct BroadcastResult {
    bool completed{false};
    std::int64_t broadcast_time{-1};  ///< T_B; −1 if the cap was hit
    std::int64_t steps_run{0};        ///< actual steps simulated
    EngineConfig config;              ///< the configuration that produced it
    std::vector<std::int32_t> informed_series;  ///< filled iff requested
};

/// Options controlling what run_broadcast records.
struct BroadcastOptions {
    std::int64_t max_steps{-1};   ///< −1 → bounds::default_max_steps(n, k)
    bool record_series{false};    ///< fill BroadcastResult::informed_series
};

/// Runs a single broadcast replication.
[[nodiscard]] BroadcastResult run_broadcast(const EngineConfig& config,
                                            const BroadcastOptions& options = {});

}  // namespace smn::core
