#include "core/broadcast.hpp"

namespace smn::core {

BroadcastResult run_broadcast(const EngineConfig& config, const BroadcastOptions& options) {
    BroadcastResult result;
    result.config = config;

    const std::int64_t cap = options.max_steps >= 0
                                 ? options.max_steps
                                 : bounds::default_max_steps(config.n(), config.k);

    BroadcastProcess process{config};
    const auto record = [&] {
        if (options.record_series) {
            result.informed_series.push_back(process.rumor().informed_count());
        }
    };
    record();
    while (!process.complete() && process.time() < cap) {
        process.step();
        record();
    }
    result.completed = process.complete();
    result.broadcast_time = result.completed ? process.time() : -1;
    result.steps_run = process.time();
    return result;
}

}  // namespace smn::core
