#include "core/broadcast.hpp"

#include "core/observers.hpp"

namespace smn::core {

BroadcastResult run_broadcast(const EngineConfig& config, const BroadcastOptions& options) {
    BroadcastResult result;
    result.config = config;

    const std::int64_t cap = options.max_steps >= 0
                                 ? options.max_steps
                                 : bounds::default_max_steps(config.n(), config.k);

    BroadcastProcess process{config};
    InformedCountObserver counter;
    if (options.record_series) {
        // The t = 0 exchange happens inside the constructor, before an
        // observer can attach, so replay the initial state by hand.
        counter.on_step(StepView{.time = 0,
                                 .positions = process.agents().positions(),
                                 .components = process.components(),
                                 .rumor = process.rumor()});
        process.attach(counter);
    }
    const auto tb = process.run_until_complete(cap);
    result.completed = tb.has_value();
    result.broadcast_time = tb.value_or(-1);
    result.steps_run = process.time();
    result.informed_series = counter.series();
    return result;
}

}  // namespace smn::core
