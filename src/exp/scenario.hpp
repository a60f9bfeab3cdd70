// scenario.hpp — the scenario registry of the experiment lab.
//
// A Scenario is a named, parameterized workload: it declares its tunable
// parameters (with defaults and descriptions) and a replication body that
// maps (bound parameters, derived seed) to a set of named scalar metrics.
// Scenarios register themselves in the process-wide ScenarioRegistry (via
// ScenarioRegistrar / SMN_REGISTER_SCENARIO) and are discovered by name —
// the `smn_lab` driver and the tests (including the claim tests that
// assert the paper's predictions) run the same registered workloads
// through the same API.
//
// Replication bodies must be pure up to their seed: given the same bound
// parameters and seed they return the same metrics, and distinct
// replications share no mutable state. That is what lets the lab farm
// replications over threads while keeping every result bit-identical
// regardless of thread count (see exp/runner.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "exp/sweep.hpp"

namespace smn::exp {

/// Declaration of one scenario parameter.
struct ParamSpec {
    std::string key;          ///< parameter name, e.g. "side"
    std::string fallback;     ///< default value when a sweep omits the key
    std::string description;  ///< one-line doc shown by `smn_lab --list`
};

/// Resolves a count expression against a population size n: a plain
/// integer, or one of the symbolic regimes the paper sweeps —
/// "log" → ⌈log₂ n⌉, "sqrt" → ⌈√n⌉, "linear" → n (all at least 1).
/// Throws std::invalid_argument on anything else.
[[nodiscard]] std::int64_t resolve_count(const std::string& value, std::int64_t n);

/// One scenario parameter point: declared specs + bound values, with typed
/// access. Lookups of undeclared keys throw (typos fail fast, exactly like
/// sim::Args), bad conversions throw with the offending value.
class ScenarioParams {
public:
    ScenarioParams(const std::vector<ParamSpec>& specs, ParamValues values);

    [[nodiscard]] std::int64_t get_int(const std::string& key) const;
    [[nodiscard]] double get_double(const std::string& key) const;
    [[nodiscard]] const std::string& get_string(const std::string& key) const;
    /// get_string parsed through resolve_count (symbolic counts vs n).
    [[nodiscard]] std::int64_t get_count(const std::string& key, std::int64_t n) const;

    /// The raw bound values (sweep-provided keys only, no fallbacks).
    [[nodiscard]] const ParamValues& values() const noexcept { return values_; }

private:
    const std::vector<ParamSpec>* specs_;
    ParamValues values_;
};

/// Named metrics of one replication. Keys may differ between replications
/// (e.g. "broadcast_time" is omitted when a churned run goes extinct); the
/// aggregator counts each key independently. The reserved key "steps"
/// additionally feeds the throughput meter.
using Metrics = std::map<std::string, double>;

/// Replication body: bound parameters + derived deterministic seed → metrics.
using RepFn = std::function<Metrics(const ScenarioParams&, std::uint64_t seed)>;

/// A registered workload.
struct Scenario {
    std::string name;                ///< registry key, e.g. "gossip"
    std::string title;               ///< one-line human description
    std::string claim;               ///< the paper claim / behaviour probed
    std::vector<ParamSpec> params;   ///< declared parameters
    std::string default_sweep;       ///< sweep used when none is given
    std::string quick_sweep;         ///< smaller sweep for --quick / CI
    RepFn run_rep;                   ///< the replication body
};

/// Process-wide scenario table. Registration normally happens through
/// static ScenarioRegistrar objects; call exp::register_builtin_scenarios()
/// (scenarios.hpp) once in main() to guarantee the built-in translation
/// units are linked in from the static archive.
class ScenarioRegistry {
public:
    [[nodiscard]] static ScenarioRegistry& instance();

    /// Registers a scenario; throws std::invalid_argument on a duplicate
    /// name, a missing body, duplicate parameter keys, or a default/quick
    /// sweep that references undeclared parameters.
    void add(Scenario scenario);

    [[nodiscard]] const Scenario* find(const std::string& name) const noexcept;
    /// find() or throw std::out_of_range listing the registered names.
    [[nodiscard]] const Scenario& at(const std::string& name) const;
    /// All scenarios, sorted by name.
    [[nodiscard]] std::vector<const Scenario*> all() const;
    [[nodiscard]] std::size_t size() const noexcept { return by_name_.size(); }

private:
    std::map<std::string, Scenario> by_name_;
};

/// Registers a scenario at static-initialization time.
struct ScenarioRegistrar {
    explicit ScenarioRegistrar(Scenario scenario) {
        ScenarioRegistry::instance().add(std::move(scenario));
    }
};

/// Declares a file-local self-registering scenario.
#define SMN_REGISTER_SCENARIO(ident, ...) \
    static const ::smn::exp::ScenarioRegistrar ident { __VA_ARGS__ }

}  // namespace smn::exp
