// exp_test — the experiment lab: sweep grammar, scenario registry and
// parameter binding, deterministic point execution, and the JSONL/CSV
// result schema (validated with a minimal JSON parser below).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "core/bounds.hpp"
#include "core/engine.hpp"
#include "core/gossip.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/scenarios.hpp"
#include "exp/sweep.hpp"
#include "exp/writer.hpp"
#include "io/journal.hpp"
#include "obs/counter_sink.hpp"
#include "obs/step_trace.hpp"
#include "rng/rng.hpp"
#include "util/failpoint.hpp"

namespace {

using namespace smn;

// ---------------------------------------------------------------------------
// Minimal JSON parser (objects, arrays, strings, numbers, bools, null) —
// just enough to schema-check JsonlWriter output without a dependency.

struct JsonValue;
using JsonObject = std::map<std::string, std::shared_ptr<JsonValue>>;
using JsonArray = std::vector<std::shared_ptr<JsonValue>>;

struct JsonValue {
    std::variant<std::nullptr_t, bool, double, std::string, JsonObject, JsonArray> data;

    [[nodiscard]] bool is_null() const { return std::holds_alternative<std::nullptr_t>(data); }
    [[nodiscard]] double number() const { return std::get<double>(data); }
    [[nodiscard]] const std::string& str() const { return std::get<std::string>(data); }
    [[nodiscard]] const JsonObject& object() const { return std::get<JsonObject>(data); }

    [[nodiscard]] const JsonValue& at(const std::string& key) const {
        const auto& obj = object();
        const auto it = obj.find(key);
        if (it == obj.end()) throw std::out_of_range("missing JSON key '" + key + "'");
        return *it->second;
    }
    [[nodiscard]] bool has(const std::string& key) const { return object().count(key) > 0; }
};

class JsonParser {
public:
    explicit JsonParser(const std::string& text) : text_{text} {}

    JsonValue parse() {
        auto value = parse_value();
        skip_ws();
        if (pos_ != text_.size()) throw std::invalid_argument("trailing JSON content");
        return value;
    }

private:
    void skip_ws() {
        while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    char peek() {
        skip_ws();
        if (pos_ >= text_.size()) throw std::invalid_argument("unexpected end of JSON");
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) {
            throw std::invalid_argument(std::string("expected '") + c + "' at " +
                                        std::to_string(pos_));
        }
        ++pos_;
    }

    bool consume_literal(const std::string& literal) {
        if (text_.compare(pos_, literal.size(), literal) == 0) {
            pos_ += literal.size();
            return true;
        }
        return false;
    }

    JsonValue parse_value() {
        const char c = peek();
        if (c == '{') return parse_object();
        if (c == '[') return parse_array();
        if (c == '"') return JsonValue{parse_string()};
        if (consume_literal("true")) return JsonValue{true};
        if (consume_literal("false")) return JsonValue{false};
        if (consume_literal("null")) return JsonValue{nullptr};
        return parse_number();
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) throw std::invalid_argument("unterminated string");
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (c == '\\') {
                if (pos_ >= text_.size()) throw std::invalid_argument("bad escape");
                const char esc = text_[pos_++];
                switch (esc) {
                    case '"': out += '"'; break;
                    case '\\': out += '\\'; break;
                    case '/': out += '/'; break;
                    case 'n': out += '\n'; break;
                    case 'r': out += '\r'; break;
                    case 't': out += '\t'; break;
                    case 'u':
                        if (pos_ + 4 > text_.size()) throw std::invalid_argument("bad \\u");
                        out += static_cast<char>(
                            std::stoi(text_.substr(pos_, 4), nullptr, 16));
                        pos_ += 4;
                        break;
                    default: throw std::invalid_argument("bad escape");
                }
            } else {
                out += c;
            }
        }
    }

    JsonValue parse_number() {
        const auto start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                std::string("+-.eE").find(text_[pos_]) != std::string::npos)) {
            ++pos_;
        }
        if (pos_ == start) throw std::invalid_argument("invalid JSON number");
        return JsonValue{std::stod(text_.substr(start, pos_ - start))};
    }

    JsonValue parse_object() {
        expect('{');
        JsonObject obj;
        if (peek() == '}') {
            ++pos_;
            return JsonValue{obj};
        }
        while (true) {
            std::string key = parse_string();
            expect(':');
            obj[key] = std::make_shared<JsonValue>(parse_value());
            const char c = peek();
            ++pos_;
            if (c == '}') return JsonValue{obj};
            if (c != ',') throw std::invalid_argument("expected ',' or '}'");
        }
    }

    JsonValue parse_array() {
        expect('[');
        JsonArray arr;
        if (peek() == ']') {
            ++pos_;
            return JsonValue{arr};
        }
        while (true) {
            arr.push_back(std::make_shared<JsonValue>(parse_value()));
            const char c = peek();
            ++pos_;
            if (c == ']') return JsonValue{arr};
            if (c != ',') throw std::invalid_argument("expected ',' or ']'");
        }
    }

    const std::string& text_;
    std::size_t pos_{0};
};

JsonValue parse_json(const std::string& text) { return JsonParser{text}.parse(); }

/// Validates one JSONL record against the documented schema and returns it.
JsonValue check_record(const std::string& line) {
    const auto record = parse_json(line);
    EXPECT_EQ(record.at("schema").number(), 1.0);
    EXPECT_FALSE(record.at("scenario").str().empty());
    EXPECT_GE(record.at("reps").number(), 1.0);
    EXPECT_GE(record.at("seed").number(), 0.0);
    for (const auto& [key, value] : record.at("params").object()) {
        EXPECT_FALSE(std::get<std::string>(value->data).empty()) << key;
    }
    const auto& metrics = record.at("metrics").object();
    EXPECT_FALSE(metrics.empty());
    for (const auto& [name, sample] : metrics) {
        for (const char* field : {"count", "mean", "stderr", "median", "min", "max"}) {
            EXPECT_TRUE(sample->has(field)) << name << "." << field;
        }
        EXPECT_GE(sample->at("count").number(), 1.0) << name;
        EXPECT_LE(sample->at("min").number(), sample->at("max").number()) << name;
    }
    return record;
}

// A fast synthetic scenario: metrics are pure functions of (params, seed),
// so determinism tests do not depend on simulator runtimes.
exp::Scenario synthetic_scenario() {
    return exp::Scenario{
        .name = "synthetic",
        .title = "deterministic test scenario",
        .claim = "-",
        .params = {{"a", "1", "first"}, {"b", "2", "second"}},
        .default_sweep = "a=1,2;b=3",
        .quick_sweep = "a=1",
        .run_rep =
            [](const exp::ScenarioParams& p, std::uint64_t seed) {
                exp::Metrics m;
                m["value"] = static_cast<double>(seed % 1000) +
                             static_cast<double>(p.get_int("a") * 10 + p.get_int("b"));
                m["steps"] = static_cast<double>(seed % 7);
                if (seed % 2 == 0) m["even_only"] = 1.0;  // key omitted on odd seeds
                return m;
            },
    };
}

// ---------------------------------------------------------------------------

TEST(ResolveCount, PlainAndSymbolic) {
    EXPECT_EQ(exp::resolve_count("17", 100), 17);
    EXPECT_EQ(exp::resolve_count("log", 1024), 10);
    EXPECT_EQ(exp::resolve_count("sqrt", 1024), 32);
    EXPECT_EQ(exp::resolve_count("sqrt", 1000), 32);  // ceil
    EXPECT_EQ(exp::resolve_count("linear", 576), 576);
    EXPECT_EQ(exp::resolve_count("log", 1), 1);  // clamped to >= 1
}

TEST(ResolveCount, Rejects) {
    EXPECT_THROW((void)exp::resolve_count("cube", 100), std::invalid_argument);
    EXPECT_THROW((void)exp::resolve_count("12x", 100), std::invalid_argument);
    EXPECT_THROW((void)exp::resolve_count("", 100), std::invalid_argument);
    EXPECT_THROW((void)exp::resolve_count("4", 0), std::invalid_argument);
}

TEST(SweepSpec, CrossProductOrder) {
    const auto spec = exp::SweepSpec::parse("a=1,2;b=x,y;c=9");
    EXPECT_EQ(spec.size(), 4U);
    const auto points = spec.points();
    ASSERT_EQ(points.size(), 4U);
    // First axis varies slowest.
    EXPECT_EQ(points[0].at("a"), "1");
    EXPECT_EQ(points[0].at("b"), "x");
    EXPECT_EQ(points[1].at("a"), "1");
    EXPECT_EQ(points[1].at("b"), "y");
    EXPECT_EQ(points[3].at("a"), "2");
    EXPECT_EQ(points[3].at("b"), "y");
    for (const auto& point : points) EXPECT_EQ(point.at("c"), "9");
}

TEST(SweepSpec, EmptyIsSingleDefaultPoint) {
    const auto spec = exp::SweepSpec::parse("");
    EXPECT_EQ(spec.size(), 1U);
    ASSERT_EQ(spec.points().size(), 1U);
    EXPECT_TRUE(spec.points()[0].empty());
}

TEST(SweepSpec, TrimsWhitespace) {
    const auto spec = exp::SweepSpec::parse(" side = 16 , 24 ; k = log ");
    const auto points = spec.points();
    ASSERT_EQ(points.size(), 2U);
    EXPECT_EQ(points[0].at("side"), "16");
    EXPECT_EQ(points[1].at("side"), "24");
    EXPECT_EQ(points[0].at("k"), "log");
}

TEST(SweepSpec, Rejects) {
    EXPECT_THROW((void)exp::SweepSpec::parse("a"), std::invalid_argument);
    EXPECT_THROW((void)exp::SweepSpec::parse("a=1;a=2"), std::invalid_argument);
    EXPECT_THROW((void)exp::SweepSpec::parse("a=1,,2"), std::invalid_argument);
    EXPECT_THROW((void)exp::SweepSpec::parse("=1"), std::invalid_argument);
    EXPECT_THROW((void)exp::SweepSpec::parse("a=1;;b=2"), std::invalid_argument);
}

TEST(SweepSpec, CanonicalPointIsSortedAndStable) {
    exp::ParamValues values{{"k", "log"}, {"side", "24"}};
    EXPECT_EQ(exp::canonical_point(values), "k=log;side=24");
    EXPECT_EQ(exp::canonical_point({}), "");
}

TEST(ScenarioParams, FallbacksAndBinding) {
    const auto scenario = synthetic_scenario();
    const exp::ScenarioParams bound{scenario.params, {{"a", "7"}}};
    EXPECT_EQ(bound.get_int("a"), 7);
    EXPECT_EQ(bound.get_int("b"), 2);  // fallback
    EXPECT_EQ(bound.get_string("b"), "2");
    EXPECT_DOUBLE_EQ(bound.get_double("a"), 7.0);
}

TEST(ScenarioParams, RejectsUndeclaredAndMalformed) {
    const auto scenario = synthetic_scenario();
    EXPECT_THROW((exp::ScenarioParams{scenario.params, {{"typo", "1"}}}),
                 std::invalid_argument);
    const exp::ScenarioParams bound{scenario.params, {{"a", "x"}}};
    EXPECT_THROW((void)bound.get_int("a"), std::invalid_argument);
    EXPECT_THROW((void)bound.get_int("zzz"), std::invalid_argument);
}

TEST(ScenarioParams, CountExpressions) {
    const std::vector<exp::ParamSpec> specs{{"k", "log", "agents"}};
    const exp::ScenarioParams defaulted{specs, {}};
    EXPECT_EQ(defaulted.get_count("k", 1024), 10);
    const exp::ScenarioParams bound{specs, {{"k", "sqrt"}}};
    EXPECT_EQ(bound.get_count("k", 576), 24);
}

TEST(Registry, BuiltinScenariosArePresent) {
    exp::register_builtin_scenarios();
    const auto& registry = exp::ScenarioRegistry::instance();
    EXPECT_GE(registry.size(), 6U);
    for (const char* name :
         {"grid_broadcast", "frog_broadcast", "torus_broadcast", "percolation_radius", "gossip",
          "meeting_time", "churn", "barriers", "cell_spread", "cover_time", "coverage",
          "dense_baseline", "frontier", "hitting_probability", "islands", "meeting_probability",
          "percolation", "predator_prey", "walk_range"}) {
        EXPECT_NE(registry.find(name), nullptr) << name;
        EXPECT_FALSE(registry.at(name).params.empty()) << name;
    }
    // all() is sorted by name.
    const auto all = registry.all();
    for (std::size_t i = 1; i < all.size(); ++i) {
        EXPECT_LT(all[i - 1]->name, all[i]->name);
    }
}

TEST(Registry, RejectsBadRegistrations) {
    exp::register_builtin_scenarios();
    auto& registry = exp::ScenarioRegistry::instance();
    EXPECT_THROW(registry.add(registry.at("gossip")), std::invalid_argument);  // duplicate
    EXPECT_THROW((void)registry.at("no_such_scenario"), std::out_of_range);

    auto unnamed = synthetic_scenario();
    unnamed.name = "";
    EXPECT_THROW(registry.add(unnamed), std::invalid_argument);

    auto bodyless = synthetic_scenario();
    bodyless.name = "bodyless";
    bodyless.run_rep = nullptr;
    EXPECT_THROW(registry.add(bodyless), std::invalid_argument);

    auto bad_sweep = synthetic_scenario();
    bad_sweep.name = "bad_sweep";
    bad_sweep.quick_sweep = "undeclared=1";
    EXPECT_THROW(registry.add(bad_sweep), std::invalid_argument);
}

TEST(PointSeed, DependsOnScenarioAndParamsOnly) {
    const exp::ParamValues point{{"a", "1"}};
    const auto seed = exp::point_seed(42, "synthetic", point);
    EXPECT_EQ(seed, exp::point_seed(42, "synthetic", point));
    EXPECT_NE(seed, exp::point_seed(43, "synthetic", point));
    EXPECT_NE(seed, exp::point_seed(42, "other", point));
    EXPECT_NE(seed, exp::point_seed(42, "synthetic", {{"a", "2"}}));
    EXPECT_NE(seed, exp::point_seed(42, "synthetic", {{"a", "1"}, {"b", "3"}}));
}

TEST(RunPoint, AggregatesInReplicationOrder) {
    const auto scenario = synthetic_scenario();
    exp::RunOptions options;
    options.reps = 9;
    options.seed = 7;
    const auto result = exp::run_point(scenario, {{"a", "3"}}, options);
    EXPECT_EQ(result.scenario, "synthetic");
    EXPECT_EQ(result.reps, 9);
    EXPECT_EQ(result.metric("value").count(), 9);
    EXPECT_EQ(result.metric("steps").count(), 9);
    // The conditional key only counts the replications that reported it.
    EXPECT_LT(result.metric("even_only").count(), 9);
    EXPECT_GE(result.metric("even_only").count(), 1);
    EXPECT_THROW((void)result.metric("missing"), std::out_of_range);
    // The meter sums the "steps" metric.
    EXPECT_DOUBLE_EQ(result.steps,
                     result.metric("steps").mean() * static_cast<double>(result.reps));
}

TEST(RunPoint, BitIdenticalAcrossThreadCounts) {
    const auto scenario = synthetic_scenario();
    std::vector<std::string> outputs;
    const std::vector<int> thread_counts{1, 2, 4, 7, 16};
    for (const int threads : thread_counts) {
        exp::RunOptions options;
        options.reps = 13;
        options.seed = 99;
        options.threads = threads;
        const auto result = exp::run_point(scenario, {{"a", "2"}, {"b", "5"}}, options);
        std::ostringstream os;
        exp::JsonlWriter{os}.write(result);
        outputs.push_back(os.str());
    }
    for (std::size_t i = 1; i < outputs.size(); ++i) {
        EXPECT_EQ(outputs[0], outputs[i]) << thread_counts[i] << " threads";
    }
}

TEST(RunPoint, ReplicationSeedsDeriveFromPointSeed) {
    // Replication `rep` of a point runs on replication_seed(point_seed,
    // rep); the seed travels back as two exact 32-bit halves.
    auto scenario = synthetic_scenario();
    scenario.run_rep = [](const exp::ScenarioParams&, std::uint64_t seed) {
        exp::Metrics m;
        m["seed_hi"] = static_cast<double>(seed >> 32U);
        m["seed_lo"] = static_cast<double>(seed & 0xFFFFFFFFU);
        return m;
    };
    const exp::ParamValues point{{"a", "4"}};
    for (const int threads : {1, 4}) {
        exp::RunOptions options;
        options.reps = 8;
        options.seed = 99;
        options.threads = threads;
        const auto result = exp::run_point(scenario, point, options);
        const auto point_seed = exp::point_seed(options.seed, scenario.name, point);
        const auto hi = result.metric("seed_hi").values();
        const auto lo = result.metric("seed_lo").values();
        ASSERT_EQ(hi.size(), 8U);
        for (std::size_t rep = 0; rep < hi.size(); ++rep) {
            const auto seed = (static_cast<std::uint64_t>(hi[rep]) << 32U) |
                              static_cast<std::uint64_t>(lo[rep]);
            EXPECT_EQ(seed, rng::replication_seed(point_seed, rep))
                << "rep " << rep << ", " << threads << " threads";
        }
    }
}

TEST(RunSweep, VisitsEveryPointInOrder) {
    const auto scenario = synthetic_scenario();
    exp::RunOptions options;
    options.reps = 2;
    const auto results =
        exp::run_sweep(scenario, exp::SweepSpec::parse("a=1,2;b=3,4"), options);
    ASSERT_EQ(results.size(), 4U);
    EXPECT_EQ(results[0].params.at("a"), "1");
    EXPECT_EQ(results[0].params.at("b"), "3");
    EXPECT_EQ(results[3].params.at("a"), "2");
    EXPECT_EQ(results[3].params.at("b"), "4");
}

TEST(RunPoint, RejectsBadOptions) {
    const auto scenario = synthetic_scenario();
    exp::RunOptions options;
    options.reps = 0;
    EXPECT_THROW((void)exp::run_point(scenario, {}, options), std::invalid_argument);
}

TEST(RunPoint, BodyExceptionsPropagateFromWorkerThreads) {
    // A throwing run_rep (e.g. lazy parameter validation) must surface as
    // a normal exception on the calling thread at ANY thread count — not
    // std::terminate from inside a worker.
    auto scenario = synthetic_scenario();
    scenario.run_rep = [](const exp::ScenarioParams& p, std::uint64_t) -> exp::Metrics {
        (void)p.get_int("a");
        throw std::invalid_argument("boom");
    };
    for (const int threads : {1, 4, 16}) {
        exp::RunOptions options;
        options.reps = 9;
        options.threads = threads;
        EXPECT_THROW((void)exp::run_point(scenario, {}, options), std::invalid_argument)
            << threads;
    }
}

TEST(RunSweep, PipelinedRecordsMatchPointwiseRuns) {
    // The sweep feeds every (point, rep) unit through one pool pass; the
    // emitted records must be byte-identical to running each point alone.
    const auto scenario = synthetic_scenario();
    exp::RunOptions options;
    options.reps = 5;
    options.threads = 4;
    const auto sweep = exp::SweepSpec::parse("a=1,2,3;b=4,5");
    std::ostringstream pipelined;
    exp::JsonlWriter pipelined_writer{pipelined};
    for (const auto& result : exp::run_sweep(scenario, sweep, options)) {
        pipelined_writer.write(result);
    }
    std::ostringstream pointwise;
    exp::JsonlWriter pointwise_writer{pointwise};
    for (const auto& point : sweep.points()) {
        pointwise_writer.write(exp::run_point(scenario, point, options));
    }
    EXPECT_EQ(pipelined.str(), pointwise.str());
}

TEST(RunSweep, SkewedWorkloadIsThreadInvariant) {
    // One replication of one point runs ~100× longer than every other
    // unit: under the old static strides that worker's whole stride (and
    // under per-point barriers, every later point) waited on it. Dynamic
    // sweep-level scheduling must leave the records byte-identical anyway.
    auto scenario = synthetic_scenario();
    const std::uint64_t slow_seed = rng::replication_seed(
        exp::point_seed(exp::RunOptions{}.seed, scenario.name, {{"a", "1"}}), 0);
    scenario.run_rep = [slow_seed](const exp::ScenarioParams& p, std::uint64_t seed) {
        const long spins = seed == slow_seed ? 300000 : 3000;
        double burn = 0.0;
        for (long i = 0; i < spins; ++i) {
            burn += static_cast<double>((seed >> (i % 32)) & 1U);
        }
        exp::Metrics m;
        m["value"] = static_cast<double>(seed % 1000) + static_cast<double>(p.get_int("b"));
        m["burn"] = burn >= 0.0 ? 1.0 : 0.0;
        return m;
    };
    std::vector<std::string> outputs;
    for (const int threads : {1, 4, 16}) {
        exp::RunOptions options;
        options.reps = 8;
        options.threads = threads;
        std::ostringstream os;
        exp::JsonlWriter writer{os};
        for (const auto& result :
             exp::run_sweep(scenario, exp::SweepSpec::parse("a=1,2;b=3,4"), options)) {
            writer.write(result);
        }
        outputs.push_back(os.str());
    }
    EXPECT_EQ(outputs[0], outputs[1]);
    EXPECT_EQ(outputs[0], outputs[2]);
}

TEST(RunSweep, ProgressReportsEveryUnit) {
    const auto scenario = synthetic_scenario();
    exp::RunOptions options;
    options.reps = 4;
    options.threads = 4;
    std::mutex mutex;
    std::size_t calls = 0;
    std::size_t max_done = 0;
    std::size_t reported_total = 0;
    options.on_progress = [&](std::size_t done, std::size_t total) {
        std::lock_guard<std::mutex> lock{mutex};
        ++calls;
        if (done > max_done) max_done = done;
        reported_total = total;
    };
    const auto results =
        exp::run_sweep(scenario, exp::SweepSpec::parse("a=1,2,3"), options);
    ASSERT_EQ(results.size(), 3U);
    EXPECT_EQ(calls, 12U);           // 3 points × 4 reps, one call per unit
    EXPECT_EQ(max_done, 12U);
    EXPECT_EQ(reported_total, 12U);
}

TEST(JsonlWriter, RecordsMatchSchema) {
    const auto scenario = synthetic_scenario();
    exp::RunOptions options;
    options.reps = 4;
    std::ostringstream os;
    exp::JsonlWriter writer{os};
    for (const auto& result :
         exp::run_sweep(scenario, exp::SweepSpec::parse("a=1,2;b=3"), options)) {
        writer.write(result);
    }
    std::istringstream lines{os.str()};
    std::string line;
    int records = 0;
    while (std::getline(lines, line)) {
        const auto record = check_record(line);
        EXPECT_EQ(record.at("scenario").str(), "synthetic");
        EXPECT_EQ(record.at("reps").number(), 4.0);
        EXPECT_EQ(record.at("params").at("b").str(), "3");
        EXPECT_FALSE(record.has("timing"));  // timings are opt-in
        ++records;
    }
    EXPECT_EQ(records, 2);
}

TEST(JsonlWriter, TimingsAreOptIn) {
    const auto scenario = synthetic_scenario();
    exp::RunOptions options;
    options.reps = 2;
    const auto result = exp::run_point(scenario, {}, options);
    std::ostringstream os;
    exp::JsonlWriter{os, /*timings=*/true}.write(result);
    const auto record = check_record(os.str());
    ASSERT_TRUE(record.has("timing"));
    EXPECT_GE(record.at("timing").at("wall_s").number(), 0.0);
    EXPECT_TRUE(record.at("timing").has("steps_per_s"));
    // sweep_wall_s is the end-to-end wall clock of the pipelined pass this
    // point was part of; wall_s sums per-replication cost.
    EXPECT_GE(record.at("timing").at("sweep_wall_s").number(), 0.0);
    EXPECT_FALSE(record.at("timing").has("journal_s"));  // no journal attached
}

TEST(JsonlWriter, CountersAreOptInAndDivertedFromObsMetrics) {
    // A scenario reporting metrics under the reserved "obs." prefix: the
    // runner must divert them into PointResult::counters (summed across
    // replications) and never into the deterministic metrics block.
    auto scenario = synthetic_scenario();
    scenario.run_rep = [](const exp::ScenarioParams& p, std::uint64_t) {
        exp::Metrics m;
        m["value"] = static_cast<double>(p.get_int("a"));
        m["obs.scan.units_rescanned"] = 5.0;
        m["obs.agents"] = 3.0;
        return m;
    };
    exp::RunOptions options;
    options.reps = 4;
    const auto result = exp::run_point(scenario, {}, options);
    EXPECT_THROW((void)result.metric("obs.scan.units_rescanned"), std::out_of_range);
    EXPECT_DOUBLE_EQ(result.counters.at("scan.units_rescanned"), 20.0);
    // Pass-level injections ride along once any obs.* metric was reported.
    EXPECT_TRUE(result.counters.contains("pool.units"));
    EXPECT_TRUE(result.counters.contains("process.peak_rss_bytes"));
    EXPECT_TRUE(result.counters.contains("process.rss_bytes_per_agent"));

    std::ostringstream plain;
    exp::JsonlWriter{plain}.write(result);
    EXPECT_FALSE(check_record(plain.str()).has("counters"));  // opt-in

    std::ostringstream with;
    exp::JsonlWriter{with, /*timings=*/false, /*counters=*/true}.write(result);
    const auto record = check_record(with.str());
    ASSERT_TRUE(record.has("counters"));
    EXPECT_EQ(record.at("counters").at("scan.units_rescanned").number(), 20.0);
    EXPECT_EQ(record.at("counters").at("agents").number(), 12.0);
}

TEST(Writer, ProvenanceRecordCarriesBuildAndRunContext) {
    exp::RunProvenance run;
    run.threads = 4;
    run.seed = 77;
    run.reps = 3;
    std::ostringstream os;
    exp::write_provenance(os, run);
    const auto record = parse_json(os.str());
    EXPECT_EQ(record.at("record").str(), "provenance");
    EXPECT_EQ(record.at("schema").number(), 1.0);
    EXPECT_FALSE(record.at("git_sha").str().empty());
    EXPECT_FALSE(record.at("simd").str().empty());
    EXPECT_EQ(record.at("threads").number(), 4.0);
    EXPECT_EQ(record.at("seed").number(), 77.0);
    EXPECT_EQ(record.at("reps").number(), 3.0);
}

TEST(JsonlWriter, EscapesAndNonFiniteNumbers) {
    EXPECT_EQ(exp::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    exp::PointResult result;
    result.scenario = "quote\"name";
    result.reps = 1;
    stats::Sample nan_sample;
    nan_sample.add(std::nan(""));
    result.metrics["weird"] = nan_sample;
    std::ostringstream os;
    exp::JsonlWriter{os}.write(result);
    const auto record = parse_json(os.str());
    EXPECT_EQ(record.at("scenario").str(), "quote\"name");
    EXPECT_TRUE(record.at("metrics").at("weird").at("mean").is_null());
}

TEST(CsvWriter, HeaderOnceAndQuoting) {
    exp::PointResult result;
    result.scenario = "name,with comma";
    result.params = {{"a", "1"}, {"b", "2"}};
    result.reps = 1;
    result.seed = 5;
    stats::Sample sample;
    sample.add(1.5);
    result.metrics["m"] = sample;

    std::ostringstream os;
    exp::CsvWriter writer{os};
    writer.write(result);
    writer.write(result);
    std::istringstream lines{os.str()};
    std::string line;
    std::vector<std::string> rows;
    while (std::getline(lines, line)) rows.push_back(line);
    ASSERT_EQ(rows.size(), 3U);  // one header + two data rows
    EXPECT_EQ(rows[0],
              "scenario,params,seed,reps,metric,count,mean,stderr,median,min,max");
    EXPECT_EQ(rows[1], rows[2]);
    EXPECT_NE(rows[1].find("\"name,with comma\""), std::string::npos);
    EXPECT_NE(rows[1].find("a=1;b=2"), std::string::npos);
}

TEST(BuiltinScenarios, QuickSweepsProduceValidRecords) {
    exp::register_builtin_scenarios();
    exp::RunOptions options;
    options.reps = 2;
    options.threads = 2;
    for (const auto* scenario : exp::ScenarioRegistry::instance().all()) {
        const auto sweep = exp::SweepSpec::parse(scenario->quick_sweep);
        const auto results = exp::run_sweep(*scenario, sweep, options);
        EXPECT_EQ(results.size(), sweep.size()) << scenario->name;
        for (const auto& result : results) {
            std::ostringstream os;
            exp::JsonlWriter{os}.write(result);
            const auto record = check_record(os.str());
            EXPECT_EQ(record.at("scenario").str(), scenario->name);
        }
    }
}

// Regression: radii past the grid diameter used to crash (INT32_MAX
// overflowed the cell geometry), fail every replication (2^31 truncated to
// a negative cell side) or report a wrong T_B (2^32 + 1 truncated to a
// cell side of 1). Any radius ≥ the diameter connects every pair, so the
// rumor floods everyone at t = 0.
TEST(BuiltinScenarios, HugeRadiusBroadcastsAtTimeZero) {
    exp::register_builtin_scenarios();
    const auto& scenario = exp::ScenarioRegistry::instance().at("grid_broadcast");
    exp::RunOptions options;
    options.reps = 3;
    options.threads = 1;
    for (const char* radius : {"40", "2147483647", "2147483648", "4294967297"}) {
        const auto result = exp::run_point(
            scenario, {{"side", "16"}, {"k", "8"}, {"radius", radius}}, options);
        EXPECT_TRUE(result.failures.empty()) << radius;
        EXPECT_EQ(result.metric("completed").mean(), 1.0) << radius;
        EXPECT_EQ(result.metric("broadcast_time").count(), 3) << radius;
        EXPECT_EQ(result.metric("broadcast_time").max(), 0.0) << radius;
    }
}

// Regression: starts=adjacent on a 1 x 1 grid drew rng.below(0) and put
// the second walker off the grid, yet reported a normal-looking record.
TEST(BuiltinScenarios, MeetingTimeRejectsAdjacentStartsWithoutRoom) {
    exp::register_builtin_scenarios();
    const auto& scenario = exp::ScenarioRegistry::instance().at("meeting_time");
    exp::RunOptions options;
    options.reps = 2;
    options.threads = 1;
    EXPECT_THROW((void)exp::run_point(scenario, {{"side", "1"}, {"starts", "adjacent"}}, options),
                 std::invalid_argument);
    options.tolerate_failures = true;
    const auto result =
        exp::run_point(scenario, {{"side", "1"}, {"starts", "adjacent"}}, options);
    EXPECT_EQ(result.failures.size(), 2U);
    EXPECT_EQ(result.metrics.count("meeting_time"), 0U);
    const auto two = exp::run_point(scenario, {{"side", "2"}, {"starts", "adjacent"}}, options);
    EXPECT_TRUE(two.failures.empty());
}

// ---------------------------------------------------------------------------
// Robustness: tolerant units, retries, journaled resume, interruption.

/// Self-deleting temp path for journal/JSONL fixtures.
class ScratchFile {
public:
    explicit ScratchFile(const std::string& tag) {
        static int counter = 0;
        path_ = (std::filesystem::temp_directory_path() /
                 ("smn_exp_test_" + std::to_string(::getpid()) + "_" + tag + "_" +
                  std::to_string(counter++)))
                    .string();
    }
    ~ScratchFile() {
        std::error_code ec;
        std::filesystem::remove(path_, ec);
    }
    [[nodiscard]] const std::string& path() const noexcept { return path_; }

private:
    std::string path_;
};

TEST(JsonlWriter, JournaledTimingsReportTheJournalsOwnTime) {
    const auto scenario = synthetic_scenario();
    exp::RunOptions options;
    options.reps = 3;
    ScratchFile journal_file{"timed_journal"};
    io::SweepJournal journal{journal_file.path(), 1, /*resume=*/false};
    options.journal = &journal;
    const auto result = exp::run_point(scenario, {}, options);
    // Three appends and the pass's closing fsync, all inside the pass.
    ASSERT_TRUE(result.journal_seconds.has_value());
    EXPECT_GT(*result.journal_seconds, 0.0);
    EXPECT_LE(*result.journal_seconds, result.sweep_wall_seconds);
    EXPECT_EQ(*result.journal_seconds, journal.io_seconds());
    std::ostringstream os;
    exp::JsonlWriter{os, /*timings=*/true}.write(result);
    const auto record = check_record(os.str());
    EXPECT_DOUBLE_EQ(record.at("timing").at("journal_s").number(), *result.journal_seconds);
}

TEST(RunPoint, TolerantModeCollectsFailuresAndAggregatesTheRest) {
    auto scenario = synthetic_scenario();
    exp::RunOptions options;
    options.reps = 9;
    options.seed = 7;
    options.threads = 4;
    options.retries = 2;
    options.tolerate_failures = true;
    // Replication 2 of this point fails on every attempt; the other eight
    // replications must still aggregate normally.
    const std::uint64_t doomed = rng::replication_seed(
        exp::point_seed(options.seed, scenario.name, {{"a", "3"}}), 2);
    const auto base_body = scenario.run_rep;
    scenario.run_rep = [doomed, base_body](const exp::ScenarioParams& p,
                                           std::uint64_t seed) {
        if (seed == doomed) throw std::domain_error("injected rep failure");
        return base_body(p, seed);
    };
    const auto result = exp::run_point(scenario, {{"a", "3"}}, options);
    ASSERT_EQ(result.failures.size(), 1U);
    EXPECT_EQ(result.failures[0].rep, 2);
    EXPECT_EQ(result.failures[0].attempts, 3);  // 1 try + 2 retries
    EXPECT_NE(result.failures[0].message.find("injected rep failure"),
              std::string::npos);
    EXPECT_EQ(result.metric("value").count(), 8);
}

TEST(RunSweep, RetriesRecoverTransientFaultsByteIdentically) {
    // One unit throws on its first attempt only. With retries=1 the sweep
    // must converge to the exact bytes a fault-free run produces.
    const auto scenario = synthetic_scenario();
    exp::RunOptions options;
    options.reps = 5;
    options.threads = 4;
    const auto sweep = exp::SweepSpec::parse("a=1,2;b=3,4");

    std::ostringstream clean;
    exp::JsonlWriter clean_writer{clean};
    for (const auto& result : exp::run_sweep(scenario, sweep, options)) {
        clean_writer.write(result);
    }

    auto flaky = synthetic_scenario();
    const std::uint64_t transient = rng::replication_seed(
        exp::point_seed(options.seed, flaky.name, {{"a", "2"}, {"b", "3"}}), 3);
    auto attempts = std::make_shared<std::mutex>();
    auto seen = std::make_shared<std::map<std::uint64_t, int>>();
    const auto base_body = flaky.run_rep;
    flaky.run_rep = [transient, attempts, seen, base_body](
                        const exp::ScenarioParams& p, std::uint64_t seed) {
        if (seed == transient) {
            std::lock_guard<std::mutex> lock{*attempts};
            if ((*seen)[seed]++ == 0) throw std::runtime_error("transient fault");
        }
        return base_body(p, seed);
    };
    options.retries = 1;
    options.tolerate_failures = true;
    std::ostringstream retried;
    exp::JsonlWriter retried_writer{retried};
    for (const auto& result : exp::run_sweep(flaky, sweep, options)) {
        EXPECT_TRUE(result.failures.empty());
        retried_writer.write(result);
    }
    EXPECT_EQ(retried.str(), clean.str());
}

TEST(RunSweep, JournalReplayIsByteIdenticalAndSkipsCompletedUnits) {
    auto scenario = synthetic_scenario();
    auto executed = std::make_shared<std::atomic<int>>(0);
    const auto base_body = scenario.run_rep;
    scenario.run_rep = [executed, base_body](const exp::ScenarioParams& p,
                                             std::uint64_t seed) {
        executed->fetch_add(1);
        return base_body(p, seed);
    };
    exp::RunOptions options;
    options.reps = 3;
    options.threads = 4;
    const auto sweep = exp::SweepSpec::parse("a=1,2;b=3,4");  // 4 points × 3 reps
    const auto fp = io::sweep_fingerprint(options.seed, options.reps,
                                          {{"synthetic", "a=1,2;b=3,4"}}, "test");

    ScratchFile journal_file{"journal"};
    std::ostringstream first;
    {
        io::SweepJournal journal{journal_file.path(), fp, /*resume=*/false};
        options.journal = &journal;
        exp::JsonlWriter writer{first};
        for (const auto& result : exp::run_sweep(scenario, sweep, options)) {
            writer.write(result);
        }
        journal.sync();
    }
    EXPECT_EQ(executed->load(), 12);

    // Full replay: every unit comes from the journal, the body never runs,
    // and the records are the exact bytes of the original run.
    executed->store(0);
    std::ostringstream replayed;
    {
        io::SweepJournal journal{journal_file.path(), fp, /*resume=*/true};
        EXPECT_EQ(journal.replayed(), 12U);
        options.journal = &journal;
        exp::JsonlWriter writer{replayed};
        for (const auto& result : exp::run_sweep(scenario, sweep, options)) {
            writer.write(result);
        }
    }
    EXPECT_EQ(executed->load(), 0);
    EXPECT_EQ(replayed.str(), first.str());

    // Partial replay: a journal holding only the header and the first four
    // unit lines (as after a crash) re-runs exactly the missing eight.
    std::ifstream in{journal_file.path()};
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(in, line)) lines.push_back(line);
    ASSERT_EQ(lines.size(), 13U);  // header + 12 units
    ScratchFile partial_file{"partial"};
    {
        std::ofstream out{partial_file.path(), std::ios::binary};
        for (std::size_t i = 0; i < 5; ++i) out << lines[i] << '\n';
    }
    executed->store(0);
    std::ostringstream resumed;
    {
        io::SweepJournal journal{partial_file.path(), fp, /*resume=*/true};
        EXPECT_EQ(journal.replayed(), 4U);
        options.journal = &journal;
        exp::JsonlWriter writer{resumed};
        for (const auto& result : exp::run_sweep(scenario, sweep, options)) {
            writer.write(result);
        }
    }
    EXPECT_EQ(executed->load(), 8);
    EXPECT_EQ(resumed.str(), first.str());
}

TEST(RunSweep, StopRequestRaisesInterrupted) {
    const auto scenario = synthetic_scenario();
    std::atomic<bool> stop{true};  // signal arrived before the pass started
    exp::RunOptions options;
    options.reps = 4;
    options.stop = &stop;
    EXPECT_THROW(
        (void)exp::run_sweep(scenario, exp::SweepSpec::parse("a=1,2"), options),
        exp::Interrupted);
}

TEST(JsonlWriter, FailureFieldsAppearOnlyWhenUnitsFailed) {
    exp::PointResult result;
    result.scenario = "s";
    result.reps = 3;
    stats::Sample sample;
    sample.add(1.0);
    sample.add(2.0);
    result.metrics["m"] = sample;

    std::ostringstream healthy;
    exp::JsonlWriter{healthy}.write(result);
    EXPECT_FALSE(parse_json(healthy.str()).has("failed_reps"));

    result.failures.push_back({2, 4, "boom \"quoted\""});
    std::ostringstream failed;
    exp::JsonlWriter{failed}.write(result);
    const auto record = parse_json(failed.str());
    EXPECT_EQ(record.at("failed_reps").number(), 1.0);
    const auto& failures = std::get<JsonArray>(record.at("failures").data);
    ASSERT_EQ(failures.size(), 1U);
    EXPECT_EQ(failures[0]->at("rep").number(), 2.0);
    EXPECT_EQ(failures[0]->at("attempts").number(), 4.0);
    EXPECT_EQ(failures[0]->at("error").str(), "boom \"quoted\"");
}

TEST(Writer, FailedUnitsRecordListsEveryFailure) {
    exp::PointResult ok;
    ok.scenario = "s";
    ok.reps = 2;
    exp::PointResult broken = ok;
    broken.params = {{"a", "1"}};
    broken.failures.push_back({0, 2, "first"});
    broken.failures.push_back({1, 2, "second"});

    std::ostringstream none;
    exp::write_failed_units(none, {ok});
    EXPECT_TRUE(none.str().empty());  // no failures → no record at all

    std::ostringstream os;
    exp::write_failed_units(os, {ok, broken});
    const auto record = parse_json(os.str());
    EXPECT_EQ(record.at("record").str(), "failed_units");
    EXPECT_EQ(record.at("failed_reps").number(), 2.0);
    const auto& units = std::get<JsonArray>(record.at("units").data);
    ASSERT_EQ(units.size(), 2U);
    EXPECT_EQ(units[0]->at("params").str(), "a=1");
    EXPECT_EQ(units[0]->at("rep").number(), 0.0);
    EXPECT_EQ(units[1]->at("error").str(), "second");
}

#if defined(GTEST_HAS_DEATH_TEST)

TEST(JsonlWriterDeathTest, CrashLeavesOnlyCompleteRecords) {
    // Crash-atomicity: the writer flushes at record boundaries, so a
    // process that dies between writes leaves N complete lines — never a
    // torn tail that would corrupt a downstream JSONL parse.
    const auto scenario = synthetic_scenario();
    exp::RunOptions options;
    options.reps = 2;
    const auto result = exp::run_point(scenario, {}, options);

    ScratchFile out{"death"};
    const std::string path = out.path();
    const auto crash_after_two_records = [&path, &result] {
        std::ofstream os{path, std::ios::binary};
        exp::JsonlWriter writer{os};
        writer.write(result);
        writer.write(result);
        util::FailPoints::instance().configure("writer_crash=1@0:abort");
        util::failpoint("writer_crash");
    };
    EXPECT_DEATH(crash_after_two_records(), "");
    std::ifstream in{path, std::ios::binary};
    std::string content{std::istreambuf_iterator<char>{in},
                        std::istreambuf_iterator<char>{}};
    ASSERT_FALSE(content.empty());
    EXPECT_EQ(content.back(), '\n');  // no torn tail
    std::istringstream lines{content};
    std::string line;
    int records = 0;
    while (std::getline(lines, line)) {
        (void)check_record(line);  // each surviving line is a valid record
        ++records;
    }
    EXPECT_EQ(records, 2);
}

#endif  // GTEST_HAS_DEATH_TEST

TEST(BuiltinScenarios, GridBroadcastIsThreadInvariant) {
    exp::register_builtin_scenarios();
    const auto& scenario = exp::ScenarioRegistry::instance().at("grid_broadcast");
    std::vector<std::string> outputs;
    for (const int threads : {1, 4, 16}) {
        exp::RunOptions options;
        options.reps = 5;
        options.threads = threads;
        std::ostringstream os;
        exp::JsonlWriter writer{os};
        for (const auto& result : exp::run_sweep(
                 scenario, exp::SweepSpec::parse("side=12;k=4,8"), options)) {
            writer.write(result);
        }
        outputs.push_back(os.str());
    }
    EXPECT_EQ(outputs[0], outputs[1]);
    EXPECT_EQ(outputs[0], outputs[2]);
}

// ---------------------------------------------------------------------------
// Engine counters per record: every engine a replication destroys flushes
// its counters() and agent count — and, under RunOptions::timings, its
// phase seconds — into the runner's per-attempt sink.

/// A record's counters less the host-dependent pool.* / process.* figures.
std::map<std::string, double> engine_counters(const exp::PointResult& result) {
    std::map<std::string, double> out;
    for (const auto& [name, value] : result.counters) {
        if (!name.starts_with("pool.") && !name.starts_with("process.")) out[name] = value;
    }
    return out;
}

template <typename Process>
void add_counters(const Process& process, std::map<std::string, double>& sum) {
    for (const auto& [name, value] : process.counters()) sum[name] += value;
    sum["agents"] += static_cast<double>(process.config().k);
}

/// Names of a record's phases (the runner's "timing." diversion).
std::vector<std::string> phase_names(const exp::PointResult& result) {
    std::vector<std::string> names;
    for (const auto& [name, seconds] : result.phase_seconds) names.push_back(name);
    return names;
}

const std::vector<std::string> kPhaseNames{"components_s", "exchange_s", "index_s", "walk_s"};

/// The record's deterministic JSONL line (no timings, no counters).
std::string default_record(const exp::PointResult& result) {
    std::ostringstream os;
    exp::JsonlWriter{os}.write(result);
    return os.str();
}

/// Σ over the point's replications of counters() from engines built the
/// way the grid_broadcast / frog_broadcast / gossip bodies build them,
/// with the runner's seeds. With a `trace`, replication `traced_rep`'s
/// engine is built under a sink carrying it, so it traces that replication.
std::map<std::string, double> expected_engine_counters(const std::string& scenario,
                                                       const exp::ParamValues& values,
                                                       const exp::RunOptions& options,
                                                       obs::StepTrace* trace = nullptr,
                                                       int traced_rep = 0) {
    const exp::ScenarioParams p{exp::ScenarioRegistry::instance().at(scenario).params, values};
    core::EngineConfig cfg;
    cfg.side = static_cast<grid::Coord>(p.get_int("side"));
    cfg.k = static_cast<std::int32_t>(p.get_count("k", cfg.n()));
    cfg.radius = scenario == "gossip" ? 0 : p.get_int("radius");
    if (scenario == "frog_broadcast") cfg.mobility = core::Mobility::kInformedOnly;
    const auto cap = core::bounds::default_max_steps(cfg.n(), cfg.k);
    const auto point = exp::point_seed(options.seed, scenario, values);
    std::map<std::string, double> sum;
    for (int rep = 0; rep < options.reps; ++rep) {
        cfg.seed = rng::replication_seed(point, static_cast<std::uint64_t>(rep));
        obs::CounterSink sink;
        sink.trace = rep == traced_rep ? trace : nullptr;
        const obs::ScopedCounterSink scope{sink};
        if (scenario == "gossip") {
            core::GossipProcess process{cfg};
            (void)process.run_until_complete(cap);
            add_counters(process, sum);
        } else {
            core::BroadcastProcess process{cfg};
            (void)process.run_until_complete(cap);
            add_counters(process, sum);
        }
    }
    return sum;
}

/// A trace's records less their host-dependent phase seconds: step,
/// gauges and counter deltas.
using TraceRow = std::tuple<std::int64_t, std::int64_t, std::int64_t, std::int64_t,
                            std::vector<std::pair<std::string, double>>>;
std::vector<TraceRow> trace_rows(const obs::StepTrace& trace) {
    std::vector<TraceRow> rows;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const auto& rec = trace.at(i);
        std::vector<std::pair<std::string, double>> deltas;
        for (const auto& [name, delta] : rec.counters) deltas.emplace_back(name, delta);
        rows.emplace_back(rec.step, rec.units, rec.informed, rec.components, std::move(deltas));
    }
    return rows;
}

TEST(EngineScenarioCounters, RecordsCarryEveryEnginesCountersAtAnyThreadCount) {
    exp::register_builtin_scenarios();
    const std::vector<std::pair<std::string, exp::ParamValues>> cases{
        {"grid_broadcast", {{"side", "16"}, {"k", "8"}, {"radius", "0"}}},
        {"grid_broadcast", {{"side", "16"}, {"k", "8"}, {"radius", "2"}}},
        {"frog_broadcast", {{"side", "12"}, {"k", "8"}, {"radius", "2"}}},
        {"gossip", {{"side", "12"}, {"k", "8"}}},
    };
    for (const auto& [name, values] : cases) {
        const auto& scenario = exp::ScenarioRegistry::instance().at(name);
        // Traced: unit 0 traces at any thread count.
        obs::StepTrace serial_trace;
        obs::StepTrace pooled_trace;
        obs::StepTrace unit0_trace;
        exp::RunOptions options;
        options.reps = 6;
        options.threads = 1;
        options.trace = &serial_trace;
        const auto serial = exp::run_point(scenario, values, options);
        options.threads = 4;
        options.trace = &pooled_trace;
        const auto pooled = exp::run_point(scenario, values, options);
        options.trace = nullptr;
        const auto where = name + "/" + exp::canonical_point(values);
        const auto counters = engine_counters(serial);
        EXPECT_EQ(engine_counters(pooled), counters) << where;
        EXPECT_EQ(counters, expected_engine_counters(name, values, options, &unit0_trace))
            << where;
        ASSERT_GT(unit0_trace.size(), 0U) << where;
        EXPECT_EQ(trace_rows(serial_trace), trace_rows(unit0_trace)) << where;
        EXPECT_EQ(trace_rows(pooled_trace), trace_rows(unit0_trace)) << where;
        EXPECT_EQ(counters.size(), 15U) << where;  // counters() + agents
        EXPECT_EQ(counters.at("agents"), 6 * 8) << where;
        EXPECT_GT(counters.at("walk.blocks_decoded"), 0.0) << where;
        EXPECT_GT(counters.at("exchange.linked"), 0.0) << where;
        EXPECT_TRUE(serial.counters.contains("pool.units")) << where;
        EXPECT_GT(serial.counters.at("process.rss_bytes_per_agent"), 0.0) << where;
        // Timers are opt-in: the tracing engine's are on, yet an untimed
        // sink gets no phases.
        EXPECT_TRUE(serial.phase_seconds.empty()) << where;

        // Timed: the four phases at any thread count, the same counters,
        // and the same deterministic record bytes as untimed.
        options.timings = true;
        for (const int threads : {1, 4}) {
            options.threads = threads;
            const auto timed = exp::run_point(scenario, values, options);
            EXPECT_EQ(phase_names(timed), kPhaseNames) << where << " threads " << threads;
            EXPECT_GT(timed.phase_seconds.at("walk_s"), 0.0) << where;
            EXPECT_EQ(engine_counters(timed), counters) << where << " threads " << threads;
            EXPECT_EQ(default_record(timed), default_record(serial))
                << where << " threads " << threads;
        }
    }
}

// The engine counters, phases and step trace of a replication that
// throws after stepping an engine, then passes on its retry, are one
// attempt's: the failed attempt's sink is dropped with it, and the trace
// restarts with the retry.
TEST(EngineScenarioCounters, RetriedUnitReportsOneAttempt) {
    const auto config = [](std::uint64_t seed) {
        core::EngineConfig cfg;
        cfg.side = 16;
        cfg.k = 8;
        cfg.radius = 1;
        cfg.seed = seed;
        return cfg;
    };
    auto scenario = synthetic_scenario();
    auto attempts = std::make_shared<std::atomic<int>>(0);
    // The failed attempt steps far longer, so its phases alone would
    // outweigh the wall clock of the attempt that reports.
    scenario.run_rep = [attempts, config](const exp::ScenarioParams&, std::uint64_t seed) {
        const bool first = attempts->fetch_add(1) == 0;
        core::BroadcastProcess process{config(seed)};
        for (int s = 0; s < (first ? 20000 : 30); ++s) process.step();
        if (first) throw std::runtime_error("first attempt fails");
        exp::Metrics m;
        m["value"] = 1.0;
        return m;
    };
    obs::StepTrace trace;
    exp::RunOptions options;
    options.reps = 1;
    options.retries = 1;
    options.timings = true;
    options.trace = &trace;
    const auto result = exp::run_point(scenario, {}, options);
    EXPECT_EQ(attempts->load(), 2);
    EXPECT_TRUE(result.failures.empty());
    ASSERT_EQ(trace.size(), 30U);
    EXPECT_EQ(trace.dropped(), 0);
    EXPECT_EQ(trace.at(29).step, 30);
    EXPECT_EQ(phase_names(result), kPhaseNames);
    double phase_total = 0.0;
    for (const auto& [name, seconds] : result.phase_seconds) phase_total += seconds;
    EXPECT_GT(phase_total, 0.0);
    EXPECT_LE(phase_total, result.wall_seconds);

    core::BroadcastProcess once{
        config(rng::replication_seed(exp::point_seed(options.seed, scenario.name, {}), 0))};
    for (int s = 0; s < 30; ++s) once.step();
    std::map<std::string, double> expected;
    add_counters(once, expected);
    EXPECT_EQ(engine_counters(result), expected);
}

// Counters and phases ride in the journaled metrics, so a resumed sweep —
// fully replayed or half re-run — reports the counters of the original
// run, and a fully replayed one its phases too. The half re-run one traces
// the first unit it computes.
TEST(EngineScenarioCounters, ResumedJournalReproducesCounters) {
    exp::register_builtin_scenarios();
    const auto& scenario = exp::ScenarioRegistry::instance().at("grid_broadcast");
    const std::string spec = "side=12;k=8;radius=0,2";
    const auto sweep = exp::SweepSpec::parse(spec);
    exp::RunOptions options;
    options.reps = 3;
    options.threads = 2;
    options.timings = true;
    const auto fp = io::sweep_fingerprint(options.seed, options.reps,
                                          {{scenario.name, spec}}, "test");
    std::vector<std::map<std::string, double>> phases;
    const auto counters_of = [&] {
        std::vector<std::map<std::string, double>> out;
        phases.clear();
        for (const auto& result : exp::run_sweep(scenario, sweep, options)) {
            out.push_back(engine_counters(result));
            phases.push_back(result.phase_seconds);
            EXPECT_EQ(phase_names(result), kPhaseNames);
        }
        return out;
    };

    ScratchFile journal_file{"counters_journal"};
    std::vector<std::map<std::string, double>> first;
    {
        io::SweepJournal journal{journal_file.path(), fp, /*resume=*/false};
        options.journal = &journal;
        first = counters_of();
    }
    ASSERT_EQ(first.size(), 2U);
    EXPECT_GT(first[1].at("scan.pairs_tested"), 0.0);
    const auto first_phases = phases;

    std::vector<std::string> lines;
    {
        std::ifstream in{journal_file.path()};
        for (std::string line; std::getline(in, line);) lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 7U);  // header + 6 units
    ScratchFile partial_file{"counters_partial"};
    {
        std::ofstream out{partial_file.path(), std::ios::binary};
        for (std::size_t i = 0; i < 3; ++i) out << lines[i] << '\n';
    }
    // The partial journal holds the first two units the pool finished;
    // the resume traces the lowest-index unit missing from it.
    int first_computed = 0;
    {
        const io::SweepJournal partial{partial_file.path(), fp, /*resume=*/true};
        while (partial.find(scenario.name, first_computed) != nullptr) ++first_computed;
    }
    obs::StepTrace resumed_trace;
    obs::StepTrace unit_trace;
    (void)expected_engine_counters(scenario.name, sweep.points()[first_computed / 3], options,
                                   &unit_trace, first_computed % 3);
    ASSERT_GT(unit_trace.size(), 0U);
    for (const auto* path : {&journal_file.path(), &partial_file.path()}) {
        io::SweepJournal journal{*path, fp, /*resume=*/true};
        options.journal = &journal;
        options.trace = path == &partial_file.path() ? &resumed_trace : nullptr;
        EXPECT_EQ(counters_of(), first) << *path;
        if (path == &journal_file.path()) {
            EXPECT_EQ(phases, first_phases);
        }
    }
    EXPECT_EQ(trace_rows(resumed_trace), trace_rows(unit_trace));
}

/// Names of every built-in scenario, in registry order.
std::vector<std::string> builtin_scenario_names() {
    exp::register_builtin_scenarios();
    std::vector<std::string> names;
    for (const auto* scenario : exp::ScenarioRegistry::instance().all()) {
        names.push_back(scenario->name);
    }
    return names;
}

class ScenarioQuickSweep : public ::testing::TestWithParam<std::string> {};

// The determinism contract, per scenario: each quick sweep writes the same
// JSONL bytes at one worker thread and at seven (a count that divides no
// quick sweep's work evenly), as `smn_lab --quick --reps=3` does in
// scripts/lab_quick.sh.
TEST_P(ScenarioQuickSweep, ByteIdenticalAtOneAndSevenThreads) {
    const auto& scenario = exp::ScenarioRegistry::instance().at(GetParam());
    const auto sweep = exp::SweepSpec::parse(scenario.quick_sweep);
    std::vector<std::string> outputs;
    for (const int threads : {1, 7}) {
        exp::RunOptions options;
        options.reps = 3;
        options.threads = threads;
        std::ostringstream os;
        exp::JsonlWriter writer{os};
        for (const auto& result : exp::run_sweep(scenario, sweep, options)) writer.write(result);
        outputs.push_back(os.str());
    }
    EXPECT_FALSE(outputs[0].empty());
    EXPECT_EQ(outputs[0], outputs[1]);
}

INSTANTIATE_TEST_SUITE_P(BuiltinScenarios, ScenarioQuickSweep,
                         ::testing::ValuesIn(builtin_scenario_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                             return info.param;
                         });

}  // namespace
