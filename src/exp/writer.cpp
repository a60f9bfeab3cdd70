#include "exp/writer.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "obs/provenance.hpp"
#include "obs/registry.hpp"
#include "stats/table.hpp"

namespace smn::exp {
namespace {

/// JSON number or null (for NaN/±inf, which JSON cannot represent).
std::string json_number(double value) {
    if (!std::isfinite(value)) return "null";
    return format_double(value);
}

void append_stats_object(std::string& out, const stats::Sample& sample) {
    out += "{\"count\":" + std::to_string(sample.count());
    out += ",\"mean\":" + json_number(sample.mean());
    out += ",\"stderr\":" + json_number(sample.stderr_mean());
    out += ",\"median\":" + json_number(sample.median());
    out += ",\"min\":" + json_number(sample.min());
    out += ",\"max\":" + json_number(sample.max());
    out += '}';
}

}  // namespace

std::string json_escape(const std::string& text) {
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

std::string format_double(double value) {
    char buf[32];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value);
    if (ec != std::errc{}) return "0";
    return std::string(buf, ptr);
}

void JsonlWriter::write(const PointResult& result) {
    std::string line = "{\"schema\":1";
    line += ",\"scenario\":\"" + json_escape(result.scenario) + '"';
    line += ",\"params\":{";
    bool first = true;
    for (const auto& [key, value] : result.params) {
        if (!first) line += ',';
        first = false;
        line += '"' + json_escape(key) + "\":\"" + json_escape(value) + '"';
    }
    line += "},\"reps\":" + std::to_string(result.reps);
    line += ",\"seed\":" + std::to_string(result.seed);
    line += ",\"metrics\":{";
    first = true;
    for (const auto& [name, sample] : result.metrics) {
        if (!first) line += ',';
        first = false;
        line += '"' + json_escape(name) + "\":";
        append_stats_object(line, sample);
    }
    line += '}';
    if (!result.failures.empty()) {
        // Failure fields appear only when something failed, so healthy
        // runs stay byte-identical to builds that predate them.
        line += ",\"failed_reps\":" + std::to_string(result.failures.size());
        line += ",\"failures\":[";
        bool first_failure = true;
        for (const auto& failure : result.failures) {
            if (!first_failure) line += ',';
            first_failure = false;
            line += "{\"rep\":" + std::to_string(failure.rep);
            line += ",\"attempts\":" + std::to_string(failure.attempts);
            line += ",\"error\":\"" + json_escape(failure.message) + "\"}";
        }
        line += ']';
    }
    if (counters_ && !result.counters.empty()) {
        line += ",\"counters\":{";
        bool first_counter = true;
        for (const auto& [name, value] : result.counters) {
            if (!first_counter) line += ',';
            first_counter = false;
            line += '"' + json_escape(name) + "\":" + json_number(value);
        }
        line += '}';
    }
    if (timings_) {
        line += ",\"timing\":{\"wall_s\":" + json_number(result.wall_seconds);
        line += ",\"sweep_wall_s\":" + json_number(result.sweep_wall_seconds);
        line += ",\"steps\":" + json_number(result.steps);
        line += ",\"steps_per_s\":" + json_number(result.steps_per_second);
        if (!result.phase_seconds.empty()) {
            double total = 0.0;
            for (const auto& [name, seconds] : result.phase_seconds) total += seconds;
            line += ",\"phases\":{";
            bool first_phase = true;
            for (const auto& [name, seconds] : result.phase_seconds) {
                if (!first_phase) line += ',';
                first_phase = false;
                line += '"' + json_escape(name) + "\":" + json_number(seconds);
            }
            for (const auto& [name, seconds] : result.phase_seconds) {
                line += ",\"" + json_escape(name + "_frac") +
                        "\":" + json_number(total > 0.0 ? seconds / total : 0.0);
            }
            line += '}';
        }
        line += '}';
    }
    line += "}\n";
    // One write + flush per record: a crash can only ever lose whole
    // trailing lines, never leave a partial JSON object mid-file (the
    // crash-resume pipeline depends on this).
    *os_ << line;
    os_->flush();
}

void CsvWriter::write(const PointResult& result) {
    std::vector<std::string> headers{"scenario", "params", "seed",   "reps", "metric",
                                     "count",    "mean",   "stderr", "median", "min", "max"};
    if (timings_) {
        headers.push_back("wall_s");
        headers.push_back("sweep_wall_s");
        headers.push_back("steps_per_s");
    }
    stats::Table table{headers};
    for (const auto& [name, sample] : result.metrics) {
        std::vector<std::string> row{result.scenario,
                                     canonical_point(result.params),
                                     std::to_string(result.seed),
                                     std::to_string(result.reps),
                                     name,
                                     std::to_string(sample.count()),
                                     format_double(sample.mean()),
                                     format_double(sample.stderr_mean()),
                                     format_double(sample.median()),
                                     format_double(sample.min()),
                                     format_double(sample.max())};
        if (timings_) {
            row.push_back(format_double(result.wall_seconds));
            row.push_back(format_double(result.sweep_wall_seconds));
            row.push_back(format_double(result.steps_per_second));
        }
        table.add_row(std::move(row));
    }
    if (counters_) {
        // Counters are per-point sums, not replication samples — render
        // them as "counter.<name>" rows with the value in the mean column
        // so long-format consumers pick them up without a schema change.
        for (const auto& [name, value] : result.counters) {
            std::vector<std::string> row{result.scenario,
                                         canonical_point(result.params),
                                         std::to_string(result.seed),
                                         std::to_string(result.reps),
                                         "counter." + name,
                                         std::to_string(result.reps),
                                         format_double(value),
                                         "",
                                         "",
                                         "",
                                         ""};
            if (timings_) {
                row.push_back(format_double(result.wall_seconds));
                row.push_back(format_double(result.sweep_wall_seconds));
                row.push_back(format_double(result.steps_per_second));
            }
            table.add_row(std::move(row));
        }
    }
    table.print_csv(*os_, !wrote_header_);
    os_->flush();  // record-boundary flush, same contract as JsonlWriter
    wrote_header_ = true;
}

void write_failed_units(std::ostream& os, const std::vector<PointResult>& results) {
    std::size_t failed = 0;
    for (const auto& result : results) failed += result.failures.size();
    if (failed == 0) return;
    std::string line = "{\"schema\":1,\"record\":\"failed_units\"";
    line += ",\"scenario\":\"" + json_escape(results.front().scenario) + '"';
    line += ",\"failed_reps\":" + std::to_string(failed);
    line += ",\"units\":[";
    bool first = true;
    for (const auto& result : results) {
        for (const auto& failure : result.failures) {
            if (!first) line += ',';
            first = false;
            line += "{\"params\":\"" + json_escape(canonical_point(result.params)) + '"';
            line += ",\"rep\":" + std::to_string(failure.rep);
            line += ",\"attempts\":" + std::to_string(failure.attempts);
            line += ",\"error\":\"" + json_escape(failure.message) + "\"}";
        }
    }
    line += "]}\n";
    os << line;
    os.flush();
}

void write_provenance(std::ostream& os, const RunProvenance& run) {
    const auto info = obs::build_info();
    std::string line = "{\"schema\":1,\"record\":\"provenance\"";
    line += ",\"git_sha\":\"" + json_escape(info.git_sha) + '"';
    line += ",\"build_type\":\"" + json_escape(info.build_type) + '"';
    line += ",\"simd\":\"" + json_escape(info.simd_backend) + '"';
    line += ",\"obs_enabled\":";
    line += info.obs_enabled ? "true" : "false";
    line += ",\"threads\":" + std::to_string(run.threads);
    line += ",\"seed\":" + std::to_string(run.seed);
    line += ",\"reps\":" + std::to_string(run.reps);
    line += "}\n";
    os << line;
    os.flush();
}

void write_counters_total(std::ostream& os) {
    auto& registry = obs::Registry::instance();
    std::string line = "{\"schema\":1,\"record\":\"counters_total\"";
    line += ",\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : registry.counters_snapshot()) {
        if (!first) line += ',';
        first = false;
        line += '"' + json_escape(name) + "\":" + std::to_string(value);
    }
    line += '}';
    const auto gauges = registry.gauges_snapshot();
    if (!gauges.empty()) {
        line += ",\"gauges\":{";
        first = true;
        for (const auto& [name, value] : gauges) {
            if (!first) line += ',';
            first = false;
            line += '"' + json_escape(name) + "\":" + std::to_string(value);
        }
        line += '}';
    }
    line += "}\n";
    os << line;
    os.flush();
}

}  // namespace smn::exp
