#include "sim/args.hpp"

#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "sim/runner.hpp"

namespace smn::sim {
namespace {

// std::stoll/stod alone accept trailing garbage ("12abc" parses as 12),
// so every numeric option demands full consumption of the value — the
// same contract exp/scenario.cpp applies to scenario parameters. Empty
// values ("--reps=") throw from stoll/stod directly.

std::int64_t parse_int_strict(const std::string& text) {
    std::size_t used = 0;
    const std::int64_t parsed = std::stoll(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return parsed;
}

double parse_double_strict(const std::string& text) {
    std::size_t used = 0;
    const double parsed = std::stod(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return parsed;
}

}  // namespace

Args::Args(int argc, const char* const* argv) {
    // Duplicate options are rejected rather than last-one-wins: a sweep
    // command line is usually assembled by scripts, and a silently
    // overridden `--seed` would change results without any symptom.
    const auto reject_duplicate = [this](const std::string& key) {
        if (values_.count(key) != 0 || flags_.count(key) != 0) {
            throw std::invalid_argument("duplicate option --" + key +
                                        " (each option may be given once)");
        }
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            throw std::invalid_argument("unexpected argument (want --key=value): " + arg);
        }
        const auto eq = arg.find('=');
        if (eq == std::string::npos) {
            const std::string key = arg.substr(2);
            if (key == "quick") {
                quick_ = true;
            } else if (key == "csv") {
                csv_ = true;
            } else if (key == "help") {
                help_ = true;
            } else {
                reject_duplicate(key);
                flags_.insert(key);
            }
        } else {
            const std::string key = arg.substr(2, eq - 2);
            reject_duplicate(key);
            values_[key] = arg.substr(eq + 1);
        }
    }
}

void Args::declare(const std::string& key, const std::string& fallback) const {
    if (known_.insert(key).second) declared_.emplace_back(key, fallback);
}

std::int64_t Args::get_int(const std::string& key, std::int64_t fallback) {
    declare(key, std::to_string(fallback));
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    try {
        return parse_int_strict(it->second);
    } catch (const std::exception&) {
        throw std::invalid_argument("--" + key + " expects an integer, got '" + it->second + "'");
    }
}

double Args::get_double(const std::string& key, double fallback) {
    declare(key, std::to_string(fallback));
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    try {
        return parse_double_strict(it->second);
    } catch (const std::exception&) {
        throw std::invalid_argument("--" + key + " expects a number, got '" + it->second + "'");
    }
}

std::string Args::get_string(const std::string& key, const std::string& fallback) {
    declare(key, fallback.empty() ? "(empty)" : fallback);
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
}

bool Args::get_flag(const std::string& key) {
    declare(key, "(flag)");
    return flags_.count(key) > 0;
}

int Args::threads() const {
    const auto it = values_.find("threads");
    if (it == values_.end()) return default_threads();
    try {
        const std::int64_t threads = parse_int_strict(it->second);
        if (threads < 1 || threads > kMaxThreads) throw std::invalid_argument(it->second);
        return static_cast<int>(threads);
    } catch (const std::exception&) {
        throw std::invalid_argument("--threads expects an integer in [1, " +
                                    std::to_string(kMaxThreads) + "], got '" + it->second + "'");
    }
}

void Args::reject_unknown() const {
    if (help_) {
        print_help(std::cout);
        std::exit(0);
    }
    // Collect every unknown before throwing, so a command line with
    // several typos reports them all in one pass instead of one per run.
    std::string unknowns;
    std::size_t count = 0;
    for (const auto& [key, value] : values_) {
        if (key == "threads") continue;  // built-in, consumed via threads()
        if (!known_.count(key)) {
            if (!unknowns.empty()) unknowns += ", ";
            unknowns += "--" + key + " (value '" + value + "')";
            ++count;
        }
    }
    for (const auto& key : flags_) {
        if (!known_.count(key)) {
            if (!unknowns.empty()) unknowns += ", ";
            unknowns += "--" + key + " (flag)";
            ++count;
        }
    }
    if (count > 0) {
        throw std::invalid_argument(
            (count == 1 ? "unknown option " : "unknown options ") + unknowns +
            "; --help lists the accepted ones");
    }
}

void Args::print_help(std::ostream& os) const {
    os << "options (--key=value):\n";
    for (const auto& [key, fallback] : declared_) {
        os << "  --" << key << "  (default: " << fallback << ")\n";
    }
    os << "built-in:\n"
       << "  --threads=N  worker threads, 1.." << kMaxThreads << " (default: "
       << default_threads() << ", env override SMN_THREADS)\n"
       << "  --quick      shrink problem sizes for smoke runs\n"
       << "  --csv        machine-readable CSV output\n"
       << "  --help       this listing\n";
}

}  // namespace smn::sim
