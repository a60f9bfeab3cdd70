// smn_lab — the experiment-lab driver.
//
// Lists registered scenarios and runs declarative parameter sweeps over
// them, writing one structured record per (scenario, parameter point) to
// JSONL or CSV. Each sweep's replications are farmed over the workers of
// one sim::run_units pass with deterministic per-replication seeds, so the
// emitted results are bit-identical for any --threads value (timings,
// which are host-dependent, are opt-in via --timings).
//
//   smn_lab --list                 # catalogue: scenarios, params, sweeps
//   smn_lab                        # default sweep of every scenario
//   smn_lab --quick --out=results/quick.jsonl
//   smn_lab --scenario=gossip --sweep="side=24;k=8,16,32" --reps=20
//           --threads=8 --out=results/gossip.jsonl
//   smn_lab --scenario=churn --format=csv
//
// Crash-safe sweeps (docs/robustness.md): --journal appends each
// completed (point, replication) unit to a sidecar journal; if the run
// dies — crash, SIGKILL, or Ctrl-C (SIGINT/SIGTERM stop cleanly, flush
// the journal, and exit 130) — rerun the same command with
// --resume=JOURNAL to skip the finished units. The merged output is
// byte-identical to an uninterrupted run. --retries=N retries a throwing
// replication; units that fail every attempt are reported in a
// "failed_units" record (exit 3) while healthy units complete.
#include <csignal>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "exp/runner.hpp"
#include "exp/scenarios.hpp"
#include "exp/sweep.hpp"
#include "exp/writer.hpp"
#include "io/journal.hpp"
#include "obs/provenance.hpp"
#include "obs/step_trace.hpp"
#include "sim/args.hpp"
#include "stats/table.hpp"

namespace {

using namespace smn;

/// Set by the SIGINT/SIGTERM handler; the runner checks it before each
/// unit (RunOptions::stop), so one signal stops the sweep cleanly after
/// the in-flight replications finish. A second signal falls through to
/// the default disposition (the handler re-arms SIG_DFL) and kills the
/// process the usual way.
std::atomic<bool> g_stop{false};

extern "C" void handle_stop_signal(int signum) {
    g_stop.store(true, std::memory_order_relaxed);
    std::signal(signum, SIG_DFL);
}

void list_scenarios(const sim::Args& args) {
    stats::Table table{{"scenario", "param", "default", "description"}};
    for (const auto* scenario : exp::ScenarioRegistry::instance().all()) {
        std::cout << scenario->name << " — " << scenario->title << "\n  claim: "
                  << scenario->claim << "\n  default sweep: " << scenario->default_sweep
                  << "\n  quick sweep:   " << scenario->quick_sweep << "\n";
        for (const auto& spec : scenario->params) {
            table.add_row({scenario->name, spec.key, spec.fallback, spec.description});
        }
    }
    std::cout << "\n";
    if (args.csv()) {
        table.print_csv(std::cout);
    } else {
        table.print(std::cout);
    }
}

/// Replication progress + ETA on stderr. The runner's on_progress hook
/// fires from worker threads, so updates serialize on a mutex; prints are
/// throttled to ~4/s (plus the final one) and rewrite one line on a TTY.
class ProgressReporter {
public:
    explicit ProgressReporter(bool tty) : tty_{tty} {}

    /// Arms the reporter for one sweep (resets the clock and label).
    void begin(const std::string& label) {
        std::lock_guard<std::mutex> lock{mutex_};
        label_ = label;
        start_ = clock::now();
        last_print_ = start_ - std::chrono::hours{1};
    }

    void update(std::size_t done, std::size_t total) {
        std::lock_guard<std::mutex> lock{mutex_};
        const auto now = clock::now();
        if (done != total && now - last_print_ < std::chrono::milliseconds{250}) return;
        last_print_ = now;
        const double elapsed = std::chrono::duration<double>(now - start_).count();
        std::string line = "[smn_lab] " + label_ + ": " + std::to_string(done) + "/" +
                           std::to_string(total) + " reps";
        if (done > 0 && done < total) {
            const double eta =
                elapsed * static_cast<double>(total - done) / static_cast<double>(done);
            line += " (ETA " + format_seconds(eta) + ")";
        } else if (done == total) {
            line += " (" + format_seconds(elapsed) + ")";
        }
        if (tty_) {
            std::cerr << '\r' << line << "\033[K" << (done == total ? "\n" : "") << std::flush;
        } else if (done == total) {
            std::cerr << line << "\n";  // non-TTY (CI logs): one line per sweep
        }
    }

private:
    using clock = std::chrono::steady_clock;

    static std::string format_seconds(double seconds) {
        char buf[32];
        if (seconds >= 90.0) {
            std::snprintf(buf, sizeof buf, "%dm%02ds", static_cast<int>(seconds) / 60,
                          static_cast<int>(seconds) % 60);
        } else {
            std::snprintf(buf, sizeof buf, "%.1fs", seconds);
        }
        return buf;
    }

    std::mutex mutex_;
    std::string label_;
    clock::time_point start_{};
    clock::time_point last_print_{};
    bool tty_;
};

std::vector<std::string> split_names(const std::string& text) {
    std::vector<std::string> names;
    std::size_t start = 0;
    while (start <= text.size()) {
        const auto pos = text.find(',', start);
        const auto piece = text.substr(start, pos - start);
        if (!piece.empty()) names.push_back(piece);
        if (pos == std::string::npos) break;
        start = pos + 1;
    }
    return names;
}

int run(int argc, char** argv) {
    sim::Args args{argc, argv};
    const bool list = args.get_flag("list");
    const std::string scenario_arg = args.get_string("scenario", "");
    const std::string sweep_arg = args.get_string("sweep", "");
    const std::string out_path = args.get_string("out", "-");
    std::string format = args.get_string("format", "");
    if (args.csv()) {
        if (!format.empty() && format != "csv") {
            throw std::invalid_argument("--csv conflicts with --format=" + format);
        }
        format = "csv";
    }
    const bool timings = args.get_flag("timings");
    // Telemetry opt-ins, both host/build-dependent (never in default
    // output): --counters appends the per-record "counters" object;
    // --trace=FILE dumps the per-step timeline of one replication, the
    // same one at any --threads (see RunOptions::trace).
    const bool counters = args.get_flag("counters");
    const std::string trace_path = args.get_string("trace", "");
    // Progress/ETA: on for interactive runs, opt-in (--progress) for
    // redirected ones, opt-out (--no-progress) everywhere.
    const bool force_progress = args.get_flag("progress");
    const bool no_progress = args.get_flag("no-progress");

    exp::RunOptions options;
    const bool quick = args.quick();
    options.timings = timings;
    options.reps = static_cast<int>(args.get_int("reps", quick ? 3 : 8));
    options.seed = static_cast<std::uint64_t>(args.get_int("seed", 20110601));
    options.threads = args.threads();
    options.retries = static_cast<int>(args.get_int("retries", 0));
    options.tolerate_failures = true;  // report failed units, don't abort the sweep
    // Crash-safety: --journal[=PATH] records completed units as the run
    // goes; --resume=PATH replays a journal from an interrupted run.
    const bool journal_flag = args.get_flag("journal");
    const std::string journal_arg = args.get_string("journal", "");
    const std::string resume_path = args.get_string("resume", "");
    args.reject_unknown();
    if (options.retries < 0) throw std::invalid_argument("--retries must be >= 0");
    if (!resume_path.empty() && (journal_flag || !journal_arg.empty())) {
        throw std::invalid_argument("--resume already names the journal; drop --journal");
    }

    if (list) {
        list_scenarios(args);
        return 0;
    }

    const auto& registry = exp::ScenarioRegistry::instance();
    std::vector<const exp::Scenario*> selected;
    if (scenario_arg.empty() || scenario_arg == "all") {
        selected = registry.all();
    } else {
        for (const auto& name : split_names(scenario_arg)) {
            selected.push_back(&registry.at(name));
        }
    }
    if (!sweep_arg.empty() && selected.size() != 1) {
        throw std::invalid_argument("--sweep needs exactly one --scenario=<name>");
    }

    // Resolve every scenario's sweep up front: bad sweep syntax fails
    // before any compute, and the (name, sweep) list is what the journal
    // fingerprint binds a resume to.
    std::vector<exp::SweepSpec> sweeps;
    std::vector<std::string> sweep_texts;
    std::vector<std::pair<std::string, std::string>> fingerprint_scenarios;
    for (const auto* scenario : selected) {
        const std::string sweep_text =
            !sweep_arg.empty() ? sweep_arg
                               : (quick ? scenario->quick_sweep
                                                : scenario->default_sweep);
        sweeps.push_back(exp::SweepSpec::parse(sweep_text));
        sweep_texts.push_back(sweep_text);
        fingerprint_scenarios.emplace_back(scenario->name, sweep_text);
    }

    // Open the journal (if any) and trap SIGINT/SIGTERM so an interrupt
    // flushes it instead of losing completed work.
    std::unique_ptr<io::SweepJournal> journal;
    if (journal_flag || !journal_arg.empty() || !resume_path.empty()) {
        const auto fingerprint =
            io::sweep_fingerprint(options.seed, options.reps, fingerprint_scenarios,
                                  obs::build_info().git_sha);
        std::string journal_path = !resume_path.empty() ? resume_path : journal_arg;
        if (journal_path.empty()) {
            if (out_path == "-") {
                throw std::invalid_argument(
                    "--journal without a path needs --out=FILE (journal goes to "
                    "FILE.journal), or pass --journal=PATH");
            }
            journal_path = out_path + ".journal";
        }
        journal = std::make_unique<io::SweepJournal>(journal_path, fingerprint,
                                                     /*resume=*/!resume_path.empty());
        if (!resume_path.empty()) {
            std::cerr << "[smn_lab] resuming from " << journal_path << ": "
                      << journal->replayed() << " unit(s) already done\n";
        }
        options.journal = journal.get();
        options.stop = &g_stop;
        std::signal(SIGINT, handle_stop_signal);
        std::signal(SIGTERM, handle_stop_signal);
    }

    // Output stream: stdout for "-", else a fresh file (parents created).
    std::ofstream file;
    if (out_path != "-") {
        const auto parent = std::filesystem::path{out_path}.parent_path();
        if (!parent.empty()) std::filesystem::create_directories(parent);
        file.open(out_path, std::ios::trunc);
        if (!file) throw std::runtime_error("cannot open --out=" + out_path);
    }
    std::ostream& os = out_path == "-" ? std::cout : file;
    if (format.empty()) {
        format = out_path.size() > 4 && out_path.ends_with(".csv") ? "csv" : "jsonl";
    }
    if (format != "jsonl" && format != "csv") {
        throw std::invalid_argument("--format must be jsonl or csv, got '" + format + "'");
    }
    exp::JsonlWriter jsonl{os, timings, counters};
    exp::CsvWriter csv{os, timings, counters};
    if ((timings || counters) && format == "jsonl") {
        // First line of the stream: run provenance. Behind the opt-ins so
        // the default output stays byte-identical across hosts and builds
        // (scripts/lab_quick.sh checks exactly that).
        exp::RunProvenance prov;
        prov.threads = options.threads > 0 ? options.threads : sim::default_threads();
        prov.seed = options.seed;
        prov.reps = options.reps;
        exp::write_provenance(os, prov);
    }

    // --trace: one step-trace ring for the whole run. Each scenario's
    // sweep gets it until one has filled it; the runner hands it to the
    // first engine of the sweep's lowest-index computed unit
    // (RunOptions::trace), so the traced replication is the same at any
    // --threads. A scenario with no engine leaves it empty.
    obs::StepTrace trace;

    const bool tty = isatty(fileno(stderr)) != 0;
    ProgressReporter progress{tty};
    if ((tty || force_progress) && !no_progress) {
        options.on_progress = [&progress](std::size_t done, std::size_t total) {
            progress.update(done, total);
        };
    }

    std::size_t failed_reps = 0;
    for (std::size_t i = 0; i < selected.size(); ++i) {
        const auto* scenario = selected[i];
        const auto& sweep = sweeps[i];
        std::cerr << "[smn_lab] " << scenario->name << ": " << sweep.size()
                  << " point(s) x " << options.reps << " rep(s), sweep \"" << sweep_texts[i]
                  << "\"\n";
        progress.begin(scenario->name);
        options.trace = !trace_path.empty() && trace.size() == 0 ? &trace : nullptr;
        std::vector<exp::PointResult> results;
        // A failed journal fsync ends the run once this sweep's completed
        // records are written (exit 2, through main's handler).
        std::exception_ptr sync_error;
        try {
            results = exp::run_sweep(*scenario, sweep, options);
        } catch (const exp::Interrupted& err) {
            std::cerr << "\n[smn_lab] interrupted: " << err.what() << "\n[smn_lab] "
                      << "finish with: --resume=" << (journal ? journal->path() : "JOURNAL")
                      << " (plus the original options)\n";
            return 130;
        } catch (exp::JournalSyncFailed& err) {
            results = std::move(err.results);
            sync_error = std::current_exception();
        }
        for (const auto& result : results) {
            if (format == "csv") {
                csv.write(result);
            } else {
                jsonl.write(result);
            }
            failed_reps += result.failures.size();
        }
        if (format == "jsonl") exp::write_failed_units(os, results);
        if (sync_error) std::rethrow_exception(sync_error);
    }
    if (!trace_path.empty()) {
        const auto parent = std::filesystem::path{trace_path}.parent_path();
        if (!parent.empty()) std::filesystem::create_directories(parent);
        std::ofstream trace_file{trace_path, std::ios::trunc};
        if (!trace_file) throw std::runtime_error("cannot open --trace=" + trace_path);
        trace.write_json(trace_file);
        std::cerr << "[smn_lab] wrote " << trace_path << " (" << trace.size()
                  << " traced step(s))\n";
    }
    if (out_path != "-") {
        std::cerr << "[smn_lab] wrote " << out_path << " (" << format << ")\n";
    }
    if (failed_reps > 0) {
        std::cerr << "[smn_lab] " << failed_reps << " replication(s) failed after "
                  << (1 + options.retries) << " attempt(s) each — see the failed_units "
                  << "record(s); healthy units completed\n";
        return 3;
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    smn::exp::register_builtin_scenarios();
    try {
        return run(argc, argv);
    } catch (const std::exception& err) {
        std::cerr << "smn_lab: " << err.what() << "\n";
        return 2;
    }
}
