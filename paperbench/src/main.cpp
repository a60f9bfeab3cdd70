// main.cpp — command line of the paper-regime benchmark.
//
//   paperbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
//
// --trace 0 runs the end-to-end pass for S seconds; --trace 1 runs the
// traced pass over batch 0 and writes its spans to FILE. Either way the
// report ends with one JSON line {"correct", "attempted", "failed",
// "metrics"} and the exit code is 0 only when every check passed.
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "exp/scenarios.hpp"
#include "obs/provenance.hpp"
#include "paperbench.hpp"

extern char** environ;

namespace {

using paperbench::Metric;

constexpr std::uint64_t kDefaultSeed = 20110601;
constexpr int kSetupProbes = 31;
// Steps between build_naive partition checks in the traced pass (prime,
// so checks do not lock onto any periodic structure of the walk).
constexpr std::int64_t kCheckEvery = 97;

struct Options {
    std::string workload;
    std::uint64_t seed{kDefaultSeed};
    double seconds{20.0};
    bool trace{false};
    std::string spans;
    bool setup_probe{false};
};

Options parse(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--setup-probe") {
            opt.setup_probe = true;
            continue;
        }
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
        const std::string value = argv[++i];
        if (arg == "--workload") {
            opt.workload = value;
        } else if (arg == "--seed") {
            opt.seed = std::stoull(value);
        } else if (arg == "--seconds") {
            opt.seconds = std::stod(value);
        } else if (arg == "--trace") {
            if (value != "0" && value != "1") throw std::invalid_argument("--trace wants 0 or 1");
            opt.trace = value == "1";
        } else if (arg == "--spans") {
            opt.spans = value;
        } else {
            throw std::invalid_argument("unknown option " + arg);
        }
    }
    if (opt.workload.empty()) throw std::invalid_argument("--workload is required");
    if (!(opt.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
    return opt;
}

/// One replication thread, no sharded scan, no injected faults: the
/// numbers must describe the serial library, whatever the caller's shell
/// has exported.
void pin_environment() {
    if (std::getenv("SMN_FAILPOINTS") != nullptr) {
        throw std::runtime_error("SMN_FAILPOINTS is set; unset it to benchmark");
    }
    setenv("SMN_THREADS", "1", 1);
    setenv("SMN_STEP_THREADS", "1", 1);
}

/// Debug builds time the wrong program, and SMN_DISABLE_OBS builds read
/// zero for the tallied counts.
std::string checked_build() {
    const auto info = smn::obs::build_info();
    const std::string type = info.build_type;
    if (type != "Release" && type != "RelWithDebInfo") {
        throw std::runtime_error("refusing a '" + type + "' build; configure Release");
    }
    if (!info.obs_enabled) throw std::runtime_error("refusing an SMN_DISABLE_OBS build");
    return std::string{"sha="} + info.git_sha + " type=" + type + " simd=" + info.simd_backend +
           " obs=on threads=1 step_threads=1";
}

std::int64_t monotonic_ns() noexcept {
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

/// The set-up probe ends here: report when the first replication started
/// and leave without running it.
void probe_first_rep() {
    char buf[32];
    const int len = std::snprintf(buf, sizeof buf, "%lld\n",
                                  static_cast<long long>(monotonic_ns()));
    if (write(STDOUT_FILENO, buf, static_cast<std::size_t>(len)) != len) std::_Exit(4);
    std::_Exit(0);
}

/// Seconds from spawning this program in set-up-probe mode to its first
/// replication starting (CLOCK_MONOTONIC is shared by both processes).
double probe_setup(const Options& opt) {
    char exe[4096];
    const auto n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
    exe[n] = '\0';
    const auto seed = std::to_string(opt.seed);
    std::vector<std::string> args{exe, "--setup-probe", "--workload", opt.workload, "--seed", seed};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    pid_t pid = 0;
    const auto start = monotonic_ns();
    const int rc = posix_spawn(&pid, exe, &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    std::string out;
    if (rc == 0) {
        char buf[64];
        for (ssize_t got; (got = read(fds[0], buf, sizeof buf)) != 0;) {
            if (got > 0) out.append(buf, static_cast<std::size_t>(got));
            else if (errno != EINTR) break;
        }
    }
    close(fds[0]);
    if (rc != 0) throw std::runtime_error("posix_spawn failed");
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || out.empty()) {
        throw std::runtime_error("set-up probe failed");
    }
    return static_cast<double>(std::stoll(out) - start) * 1e-9;
}

/// Checks the replay digest at the default seed. A mismatch fails the
/// first replication of batch 0 (the digest cannot say which one moved).
bool digest_ok(const paperbench::Workload& w, std::uint64_t seed,
               std::vector<paperbench::RepRecord>& reps) {
    const auto got = paperbench::digest(reps, static_cast<std::size_t>(w.batch));
    std::printf("digest %016llx over %d reps of batch 0%s\n", static_cast<unsigned long long>(got),
                w.batch, seed == kDefaultSeed ? " (default seed: checked)" : "");
    if (seed != kDefaultSeed || got == w.digest) return true;
    std::printf("FAIL digest: want %016llx\n", static_cast<unsigned long long>(w.digest));
    if (!reps.empty() && reps.front().failure.empty()) reps.front().failure = "digest mismatch";
    return false;
}

int emit(bool correct, std::size_t attempted, int failed, const std::vector<Metric>& metrics) {
    for (const auto& m : metrics) {
        if (!std::isfinite(m.value)) {
            std::printf("FAIL %s is not finite\n", m.name.c_str());
            correct = false;
        }
    }
    std::printf("%-26s %.6g (%d of %zu)\n", "failed_frac",
                attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
                failed, attempted);
    correct = correct && failed == 0 && attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %d, \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const auto& m = metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                    m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit);
    }
    std::printf("}}\n");
    return correct ? 0 : 1;
}

void print_metrics(const std::vector<Metric>& metrics) {
    for (const auto& m : metrics) std::printf("%-26s %.6g %s\n", m.name.c_str(), m.value, m.unit);
}

int end_to_end(const Options& opt, const smn::exp::Scenario& scenario,
               const paperbench::Workload& w) {
    // Each probe is scaled by the factors of the slices either side of it.
    // The first slice allocates and touches the kernel's state; it is not timed.
    (void)paperbench::calibration_slice(w);
    // The probes run on this CPU (children inherit the mask): one spawned
    // onto an idle CPU first waits for it to wake, which the host times
    // unevenly.
    cpu_set_t all;
    cpu_set_t here;
    const bool pinned = sched_getaffinity(0, sizeof all, &all) == 0 && sched_getcpu() >= 0;
    if (pinned) {
        CPU_ZERO(&here);
        CPU_SET(sched_getcpu(), &here);
        (void)sched_setaffinity(0, sizeof here, &here);
    }
    std::vector<double> setup;
    std::vector<double> ref_setup;
    auto before = paperbench::calibration_slice(w);
    for (int i = 0; i < kSetupProbes; ++i) {
        const double s = probe_setup(opt);
        const auto after = paperbench::calibration_slice(w);
        setup.push_back(s);
        ref_setup.push_back(s * std::sqrt(paperbench::host_factor(before.wall_s) *
                                          paperbench::host_factor(after.wall_s)));
        before = after;
    }
    if (pinned) (void)sched_setaffinity(0, sizeof all, &all);
    auto sweep = paperbench::run_sweeps(scenario, w, opt.seed, opt.seconds);
    bool correct = digest_ok(w, opt.seed, sweep.reps);
    // After the clock stops: the first replication, rebuilt from layer
    // calls, must reproduce what the sweep reported — at any seed.
    auto& first = sweep.reps.front();
    for (const auto& why : paperbench::replay_check(w, opt.seed, 0, first)) {
        if (first.failure.empty()) first.failure = why;
        std::printf("FAIL replay of rep 0: %s\n", why.c_str());
    }
    std::vector<double> walls;
    std::vector<double> ref_walls;
    std::vector<double> rss;
    for (const auto& rep : sweep.reps) {
        if (rep.failure.empty()) {
            walls.push_back(rep.wall_ms);
            ref_walls.push_back(rep.ref_ms);
            rss.push_back(rep.peak_rss_mb);
        } else {
            std::printf("FAIL rep: %s\n", rep.failure.c_str());
        }
    }
    const auto tail = paperbench::tail(ref_walls);
    if (!tail) {
        std::printf("FAIL fewer than 11 healthy replications; no tail percentile\n");
        correct = false;
    }
    const double reps = static_cast<double>(sweep.reps.size());
    // The peak of one replication, not of the run: a run's peak follows its
    // longest replication, so it would grow with the run's length.
    const bool rss_per_rep = paperbench::reset_peak_rss();
    // Every time is in reference-host time (README.md, Noise).
    const std::vector<Metric> metrics{
        {"agent_steps_per_s", sweep.agent_steps / sweep.ref_wall_s, "1/s"},
        {"agent_steps_per_cpu_s", sweep.agent_steps / sweep.ref_cpu_s, "1/s"},
        {"reps_per_s", reps / sweep.ref_wall_s, "1/s"},
        {"rep_ms_p50", paperbench::median(ref_walls), "ms"},
        {"rep_ms_tail", tail ? tail->value : 0.0, "ms"},
        {"setup_s", paperbench::median(ref_setup), "s"},
        {"peak_rss_mb", rss_per_rep ? paperbench::median(rss) : paperbench::peak_rss_mb(), "MB"},
    };
    print_metrics(metrics);
    std::printf("%-26s %s\n", "peak_rss_mb is",
                rss_per_rep ? "median over reps of the peak while each ran"
                            : "the process's peak (the kernel refused to reset it)");
    if (tail) {
        std::printf("%-26s p%.4g of %zu reps (10 beyond); %d batches of %d\n", "rep_ms_tail is",
                    tail->percentile, tail->samples, sweep.batches, w.batch);
    }
    std::printf("%-26s median of %d probes\n", "setup_s is", kSetupProbes);
    // The same figures in host time, and how fast the host ran.
    const auto& f = sweep.factors;
    std::printf("%-26s %.6g 1/s, %.6g 1/s (cpu), %.6g ms p50, %.6g s setup\n", "host-time figures",
                sweep.agent_steps / sweep.wall_s, sweep.agent_steps / sweep.cpu_s,
                paperbench::median(walls), paperbench::median(setup));
    std::printf("%-26s median %.4g, range %.4g-%.4g over %zu slices (%.1f%% of the run)\n",
                "host factor", paperbench::median(f), *std::min_element(f.begin(), f.end()),
                *std::max_element(f.begin(), f.end()), f.size(),
                100.0 * sweep.slice_s / (sweep.wall_s + sweep.slice_s));
    return emit(correct, sweep.reps.size(), sweep.failed(), metrics);
}

void write_spans(const std::string& path, const paperbench::TraceRun& trace,
                 const std::string& header) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    const auto origin = trace.spans.empty() ? 0 : trace.spans.front().begin_ns;
    std::fprintf(f, "# %s\n# rep\tstep\tspan\tparent\tbegin_ns\tend_ns\n", header.c_str());
    for (const auto& s : trace.spans) {
        const bool layer = s.layer != paperbench::Layer::kEngineStep &&
                           s.layer != paperbench::Layer::kShadowStep;
        std::fprintf(f, "%d\t%d\t%s\t%s\t%lld\t%lld\n", s.rep, s.step,
                     paperbench::layer_name(s.layer), layer ? "shadow.step" : "-",
                     static_cast<long long>(s.begin_ns - origin),
                     static_cast<long long>(s.end_ns - origin));
    }
    if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

double value_of(const std::vector<Metric>& metrics, const char* name) {
    for (const auto& m : metrics) {
        if (m.name == name) return m.value;
    }
    return 0.0;
}

int traced(const Options& opt, const smn::exp::Scenario& scenario,
           const paperbench::Workload& w, const std::string& header) {
    auto trace = paperbench::run_trace(scenario, w, opt.seed, kCheckEvery);
    bool correct = digest_ok(w, opt.seed, trace.sweep.reps);
    for (const auto& why : trace.failures) std::printf("FAIL %s\n", why.c_str());
    const auto metrics = paperbench::layer_metrics(trace);
    if (!opt.spans.empty()) write_spans(opt.spans, trace, header);
    print_metrics(metrics);
    std::printf("%-26s %zu spans, %lld naive partition checks\n", "trace is", trace.spans.size(),
                static_cast<long long>(trace.counts.naive_checks));
    const double glue = value_of(metrics, "core.glue_frac");
    std::printf("%-26s layers cover %.1f%% of engine step time (%s)\n", "attribution",
                100.0 * (1.0 - glue), std::fabs(glue) <= 0.05 ? "within 5%" : "WARN: gap > 5%");
    const int failed = std::max(trace.failed_reps, trace.sweep.failed());
    return emit(correct && trace.failures.empty(), trace.sweep.reps.size(), failed, metrics);
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const auto opt = parse(argc, argv);
        pin_environment();
        const auto build = checked_build();
        smn::exp::register_builtin_scenarios();
        const auto& w = paperbench::find_workload(opt.workload);
        const auto& scenario = smn::exp::ScenarioRegistry::instance().at(w.scenario);
        if (opt.setup_probe) {
            (void)paperbench::run_sweeps(scenario, w, opt.seed, 0.0, 1, probe_first_rep);
            return 3;  // unreachable: the probe exits on the first replication
        }
        const auto header = "paperbench " + w.name + " seed=" + std::to_string(opt.seed) +
                            (opt.trace ? " trace" : " end-to-end") + " build: " + build;
        std::printf("# %s\n", header.c_str());
        return opt.trace ? traced(opt, scenario, w, header) : end_to_end(opt, scenario, w);
    } catch (const std::exception& err) {
        std::fflush(stdout);
        std::fprintf(stderr, "paperbench: %s\n", err.what());
        return 2;
    }
}
