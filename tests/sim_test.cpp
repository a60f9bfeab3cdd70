// sim_test.cpp — CLI args and the deterministic replication runner.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/args.hpp"
#include "sim/runner.hpp"

namespace smn::sim {
namespace {

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
    std::vector<const char*> v{"prog"};
    v.insert(v.end(), args.begin(), args.end());
    return v;
}

TEST(Args, ParsesTypedValues) {
    auto argv = argv_of({"--n=4096", "--alpha=0.5", "--name=test"});
    Args args{static_cast<int>(argv.size()), argv.data()};
    EXPECT_EQ(args.get_int("n", 0), 4096);
    EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0), 0.5);
    EXPECT_EQ(args.get_string("name", ""), "test");
    args.reject_unknown();
}

TEST(Args, FallbacksApply) {
    auto argv = argv_of({});
    Args args{static_cast<int>(argv.size()), argv.data()};
    EXPECT_EQ(args.get_int("missing", 7), 7);
    EXPECT_DOUBLE_EQ(args.get_double("missing2", 1.5), 1.5);
    EXPECT_EQ(args.get_string("missing3", "x"), "x");
    EXPECT_FALSE(args.get_flag("missing4"));
}

TEST(Args, QuickAndCsvAreRecognized) {
    auto argv = argv_of({"--quick", "--csv"});
    Args args{static_cast<int>(argv.size()), argv.data()};
    EXPECT_TRUE(args.quick());
    EXPECT_TRUE(args.csv());
    args.reject_unknown();
}

TEST(Args, FlagsWithoutValue) {
    auto argv = argv_of({"--verbose"});
    Args args{static_cast<int>(argv.size()), argv.data()};
    EXPECT_TRUE(args.get_flag("verbose"));
    args.reject_unknown();
}

TEST(Args, MalformedArgumentThrows) {
    auto argv = argv_of({"notanoption"});
    EXPECT_THROW((Args{static_cast<int>(argv.size()), argv.data()}), std::invalid_argument);
}

TEST(Args, BadIntThrows) {
    auto argv = argv_of({"--n=abc"});
    Args args{static_cast<int>(argv.size()), argv.data()};
    EXPECT_THROW((void)args.get_int("n", 0), std::invalid_argument);
}

// Regression: std::stoll/stod accept trailing garbage, so "--reps=12abc"
// used to silently parse as 12. Numeric options now demand that the whole
// value is consumed and reject empty values.
TEST(Args, TrailingGarbageRejected) {
    for (const char* bad : {"--n=12abc", "--n=1.5", "--n=7 ", "--n=0x10", "--n="}) {
        auto argv = argv_of({bad});
        Args args{static_cast<int>(argv.size()), argv.data()};
        EXPECT_THROW((void)args.get_int("n", 0), std::invalid_argument) << bad;
    }
    for (const char* bad : {"--alpha=1.5x", "--alpha=2.5e1q", "--alpha=1,5", "--alpha="}) {
        auto argv = argv_of({bad});
        Args args{static_cast<int>(argv.size()), argv.data()};
        EXPECT_THROW((void)args.get_double("alpha", 0.0), std::invalid_argument) << bad;
    }
}

TEST(Args, StrictParsingStillAcceptsFullNumbers) {
    auto argv = argv_of({"--n=-12", "--alpha=2.5e-1"});
    Args args{static_cast<int>(argv.size()), argv.data()};
    EXPECT_EQ(args.get_int("n", 0), -12);
    EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0), 0.25);
}

TEST(Args, UnknownKeyRejected) {
    auto argv = argv_of({"--typo=1"});
    Args args{static_cast<int>(argv.size()), argv.data()};
    (void)args.get_int("n", 0);  // declare something else
    EXPECT_THROW(args.reject_unknown(), std::invalid_argument);
}

TEST(Args, UnknownFlagRejected) {
    auto argv = argv_of({"--mystery"});
    Args args{static_cast<int>(argv.size()), argv.data()};
    EXPECT_THROW(args.reject_unknown(), std::invalid_argument);
}

// Regression: duplicates used to be last-one-wins, so a script that
// appended "--seed=2" to a command line already carrying "--seed=1"
// silently changed results. Every duplicate is now a parse error.
TEST(Args, DuplicateOptionsRejected) {
    const std::pair<const char*, const char*> duplicates[] = {
        {"--seed=1", "--seed=2"},    // value twice
        {"--verbose", "--verbose"},  // flag twice
        {"--foo=1", "--foo"},        // value then flag
        {"--foo", "--foo=1"},        // flag then value
    };
    for (const auto& [first, second] : duplicates) {
        auto argv = argv_of({first, second});
        try {
            Args args{static_cast<int>(argv.size()), argv.data()};
            FAIL() << "accepted duplicate " << first << " " << second;
        } catch (const std::invalid_argument& err) {
            EXPECT_NE(std::string{err.what()}.find("duplicate"), std::string::npos);
        }
    }
    // Repeated built-in flags stay idempotent (quick/csv/help are bools).
    auto argv = argv_of({"--quick", "--quick"});
    EXPECT_NO_THROW((Args{static_cast<int>(argv.size()), argv.data()}));
}

TEST(Args, AllUnknownsReportedInOneError) {
    auto argv = argv_of({"--typo=1", "--mystery", "--wat=2"});
    Args args{static_cast<int>(argv.size()), argv.data()};
    (void)args.get_int("n", 0);
    try {
        args.reject_unknown();
        FAIL() << "unknowns accepted";
    } catch (const std::invalid_argument& err) {
        const std::string what = err.what();
        // One message naming every unknown, so several typos cost one
        // run to discover instead of one run each.
        EXPECT_NE(what.find("--typo"), std::string::npos) << what;
        EXPECT_NE(what.find("--mystery"), std::string::npos) << what;
        EXPECT_NE(what.find("--wat"), std::string::npos) << what;
    }
}

TEST(Args, HelpIsRecognizedAndListsDeclaredKeys) {
    auto argv = argv_of({"--help"});
    Args args{static_cast<int>(argv.size()), argv.data()};
    EXPECT_TRUE(args.help());
    (void)args.get_int("side", 48);
    (void)args.get_double("alpha", 0.25);
    (void)args.get_string("mode", "fast");
    std::ostringstream os;
    args.print_help(os);
    const std::string help = os.str();
    EXPECT_NE(help.find("--side  (default: 48)"), std::string::npos);
    EXPECT_NE(help.find("--alpha"), std::string::npos);
    EXPECT_NE(help.find("--mode  (default: fast)"), std::string::npos);
    EXPECT_NE(help.find("--threads=N"), std::string::npos);
    EXPECT_NE(help.find("--quick"), std::string::npos);
    EXPECT_NE(help.find("SMN_THREADS"), std::string::npos);
}

TEST(Args, HelpListsKeysInDeclarationOrderOnce) {
    auto argv = argv_of({});
    Args args{static_cast<int>(argv.size()), argv.data()};
    (void)args.get_int("zeta", 1);
    (void)args.get_int("alpha", 2);
    (void)args.get_int("zeta", 1);  // re-declaration is not duplicated
    std::ostringstream os;
    args.print_help(os);
    const std::string help = os.str();
    const auto zeta = help.find("--zeta");
    const auto alpha = help.find("--alpha");
    ASSERT_NE(zeta, std::string::npos);
    ASSERT_NE(alpha, std::string::npos);
    EXPECT_LT(zeta, alpha);
    EXPECT_EQ(help.find("--zeta", zeta + 1), std::string::npos);
}

TEST(Args, ThreadsOptionIsBuiltIn) {
    auto argv = argv_of({"--threads=5"});
    Args args{static_cast<int>(argv.size()), argv.data()};
    EXPECT_EQ(args.threads(), 5);
    args.reject_unknown();  // never rejected, even though no get_* declared it
}

TEST(Args, ThreadsDefaultsToDefaultThreads) {
    auto argv = argv_of({});
    Args args{static_cast<int>(argv.size()), argv.data()};
    EXPECT_EQ(args.threads(), default_threads());
}

TEST(Args, ThreadsRejectsBadValues) {
    for (const char* bad : {"--threads=0", "--threads=-2", "--threads=many", "--threads=4x",
                            "--threads=", "--threads=99999999999"}) {
        auto argv = argv_of({bad});
        Args args{static_cast<int>(argv.size()), argv.data()};
        EXPECT_THROW((void)args.threads(), std::invalid_argument) << bad;
    }
}

// ------------------------------------------------------------------ runner

TEST(Runner, ProducesOneResultPerReplication) {
    const auto results = run_replications(
        10, 42, [](int rep, std::uint64_t) { return static_cast<double>(rep); }, 4);
    ASSERT_EQ(results.size(), 10u);
    for (int rep = 0; rep < 10; ++rep) {
        EXPECT_DOUBLE_EQ(results[static_cast<std::size_t>(rep)], static_cast<double>(rep));
    }
}

TEST(Runner, SeedsAreDeterministicAndPerReplication) {
    std::vector<std::uint64_t> seen(8, 0);
    (void)run_replications(
        8, 99,
        [&](int rep, std::uint64_t seed) {
            seen[static_cast<std::size_t>(rep)] = seed;
            return 0.0;
        },
        1);
    for (int rep = 0; rep < 8; ++rep) {
        EXPECT_EQ(seen[static_cast<std::size_t>(rep)],
                  rng::replication_seed(99, static_cast<std::uint64_t>(rep)));
    }
}

TEST(Runner, ThreadCountDoesNotChangeResults) {
    const auto body = [](int rep, std::uint64_t seed) {
        // Some seed-dependent computation.
        rng::Rng rng{seed};
        double total = 0.0;
        for (int i = 0; i <= rep; ++i) total += rng.uniform();
        return total;
    };
    const auto serial = run_replications(20, 7, body, 1);
    const auto par2 = run_replications(20, 7, body, 2);
    const auto par8 = run_replications(20, 7, body, 8);
    EXPECT_EQ(serial, par2);
    EXPECT_EQ(serial, par8);
}

TEST(Runner, MoreThreadsThanWork) {
    const auto results = run_replications(
        3, 1, [](int rep, std::uint64_t) { return static_cast<double>(rep * rep); }, 16);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_DOUBLE_EQ(results[2], 4.0);
}

TEST(Runner, SampleAggregatesAll) {
    const auto sample = sample_replications(
        100, 5, [](int, std::uint64_t seed) { return rng::Rng{seed}.uniform(); }, 4);
    EXPECT_EQ(sample.count(), 100);
    EXPECT_GT(sample.mean(), 0.3);
    EXPECT_LT(sample.mean(), 0.7);
}

TEST(Runner, DefaultThreadsIsPositive) { EXPECT_GE(default_threads(), 1); }

// Replication-order determinism across the thread counts the lab's
// acceptance criterion names: a serial run, an even split, and a count
// that divides the work unevenly.
TEST(Runner, ReplicationOrderIsDeterministicAtOneTwoSevenThreads) {
    const auto body = [](int rep, std::uint64_t seed) {
        rng::Rng rng{seed};
        double total = static_cast<double>(rep);
        for (int i = 0; i < 50; ++i) total += rng.uniform();
        return total;
    };
    const auto serial = run_replications(23, 2026, body, 1);
    ASSERT_EQ(serial.size(), 23u);
    for (const int threads : {2, 7}) {
        EXPECT_EQ(serial, run_replications(23, 2026, body, threads)) << threads;
    }
}

// Regression: run_replications used to spawn `threads` std::threads even
// when reps < threads (idle workers per call). replication_workers clamps
// to the work available.
TEST(Runner, ReplicationWorkersClampsToReps) {
    EXPECT_EQ(replication_workers(16, 1), 1);
    EXPECT_EQ(replication_workers(16, 3), 3);
    EXPECT_EQ(replication_workers(4, 100), 4);
    EXPECT_EQ(replication_workers(0, 10), 1);
    EXPECT_EQ(replication_workers(-3, 10), 1);
    EXPECT_EQ(replication_workers(8, 0), 1);
}

TEST(Runner, SingleRepAtManyThreads) {
    // reps=1 exercises the clamped pool path: one unit, one worker.
    const auto results = run_replications(
        1, 77, [](int rep, std::uint64_t) { return static_cast<double>(rep + 41); }, 16);
    ASSERT_EQ(results.size(), 1U);
    EXPECT_DOUBLE_EQ(results[0], 41.0);
}

TEST(Runner, StructuredResultsThroughTypedApi) {
    struct RepOutcome {
        double value{0.0};
        std::uint64_t seed{0};
        int rep{-1};
    };
    const auto results = run_replications_as<RepOutcome>(
        12, 31,
        [](int rep, std::uint64_t seed) {
            return RepOutcome{static_cast<double>(rep) * 2.0, seed, rep};
        },
        4);
    ASSERT_EQ(results.size(), 12U);
    for (int rep = 0; rep < 12; ++rep) {
        const auto& outcome = results[static_cast<std::size_t>(rep)];
        EXPECT_EQ(outcome.rep, rep);
        EXPECT_DOUBLE_EQ(outcome.value, rep * 2.0);
        EXPECT_EQ(outcome.seed, rng::replication_seed(31, static_cast<std::uint64_t>(rep)));
    }
}

TEST(Runner, BodyExceptionSurfacesOnCallerThread) {
    // A throwing body used to hit std::terminate inside a raw std::thread;
    // the pool now captures it and rethrows here, at any thread count.
    for (const int threads : {1, 4, 16}) {
        EXPECT_THROW((void)run_replications(
                         9, 3,
                         [](int rep, std::uint64_t) -> double {
                             if (rep == 4) throw std::runtime_error("rep 4 boom");
                             return 0.0;
                         },
                         threads),
                     std::runtime_error)
            << threads;
    }
}

TEST(Runner, SkewedWorkloadIsThreadInvariant) {
    // One replication ~100× slower than its siblings: dynamic scheduling
    // must not change any result slot.
    const auto body = [](int rep, std::uint64_t seed) {
        rng::Rng rng{seed};
        const int spins = rep == 0 ? 200000 : 2000;
        double total = 0.0;
        for (int i = 0; i < spins; ++i) total += rng.uniform();
        return total;
    };
    const auto serial = run_replications(16, 555, body, 1);
    for (const int threads : {4, 16}) {
        EXPECT_EQ(serial, run_replications(16, 555, body, threads)) << threads;
    }
}

TEST(Runner, PersistentPoolSurvivesManyCalls) {
    // Back-to-back calls reuse the shared pool's workers; results stay
    // deterministic call after call.
    const auto body = [](int rep, std::uint64_t seed) {
        return static_cast<double>(seed % 1000 + static_cast<std::uint64_t>(rep));
    };
    const auto expected = run_replications(10, 1234, body, 1);
    for (int round = 0; round < 25; ++round) {
        EXPECT_EQ(expected, run_replications(10, 1234, body, 4)) << round;
    }
}

TEST(Runner, NestedReplicationsRunInline) {
    // A body that itself runs replications must not deadlock on the shared
    // pool: the inner call detects the busy pool and runs inline.
    const auto results = run_replications(
        6, 9,
        [](int, std::uint64_t seed) {
            const auto inner = run_replications(
                4, seed, [](int rep, std::uint64_t) { return static_cast<double>(rep); }, 4);
            double total = 0.0;
            for (const double v : inner) total += v;
            return total;
        },
        4);
    ASSERT_EQ(results.size(), 6U);
    for (const double v : results) EXPECT_DOUBLE_EQ(v, 6.0);
}

TEST(Runner, SmnThreadsEnvironmentOverride) {
    ASSERT_EQ(setenv("SMN_THREADS", "3", 1), 0);
    EXPECT_EQ(default_threads(), 3);
    // Out-of-range or junk values fall back to the hardware default.
    ASSERT_EQ(setenv("SMN_THREADS", "0", 1), 0);
    const int fallback = default_threads();
    EXPECT_GE(fallback, 1);
    ASSERT_EQ(setenv("SMN_THREADS", "lots", 1), 0);
    EXPECT_EQ(default_threads(), fallback);
    ASSERT_EQ(unsetenv("SMN_THREADS"), 0);
    EXPECT_GE(default_threads(), 1);
}

}  // namespace
}  // namespace smn::sim
