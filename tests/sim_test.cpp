// sim_test.cpp — CLI args and the shared replication pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "rng/rng.hpp"
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
    // The upper bound is inclusive (parsing only: no thread starts here).
    auto max_argv = argv_of({"--threads=1024"});
    EXPECT_EQ((Args{static_cast<int>(max_argv.size()), max_argv.data()}.threads()), kMaxThreads);
}

TEST(Args, HelpStatesTheThreadsRange) {
    auto argv = argv_of({});
    Args args{static_cast<int>(argv.size()), argv.data()};
    std::ostringstream os;
    args.print_help(os);
    EXPECT_NE(os.str().find("--threads=N  worker threads, 1..1024"), std::string::npos)
        << os.str();
}

TEST(Args, ThreadsDefaultsToDefaultThreads) {
    auto argv = argv_of({});
    Args args{static_cast<int>(argv.size()), argv.data()};
    EXPECT_EQ(args.threads(), default_threads());
}

TEST(Args, ThreadsRejectsBadValues) {
    for (const char* bad : {"--threads=0", "--threads=-2", "--threads=many", "--threads=4x",
                            "--threads=", "--threads=1025", "--threads=99999999999"}) {
        auto argv = argv_of({bad});
        Args args{static_cast<int>(argv.size()), argv.data()};
        EXPECT_THROW((void)args.threads(), std::invalid_argument) << bad;
    }
}

// ------------------------------------------------------------------ runner

TEST(Runner, DefaultThreadsIsPositive) { EXPECT_GE(default_threads(), 1); }

// Regression: the runner used to spawn `threads` std::threads even when
// reps < threads (idle workers per call). replication_workers clamps to
// the work available.
TEST(Runner, ReplicationWorkersClampsToReps) {
    EXPECT_EQ(replication_workers(16, 1), 1);
    EXPECT_EQ(replication_workers(16, 3), 3);
    EXPECT_EQ(replication_workers(4, 100), 4);
    EXPECT_EQ(replication_workers(0, 10), 1);
    EXPECT_EQ(replication_workers(-3, 10), 1);
    EXPECT_EQ(replication_workers(8, 0), 1);
}

/// Runs unit(u) for every u in [0, units) on the shared pool and returns
/// the results in unit order.
std::vector<int> run_units(int units, int threads, int (*unit)(int)) {
    std::vector<int> results(static_cast<std::size_t>(units), -1);
    EXPECT_TRUE(ReplicationPool::instance()
                    .run_units(units, threads, 0,
                               [&](int u) { results[static_cast<std::size_t>(u)] = unit(u); })
                    .empty());
    return results;
}

/// Runs a seeded replication body, body(rep, replication_seed(base, rep)),
/// for every rep on the shared pool and returns the values in rep order —
/// the way exp::run_point drives the pool.
template <typename Body>
std::vector<double> run_seeded(int reps, std::uint64_t base, int threads, Body body) {
    std::vector<double> results(static_cast<std::size_t>(reps), -1.0);
    EXPECT_TRUE(ReplicationPool::instance()
                    .run_units(reps, threads, 0,
                               [&](int rep) {
                                   results[static_cast<std::size_t>(rep)] = body(
                                       rep, rng::replication_seed(
                                                base, static_cast<std::uint64_t>(rep)));
                               })
                    .empty());
    return results;
}

TEST(Runner, ProducesOneResultPerReplication) {
    // Every unit runs exactly once and lands in its own slot.
    for (const int threads : {1, 4, 16}) {
        std::vector<std::atomic<int>> calls(10);
        const auto results = run_units(10, threads, [](int u) { return u; });
        EXPECT_TRUE(ReplicationPool::instance()
                        .run_units(10, threads, 0,
                                   [&](int u) { calls[static_cast<std::size_t>(u)].fetch_add(1); })
                        .empty());
        for (int u = 0; u < 10; ++u) {
            EXPECT_EQ(results[static_cast<std::size_t>(u)], u) << threads;
            EXPECT_EQ(calls[static_cast<std::size_t>(u)].load(), 1) << threads;
        }
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
    const auto serial = run_seeded(20, 7, 1, body);
    EXPECT_EQ(serial, run_seeded(20, 7, 2, body));
    EXPECT_EQ(serial, run_seeded(20, 7, 8, body));
}

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
    const auto serial = run_seeded(23, 2026, 1, body);
    ASSERT_EQ(serial.size(), 23U);
    for (const int threads : {2, 7}) {
        EXPECT_EQ(serial, run_seeded(23, 2026, threads, body)) << threads;
    }
}

TEST(Runner, SkewedWorkloadIsThreadInvariant) {
    // One replication ~100x slower than its siblings: dynamic scheduling
    // must not change any result slot.
    const auto body = [](int rep, std::uint64_t seed) {
        rng::Rng rng{seed};
        const int spins = rep == 0 ? 200000 : 2000;
        double total = 0.0;
        for (int i = 0; i < spins; ++i) total += rng.uniform();
        return total;
    };
    const auto serial = run_seeded(16, 555, 1, body);
    for (const int threads : {4, 16}) {
        EXPECT_EQ(serial, run_seeded(16, 555, threads, body)) << threads;
    }
}

TEST(Runner, BodyExceptionSurfacesOnCallerThread) {
    // A throwing unit comes back to the caller as a failure carrying its
    // exception, at any thread count, and the pool serves the next
    // dispatch normally.
    for (const int threads : {1, 4, 16}) {
        const auto failures = ReplicationPool::instance().run_units(9, threads, 0, [](int u) {
            if (u == 4) throw std::runtime_error("unit 4 boom");
        });
        ASSERT_EQ(failures.size(), 1U) << threads;
        EXPECT_EQ(failures[0].unit, 4) << threads;
        EXPECT_EQ(failures[0].attempts, 1) << threads;
        EXPECT_EQ(failures[0].message, "unit 4 boom") << threads;
        EXPECT_THROW(std::rethrow_exception(failures[0].error), std::runtime_error) << threads;
        EXPECT_EQ(run_units(5, threads, [](int u) { return u + 1; }),
                  (std::vector<int>{1, 2, 3, 4, 5}))
            << threads;
    }
}

TEST(Runner, FailingUnitNeverStopsTheOthers) {
    // Unit 0 throws at once while the rest dawdle: no unit is cancelled,
    // every other unit runs exactly once, and only unit 0 is reported.
    for (const int threads : {1, 4, 16}) {
        std::vector<std::atomic<int>> calls(200);
        const auto failures = ReplicationPool::instance().run_units(200, threads, 0, [&](int u) {
            calls[static_cast<std::size_t>(u)].fetch_add(1);
            if (u == 0) throw std::logic_error("early");
            std::this_thread::sleep_for(std::chrono::microseconds{50});
        });
        ASSERT_EQ(failures.size(), 1U) << threads;
        EXPECT_EQ(failures[0].unit, 0) << threads;
        for (const auto& count : calls) EXPECT_EQ(count.load(), 1) << threads;
    }
}

TEST(Runner, RetriesTransientFailures) {
    // Every unit throws on its first attempt only: one retry recovers all
    // of them, and each body ran exactly twice.
    for (const int threads : {1, 4}) {
        std::vector<std::atomic<int>> attempts(12);
        const auto failures = ReplicationPool::instance().run_units(
            12, threads, 1, [&](int u) {
                if (attempts[static_cast<std::size_t>(u)].fetch_add(1) == 0) {
                    throw std::runtime_error("transient");
                }
            });
        EXPECT_TRUE(failures.empty()) << threads;
        for (const auto& count : attempts) EXPECT_EQ(count.load(), 2) << threads;
    }
}

TEST(Runner, RecordsPersistentFailuresInUnitOrder) {
    // Units 7 and 2 always throw std::runtime_error, unit 9 a non-std
    // exception; the rest complete once each. Failures come back sorted by
    // unit, with every attempt counted and the final exception kept.
    for (const int threads : {1, 4, 16}) {
        std::vector<std::atomic<int>> attempts(11);
        const auto failures = ReplicationPool::instance().run_units(
            11, threads, 2, [&](int u) {
                attempts[static_cast<std::size_t>(u)].fetch_add(1);
                if (u == 2 || u == 7) throw std::runtime_error("unit " + std::to_string(u));
                if (u == 9) throw 9;
            });
        ASSERT_EQ(failures.size(), 3U) << threads;
        EXPECT_EQ(failures[0].unit, 2);
        EXPECT_EQ(failures[1].unit, 7);
        EXPECT_EQ(failures[2].unit, 9);
        EXPECT_EQ(failures[0].message, "unit 2");
        EXPECT_EQ(failures[1].message, "unit 7");
        EXPECT_EQ(failures[2].message, "unknown exception");
        for (const auto& failure : failures) EXPECT_EQ(failure.attempts, 3);
        EXPECT_THROW(std::rethrow_exception(failures[1].error), std::runtime_error);
        EXPECT_THROW(std::rethrow_exception(failures[2].error), int);
        for (int u = 0; u < 11; ++u) {
            const bool failing = u == 2 || u == 7 || u == 9;
            EXPECT_EQ(attempts[static_cast<std::size_t>(u)].load(), failing ? 3 : 1)
                << "unit " << u << " at " << threads;
        }
    }
}

TEST(Runner, RetryStopsAtTheFirstSuccess) {
    // A unit that fails twice and then succeeds uses 3 of its 6 allowed
    // attempts and is not reported.
    for (const int threads : {1, 4}) {
        std::vector<std::atomic<int>> attempts(8);
        const auto failures = ReplicationPool::instance().run_units(8, threads, 5, [&](int u) {
            if (attempts[static_cast<std::size_t>(u)].fetch_add(1) < 2) {
                throw std::runtime_error("flaky");
            }
        });
        EXPECT_TRUE(failures.empty()) << threads;
        for (const auto& count : attempts) EXPECT_EQ(count.load(), 3) << threads;
    }
}

TEST(Runner, NegativeRetriesMeanOneAttempt) {
    std::atomic<int> attempts{0};
    const auto failures = ReplicationPool::instance().run_units(1, 1, -3, [&](int) {
        attempts.fetch_add(1);
        throw std::runtime_error("always");
    });
    ASSERT_EQ(failures.size(), 1U);
    EXPECT_EQ(failures[0].attempts, 1);
    EXPECT_EQ(attempts.load(), 1);
}

TEST(Runner, FailureKeepsTheFinalAttemptsException) {
    // Each attempt throws a different message: the record carries the last.
    for (const int threads : {1, 4}) {
        std::atomic<int> attempts{0};
        const auto failures = ReplicationPool::instance().run_units(2, threads, 2, [&](int u) {
            if (u == 1) throw std::runtime_error("attempt " + std::to_string(++attempts));
        });
        ASSERT_EQ(failures.size(), 1U) << threads;
        EXPECT_EQ(failures[0].message, "attempt 3") << threads;
        try {
            std::rethrow_exception(failures[0].error);
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "attempt 3") << threads;
        }
    }
}

TEST(Runner, ZeroUnitsRunNothing) {
    for (const int threads : {1, 4}) {
        std::atomic<int> calls{0};
        EXPECT_TRUE(ReplicationPool::instance()
                        .run_units(0, threads, 0, [&](int) { calls.fetch_add(1); })
                        .empty());
        EXPECT_EQ(calls.load(), 0) << threads;
    }
}

TEST(Runner, MoreThreadsThanWork) {
    const auto results = run_units(3, 16, [](int u) { return u * u; });
    EXPECT_EQ(results, (std::vector<int>{0, 1, 4}));
}

TEST(Runner, SingleRepAtManyThreads) {
    // One unit exercises the clamped pool path: one unit, one worker.
    EXPECT_EQ(run_units(1, 16, [](int u) { return u + 41; }), std::vector<int>{41});
}

TEST(Runner, PersistentPoolSurvivesManyCalls) {
    // Back-to-back calls reuse the shared pool's workers; every unit runs
    // exactly once, call after call.
    const auto unit = [](int u) { return 3 * u + 1; };
    const auto expected = run_units(10, 1, unit);
    for (int round = 0; round < 25; ++round) {
        EXPECT_EQ(expected, run_units(10, 4, unit)) << round;
    }
}

TEST(Runner, AtMostThreadsWorkersTakePart) {
    // Grow the pool past the request first, so idle workers are there to
    // be (wrongly) woken.
    EXPECT_EQ(run_units(8, 8, [](int u) { return u; }).size(), 8U);
    std::mutex mutex;
    std::set<std::thread::id> seen;
    EXPECT_TRUE(ReplicationPool::instance()
                    .run_units(64, 2, 0,
                               [&](int) {
                                   const std::lock_guard<std::mutex> lock{mutex};
                                   seen.insert(std::this_thread::get_id());
                               })
                    .empty());
    EXPECT_GE(seen.size(), 1U);
    EXPECT_LE(seen.size(), 2U);
}

TEST(Runner, PoolGrowsToTheLargestRequest) {
    auto& pool = ReplicationPool::instance();
    EXPECT_EQ(run_units(5, 5, [](int u) { return u; }).size(), 5U);
    const int grown = pool.stats().workers;
    EXPECT_GE(grown, 5);
    EXPECT_EQ(run_units(5, 2, [](int u) { return u; }).size(), 5U);
    EXPECT_EQ(pool.stats().workers, grown);  // never shrinks
}

TEST(Runner, StatsCountPooledAndInlineUnits) {
    // These totals feed the pool.* record counters: a serial dispatch runs
    // inline, a parallel one through the pool, and each is one run.
    auto& pool = ReplicationPool::instance();
    const auto before = pool.stats();
    EXPECT_EQ(run_units(6, 1, [](int u) { return u; }).size(), 6U);
    const auto serial = pool.stats();
    EXPECT_EQ(serial.runs - before.runs, 1);
    EXPECT_EQ(serial.units_inline - before.units_inline, 6);
    EXPECT_EQ(serial.units_pooled, before.units_pooled);
    EXPECT_EQ(run_units(9, 3, [](int u) { return u; }).size(), 9U);
    const auto pooled = pool.stats();
    EXPECT_EQ(pooled.runs - serial.runs, 1);
    EXPECT_EQ(pooled.units_pooled - serial.units_pooled, 9);
    EXPECT_EQ(pooled.units_inline, serial.units_inline);
    EXPECT_GE(pooled.worker_busy_seconds, serial.worker_busy_seconds);
    EXPECT_GE(pooled.workers, 3);
}

TEST(Runner, ConcurrentDispatchesBothComplete) {
    // Two threads dispatch at once: whichever finds the pool busy runs
    // inline, and each still runs every one of its units exactly once.
    std::vector<std::atomic<int>> first(40);
    std::vector<std::atomic<int>> second(40);
    const auto dispatch = [](std::vector<std::atomic<int>>& calls) {
        EXPECT_TRUE(ReplicationPool::instance()
                        .run_units(40, 4, 0,
                                   [&](int u) {
                                       calls[static_cast<std::size_t>(u)].fetch_add(1);
                                       std::this_thread::sleep_for(std::chrono::microseconds{20});
                                   })
                        .empty());
    };
    std::thread other{[&] { dispatch(second); }};
    dispatch(first);
    other.join();
    for (const auto& count : first) EXPECT_EQ(count.load(), 1);
    for (const auto& count : second) EXPECT_EQ(count.load(), 1);
}

TEST(Runner, NestedFailureStaysWithTheInnerDispatch) {
    // A failure inside a nested dispatch is returned to the unit that ran
    // it; the outer dispatch sees a healthy unit.
    std::atomic<int> inner_failures{0};
    const auto outer = ReplicationPool::instance().run_units(4, 4, 0, [&](int) {
        const auto inner = ReplicationPool::instance().run_units(3, 4, 0, [](int u) {
            if (u == 2) throw std::runtime_error("inner");
        });
        inner_failures.fetch_add(static_cast<int>(inner.size()));
    });
    EXPECT_TRUE(outer.empty());
    EXPECT_EQ(inner_failures.load(), 4);
}

TEST(Runner, NestedReplicationsRunInline) {
    // A unit that itself dispatches units must not deadlock on the shared
    // pool: the inner call detects the busy pool and runs inline.
    const auto results = run_units(6, 4, [](int) {
        int total = 0;
        for (const int v : run_units(4, 4, [](int u) { return u; })) total += v;
        return total;
    });
    EXPECT_EQ(results, std::vector<int>(6, 6));
}

/// Sets SMN_THREADS for one scope and restores the caller's value (or its
/// absence) on exit, so the suite's own SMN_THREADS survives this test.
class ScopedThreadsEnv {
public:
    ScopedThreadsEnv() {
        if (const char* value = std::getenv("SMN_THREADS")) saved_ = value;
    }
    ScopedThreadsEnv(const ScopedThreadsEnv&) = delete;
    ScopedThreadsEnv& operator=(const ScopedThreadsEnv&) = delete;
    ~ScopedThreadsEnv() {
        if (saved_) {
            setenv("SMN_THREADS", saved_->c_str(), 1);
        } else {
            unsetenv("SMN_THREADS");
        }
    }

private:
    std::optional<std::string> saved_;
};

TEST(Runner, SmnThreadsEnvironmentOverride) {
    const auto current = [] {
        const char* value = std::getenv("SMN_THREADS");
        return std::string{value != nullptr ? value : "<unset>"};
    };
    const std::string before = current();
    {
        const ScopedThreadsEnv restore;
        ASSERT_EQ(setenv("SMN_THREADS", "3", 1), 0);
        EXPECT_EQ(default_threads(), 3);
        // Out-of-range or junk values fall back to the hardware default.
        ASSERT_EQ(setenv("SMN_THREADS", "0", 1), 0);
        const int fallback = default_threads();
        EXPECT_GE(fallback, 1);
        ASSERT_EQ(setenv("SMN_THREADS", "lots", 1), 0);
        EXPECT_EQ(default_threads(), fallback);
        ASSERT_EQ(setenv("SMN_THREADS", "1025", 1), 0);  // above kMaxThreads
        EXPECT_EQ(default_threads(), fallback);
        ASSERT_EQ(setenv("SMN_THREADS", "1024", 1), 0);  // parsed only, no thread starts
        EXPECT_EQ(default_threads(), kMaxThreads);
        ASSERT_EQ(unsetenv("SMN_THREADS"), 0);
        EXPECT_GE(default_threads(), 1);
    }
    // The caller's setting (CI runs this suite at SMN_THREADS=4) survives,
    // so later pool tests keep running at it.
    EXPECT_EQ(current(), before);
}

}  // namespace
}  // namespace smn::sim
