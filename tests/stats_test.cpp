// stats_test.cpp — RunningStats, Sample, regression, table formatting.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "rng/rng.hpp"
#include "stats/regression.hpp"
#include "stats/running_stats.hpp"
#include "stats/table.hpp"

namespace smn::stats {
namespace {

// ------------------------------------------------------------ RunningStats

TEST(RunningStats, EmptyStateIsSane) {
    RunningStats s;
    EXPECT_EQ(s.count(), 0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_TRUE(std::isnan(s.min()));
    EXPECT_TRUE(std::isnan(s.max()));
}

TEST(RunningStats, KnownMoments) {
    RunningStats s;
    for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
    EXPECT_EQ(s.count(), 8);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, SingleObservation) {
    RunningStats s;
    s.add(42.0);
    EXPECT_DOUBLE_EQ(s.mean(), 42.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.stderr_mean(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
    rng::Rng rng{1};
    RunningStats whole;
    RunningStats part1;
    RunningStats part2;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(-5.0, 11.0);
        whole.add(x);
        (i % 3 == 0 ? part1 : part2).add(x);
    }
    part1.merge(part2);
    EXPECT_EQ(part1.count(), whole.count());
    EXPECT_NEAR(part1.mean(), whole.mean(), 1e-10);
    EXPECT_NEAR(part1.variance(), whole.variance(), 1e-8);
    EXPECT_DOUBLE_EQ(part1.min(), whole.min());
    EXPECT_DOUBLE_EQ(part1.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty) {
    RunningStats a;
    RunningStats b;
    a.add(1.0);
    a.add(3.0);
    a.merge(b);  // no-op
    EXPECT_EQ(a.count(), 2);
    b.merge(a);  // copies
    EXPECT_EQ(b.count(), 2);
    EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

// ----------------------------------------------------------------- Sample

TEST(Sample, QuantilesOfKnownData) {
    Sample s;
    for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
    EXPECT_NEAR(s.median(), 50.5, 1e-12);
    EXPECT_NEAR(s.quantile(0.25), 25.75, 1e-12);
}

TEST(Sample, MedianOddAndEven) {
    Sample odd;
    for (const double x : {3.0, 1.0, 2.0}) odd.add(x);
    EXPECT_DOUBLE_EQ(odd.median(), 2.0);
    Sample even;
    for (const double x : {4.0, 1.0, 3.0, 2.0}) even.add(x);
    EXPECT_DOUBLE_EQ(even.median(), 2.5);
}

// Regression: quantile()/median() used to sort values_ in place, so
// values() silently flipped from replication order to sorted order after
// any quantile query. Order statistics now sort a separate buffer.
TEST(Sample, ValuesKeepInsertionOrderAfterMedian) {
    Sample s;
    const std::vector<double> inserted{5.0, 1.0, 4.0, 2.0, 3.0};
    for (const double x : inserted) s.add(x);
    EXPECT_DOUBLE_EQ(s.median(), 3.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.25), 2.0);
    const auto values = s.values();
    ASSERT_EQ(values.size(), inserted.size());
    for (std::size_t i = 0; i < inserted.size(); ++i) {
        EXPECT_DOUBLE_EQ(values[i], inserted[i]) << i;
    }
    // Interleaved add() calls keep both views consistent.
    s.add(0.5);
    EXPECT_DOUBLE_EQ(s.min(), 0.5);
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.5);
    EXPECT_DOUBLE_EQ(s.values().back(), 0.5);
}

TEST(Sample, AddAfterQuantileStillWorks) {
    Sample s;
    s.add(1.0);
    s.add(5.0);
    EXPECT_DOUBLE_EQ(s.median(), 3.0);
    s.add(9.0);
    EXPECT_DOUBLE_EQ(s.median(), 5.0);
}

// -------------------------------------------------------------- regression

TEST(Regression, PerfectLine) {
    const std::vector<double> xs{1, 2, 3, 4, 5};
    const std::vector<double> ys{3, 5, 7, 9, 11};  // y = 1 + 2x
    const auto fit = linear_fit(xs, ys);
    EXPECT_NEAR(fit.slope, 2.0, 1e-12);
    EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
    EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
    EXPECT_NEAR(fit.slope_stderr, 0.0, 1e-9);
}

TEST(Regression, NoisyLineRecoversSlope) {
    rng::Rng rng{2};
    std::vector<double> xs;
    std::vector<double> ys;
    for (int i = 0; i < 200; ++i) {
        const double x = static_cast<double>(i) / 10.0;
        xs.push_back(x);
        ys.push_back(-3.0 + 0.5 * x + rng.uniform(-0.1, 0.1));
    }
    const auto fit = linear_fit(xs, ys);
    EXPECT_NEAR(fit.slope, 0.5, 0.01);
    EXPECT_NEAR(fit.intercept, -3.0, 0.05);
    EXPECT_GT(fit.r_squared, 0.99);
}

TEST(Regression, DegenerateInputs) {
    const std::vector<double> one{1.0};
    EXPECT_EQ(linear_fit(one, one).n, 1);
    EXPECT_DOUBLE_EQ(linear_fit(one, one).slope, 0.0);
    const std::vector<double> xs{2.0, 2.0, 2.0};
    const std::vector<double> ys{1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(linear_fit(xs, ys).slope, 0.0);  // zero x-spread
}

TEST(Regression, LogLogRecoversPowerLaw) {
    // y = 7 · x^{-0.5}, the paper's headline exponent.
    std::vector<double> xs;
    std::vector<double> ys;
    for (const double x : {2.0, 4.0, 8.0, 16.0, 32.0, 64.0}) {
        xs.push_back(x);
        ys.push_back(7.0 * std::pow(x, -0.5));
    }
    const auto fit = loglog_fit(xs, ys);
    EXPECT_NEAR(fit.slope, -0.5, 1e-10);
    EXPECT_NEAR(std::exp(fit.intercept), 7.0, 1e-9);
    EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Regression, LogRmsCenteredIgnoresConstantFactor) {
    // pred = 10 × obs: shape identical, so centered log-RMS is 0.
    const std::vector<double> obs{1.0, 2.0, 4.0, 8.0};
    std::vector<double> pred;
    for (const double o : obs) pred.push_back(10.0 * o);
    EXPECT_NEAR(log_rms_error_centered(obs, pred), 0.0, 1e-12);
}

TEST(Regression, LogRmsDetectsShapeMismatch) {
    // obs ~ x^{-1/2} vs pred ~ x^{-1}: clear positive error.
    std::vector<double> obs;
    std::vector<double> pred;
    for (const double x : {2.0, 4.0, 8.0, 16.0, 32.0}) {
        obs.push_back(std::pow(x, -0.5));
        pred.push_back(std::pow(x, -1.0));
    }
    EXPECT_GT(log_rms_error_centered(obs, pred), 0.3);
}

// ------------------------------------------------------------------- table

TEST(Table, RejectsMismatchedRow) {
    Table t{{"a", "b"}};
    EXPECT_THROW(t.add_row({"1"}), std::invalid_argument);
    EXPECT_THROW(Table{std::vector<std::string>{}}, std::invalid_argument);
}

TEST(Table, PrintsAlignedColumns) {
    Table t{{"k", "T_B"}};
    t.add_row({"4", "1000"});
    t.add_row({"16", "500"});
    std::ostringstream os;
    t.print(os);
    const auto out = os.str();
    EXPECT_NE(out.find("k"), std::string::npos);
    EXPECT_NE(out.find("T_B"), std::string::npos);
    EXPECT_NE(out.find("1000"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, PrintsCsv) {
    Table t{{"k", "tb"}};
    t.add_row({"4", "1000"});
    std::ostringstream os;
    t.print_csv(os);
    EXPECT_EQ(os.str(), "k,tb\n4,1000\n");
}

TEST(Table, CsvEmptyTableIsHeaderOnly) {
    Table t{{"k", "tb"}};
    std::ostringstream os;
    t.print_csv(os);
    EXPECT_EQ(os.str(), "k,tb\n");
    std::ostringstream headerless;
    t.print_csv(headerless, /*header=*/false);
    EXPECT_EQ(headerless.str(), "");
}

TEST(Table, CsvSingleRowAndSingleColumn) {
    Table t{{"only"}};
    t.add_row({"value"});
    std::ostringstream os;
    t.print_csv(os);
    EXPECT_EQ(os.str(), "only\nvalue\n");
}

TEST(Table, CsvQuotesCommasQuotesAndNewlines) {
    Table t{{"plain", "with,comma"}};
    t.add_row({"say \"hi\"", "two\nlines"});
    t.add_row({"-", "clean"});
    std::ostringstream os;
    t.print_csv(os);
    EXPECT_EQ(os.str(),
              "plain,\"with,comma\"\n"
              "\"say \"\"hi\"\"\",\"two\nlines\"\n"
              "-,clean\n");
}

TEST(Table, CsvHeaderSuppressionStreamsTables) {
    Table t{{"a", "b"}};
    t.add_row({"1", "2"});
    std::ostringstream os;
    t.print_csv(os);
    t.print_csv(os, /*header=*/false);
    EXPECT_EQ(os.str(), "a,b\n1,2\n1,2\n");
}

TEST(Table, Formatters) {
    EXPECT_EQ(fmt(std::int64_t{42}), "42");
    EXPECT_EQ(fmt(3.14159, 3), "3.14");
    const auto pm = fmt_pm(10.0, 0.5, 4);
    EXPECT_NE(pm.find("10"), std::string::npos);
    EXPECT_NE(pm.find("±"), std::string::npos);
}

}  // namespace
}  // namespace smn::stats
