// util_test.cpp — the fail-point harness and the exact double text
// round-trip of number.hpp.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/failpoint.hpp"
#include "util/number.hpp"

namespace smn::util {
namespace {

/// Disarms every site when the test ends, so failpoint state never leaks
/// into unrelated tests in the same process.
class FailPointTest : public ::testing::Test {
protected:
    void TearDown() override { FailPoints::instance().configure(""); }
};

TEST_F(FailPointTest, UnarmedSiteNeverFires) {
    FailPoints::instance().configure("");
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(failpoint_fires("nonexistent_site"));
        EXPECT_NO_THROW(failpoint("nonexistent_site"));
    }
}

TEST_F(FailPointTest, ProbabilityOneAlwaysThrows) {
    FailPoints::instance().configure("always=1@3");
    EXPECT_THROW(failpoint("always"), InjectedFault);
    EXPECT_THROW(failpoint("always"), InjectedFault);
    EXPECT_NO_THROW(failpoint("other_site"));  // only the named site is armed
}

TEST_F(FailPointTest, ProbabilityZeroNeverFires) {
    FailPoints::instance().configure("never=0@3");
    for (int i = 0; i < 100; ++i) EXPECT_FALSE(failpoint_fires("never"));
}

TEST_F(FailPointTest, DecisionSequenceIsDeterministic) {
    FailPoints::instance().configure("coin=0.5@12345");
    std::vector<bool> first;
    for (int i = 0; i < 64; ++i) first.push_back(failpoint_fires("coin"));
    // Re-arming resets the evaluation counter: same seed ⇒ same sequence.
    FailPoints::instance().configure("coin=0.5@12345");
    for (int i = 0; i < 64; ++i) EXPECT_EQ(failpoint_fires("coin"), first[static_cast<std::size_t>(i)]);
    // A different seed produces a different sequence (overwhelmingly).
    FailPoints::instance().configure("coin=0.5@999");
    std::vector<bool> reseeded;
    for (int i = 0; i < 64; ++i) reseeded.push_back(failpoint_fires("coin"));
    EXPECT_NE(first, reseeded);
}

TEST_F(FailPointTest, ApproximatesConfiguredProbability) {
    FailPoints::instance().configure("rare=0.1@77");
    int fired = 0;
    for (int i = 0; i < 2000; ++i) fired += failpoint_fires("rare") ? 1 : 0;
    EXPECT_GT(fired, 100);  // ~200 expected; bounds are > 6 sigma out
    EXPECT_LT(fired, 350);
}

TEST_F(FailPointTest, InjectedFaultIsARuntimeError) {
    FailPoints::instance().configure("site=1@0");
    // Injected faults must travel the same error paths real ones do.
    EXPECT_THROW(failpoint("site"), std::runtime_error);
}

TEST_F(FailPointTest, MultipleSitesAreIndependent) {
    FailPoints::instance().configure("a=1@1,b=0@1");
    EXPECT_TRUE(failpoint_fires("a"));
    EXPECT_FALSE(failpoint_fires("b"));
}

TEST_F(FailPointTest, MalformedSpecsRejected) {
    auto& fp = FailPoints::instance();
    EXPECT_THROW(fp.configure("noequals"), std::invalid_argument);
    EXPECT_THROW(fp.configure("site=0.5"), std::invalid_argument);       // missing @seed
    EXPECT_THROW(fp.configure("site=abc@1"), std::invalid_argument);     // bad probability
    EXPECT_THROW(fp.configure("site=0.5@x"), std::invalid_argument);     // bad seed
    EXPECT_THROW(fp.configure("site=1@0:explode"), std::invalid_argument);  // bad action
    EXPECT_THROW(fp.configure("a=1@0,a=1@0"), std::invalid_argument);    // duplicate site
}


// --------------------------------------------------- double round-trip

struct NamedDouble {
    const char* name;
    double value;
};

class DoubleRoundTrip : public ::testing::TestWithParam<NamedDouble> {};

// The journal's replay promise: a value that travels through the text
// form comes back with the same bits and re-renders to the same bytes.
TEST_P(DoubleRoundTrip, RenderThenParseIsExact) {
    const double value = GetParam().value;
    const auto text = render_double(value);
    double parsed = 0.0;
    ASSERT_TRUE(parse_double(text, parsed)) << text;
    if (std::isnan(value)) {
        EXPECT_TRUE(std::isnan(parsed)) << text;
    } else {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed), std::bit_cast<std::uint64_t>(value))
            << text;
    }
    EXPECT_EQ(render_double(parsed), text);
}

INSTANTIATE_TEST_SUITE_P(
    Values, DoubleRoundTrip,
    ::testing::Values(
        NamedDouble{"Zero", 0.0},
        NamedDouble{"NegativeZero", -0.0},
        NamedDouble{"One", 1.0},
        NamedDouble{"PointOnePlusPointTwo", 0.1 + 0.2},
        NamedDouble{"OneThird", 1.0 / 3.0},
        NamedDouble{"Avogadro", 6.02214076e23},
        NamedDouble{"NegativeDecimal", -123.456},
        NamedDouble{"AboveTwoToThe53", 9007199254740994.0},
        NamedDouble{"MinSubnormal", std::numeric_limits<double>::denorm_min()},
        NamedDouble{"NegativeMinSubnormal", -std::numeric_limits<double>::denorm_min()},
        NamedDouble{"MinNormal", std::numeric_limits<double>::min()},
        NamedDouble{"Max", std::numeric_limits<double>::max()},
        NamedDouble{"Infinity", std::numeric_limits<double>::infinity()},
        NamedDouble{"NegativeInfinity", -std::numeric_limits<double>::infinity()},
        NamedDouble{"NaN", std::numeric_limits<double>::quiet_NaN()}),
    [](const auto& info) { return std::string{info.param.name}; });

struct NamedToken {
    const char* name;
    const char* text;
};

class DoubleParseRejects : public ::testing::TestWithParam<NamedToken> {};

// A token must be consumed whole: a prefix that happens to parse is not
// the value the writer rendered.
TEST_P(DoubleParseRejects, PartialOrEmptyToken) {
    double out = 0.0;
    EXPECT_FALSE(parse_double(GetParam().text, out)) << '"' << GetParam().text << '"';
}

INSTANTIATE_TEST_SUITE_P(
    Tokens, DoubleParseRejects,
    ::testing::Values(NamedToken{"Empty", ""},
                      NamedToken{"Word", "x"},
                      NamedToken{"TrailingLetter", "1x"},
                      NamedToken{"TrailingSpace", "1 "},
                      NamedToken{"BareExponent", "1e"},
                      NamedToken{"DoubleSign", "--1"},
                      NamedToken{"DecimalComma", "1,5"},
                      NamedToken{"TwoPoints", "1.2.3"},
                      NamedToken{"LonePoint", "."},
                      NamedToken{"UnclosedNanPayload", "nan("}),
    [](const auto& info) { return std::string{info.param.name}; });

}  // namespace
}  // namespace smn::util
