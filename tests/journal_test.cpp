// journal_test.cpp — the sweep journal behind --journal/--resume.
//
// The resume contract: a journal written by a (possibly crashed) sweep
// replays exactly the units that completed — fingerprint-verified so it
// can never be merged into a different experiment, torn-final-line
// tolerant because a crash can interrupt an append mid-line, and
// round-trip exact so merged JSONL output is byte-identical to an
// uninterrupted run.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "io/journal.hpp"
#include "util/failpoint.hpp"

namespace smn::io {
namespace {

class TempFile {
public:
    explicit TempFile(const std::string& tag) {
        static int counter = 0;
        path_ = (std::filesystem::temp_directory_path() /
                 ("smn_journal_test_" + std::to_string(::getpid()) + "_" + tag + "_" +
                  std::to_string(counter++)))
                    .string();
    }
    ~TempFile() {
        std::error_code ec;
        std::filesystem::remove(path_, ec);
    }
    [[nodiscard]] const std::string& path() const noexcept { return path_; }

private:
    std::string path_;
};

std::string slurp(const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

const std::vector<std::pair<std::string, std::string>> kScenarios = {
    {"grid_broadcast", "side=16,24;k=8"}, {"gossip", "side=12;k=6"}};

// ------------------------------------------------------- fingerprint

TEST(SweepFingerprint, SensitiveToEveryInput) {
    const auto base = sweep_fingerprint(1, 8, kScenarios, "abc123");
    EXPECT_EQ(sweep_fingerprint(1, 8, kScenarios, "abc123"), base);  // deterministic
    EXPECT_NE(sweep_fingerprint(2, 8, kScenarios, "abc123"), base);  // seed
    EXPECT_NE(sweep_fingerprint(1, 9, kScenarios, "abc123"), base);  // reps
    EXPECT_NE(sweep_fingerprint(1, 8, kScenarios, "def456"), base);  // build
    auto renamed = kScenarios;
    renamed[0].first = "torus_broadcast";
    EXPECT_NE(sweep_fingerprint(1, 8, renamed, "abc123"), base);  // scenario name
    auto resized = kScenarios;
    resized[1].second = "side=12;k=7";
    EXPECT_NE(sweep_fingerprint(1, 8, resized, "abc123"), base);  // sweep text
}

// ------------------------------------------------- record and replay

TEST(SweepJournal, RecordsAreVisibleAfterReopen) {
    TempFile file{"reopen"};
    const auto fp = sweep_fingerprint(7, 4, kScenarios, "sha");
    JournalUnit unit;
    unit.metrics = {{"broadcast_time", 321.0}, {"steps", 321.0}};
    unit.wall_seconds = 0.25;
    {
        SweepJournal journal{file.path(), fp, /*resume=*/false};
        EXPECT_EQ(journal.replayed(), 0u);
        EXPECT_EQ(journal.find("grid_broadcast", 0), nullptr);
        journal.record("grid_broadcast", 0, unit);
        journal.record("grid_broadcast", 3, unit);
        journal.sync();
        // Recorded units are immediately findable in the same session.
        ASSERT_NE(journal.find("grid_broadcast", 0), nullptr);
    }
    SweepJournal resumed{file.path(), fp, /*resume=*/true};
    EXPECT_EQ(resumed.replayed(), 2u);
    const auto* found = resumed.find("grid_broadcast", 3);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->metrics, unit.metrics);
    EXPECT_EQ(found->wall_seconds, unit.wall_seconds);
    EXPECT_EQ(resumed.find("grid_broadcast", 1), nullptr);
    EXPECT_EQ(resumed.find("gossip", 0), nullptr);  // scenario-scoped
}

TEST(SweepJournal, IoSecondsCountAppendsAndSync) {
    // The journal's own cost, as the timing record reports it: the header
    // written at open is not part of a sweep; every append and fsync is.
    TempFile file{"io_time"};
    SweepJournal journal{file.path(), sweep_fingerprint(3, 2, kScenarios, "sha"),
                         /*resume=*/false};
    EXPECT_EQ(journal.io_seconds(), 0.0);
    JournalUnit unit;
    unit.metrics = {{"steps", 10.0}};
    journal.record("gossip", 0, unit);
    const double after_append = journal.io_seconds();
    EXPECT_GT(after_append, 0.0);
    journal.sync();
    EXPECT_GT(journal.io_seconds(), after_append);
}

TEST(SweepJournal, MetricDoublesRoundTripExactly) {
    TempFile file{"exact"};
    const auto fp = sweep_fingerprint(1, 1, kScenarios, "sha");
    // Values with no short decimal representation must replay to the
    // exact same bits — that is what makes resumed JSONL byte-identical.
    JournalUnit unit;
    unit.metrics = {{"a", 0.1 + 0.2},
                    {"b", 1.0 / 3.0},
                    {"c", 6.02214076e23},
                    {"d", -4.9e-324},  // min subnormal
                    {"e", 12345678901234567.0}};
    unit.wall_seconds = 1e-9;
    {
        SweepJournal journal{file.path(), fp, false};
        journal.record("gossip", 2, unit);
    }
    SweepJournal resumed{file.path(), fp, true};
    const auto* found = resumed.find("gossip", 2);
    ASSERT_NE(found, nullptr);
    for (const auto& [name, value] : unit.metrics) {
        ASSERT_TRUE(found->metrics.count(name)) << name;
        EXPECT_EQ(found->metrics.at(name), value) << name;  // bitwise, not approx
    }
}

TEST(SweepJournal, ConcurrentRecordsAllSurvive) {
    TempFile file{"concurrent"};
    const auto fp = sweep_fingerprint(3, 64, kScenarios, "sha");
    {
        SweepJournal journal{file.path(), fp, false};
        std::vector<std::thread> writers;
        for (int w = 0; w < 4; ++w) {
            writers.emplace_back([&journal, w] {
                for (int i = 0; i < 16; ++i) {
                    JournalUnit unit;
                    unit.metrics["value"] = static_cast<double>(w * 16 + i);
                    journal.record("grid_broadcast", w * 16 + i, unit);
                }
            });
        }
        for (auto& t : writers) t.join();
    }
    SweepJournal resumed{file.path(), fp, true};
    EXPECT_EQ(resumed.replayed(), 64u);
    for (int u = 0; u < 64; ++u) {
        const auto* found = resumed.find("grid_broadcast", u);
        ASSERT_NE(found, nullptr) << "unit " << u;
        EXPECT_EQ(found->metrics.at("value"), static_cast<double>(u));
    }
}

// ------------------------------------------------------- resilience

TEST(SweepJournal, TornFinalLineIsDiscardedAndTruncated) {
    TempFile file{"torn"};
    const auto fp = sweep_fingerprint(5, 2, kScenarios, "sha");
    JournalUnit unit;
    unit.metrics["m"] = 1.0;
    {
        SweepJournal journal{file.path(), fp, false};
        journal.record("gossip", 0, unit);
        journal.record("gossip", 1, unit);
    }
    // Simulate a crash mid-append: chop the file inside the final line.
    auto content = slurp(file.path());
    const auto cut = content.size() - 7;
    std::ofstream{file.path(), std::ios::binary | std::ios::trunc}
        << content.substr(0, cut);

    SweepJournal resumed{file.path(), fp, true};
    EXPECT_EQ(resumed.replayed(), 1u);  // only the complete line survives
    EXPECT_NE(resumed.find("gossip", 0), nullptr);
    EXPECT_EQ(resumed.find("gossip", 1), nullptr);
    // The torn fragment was truncated away, so a new append starts clean.
    resumed.record("gossip", 1, unit);
    resumed.sync();
    SweepJournal again{file.path(), fp, true};
    EXPECT_EQ(again.replayed(), 2u);
}

TEST(SweepJournal, FingerprintMismatchRefusesResume) {
    TempFile file{"mismatch"};
    { SweepJournal journal{file.path(), 0x1111111111111111ULL, false}; }
    try {
        SweepJournal journal{file.path(), 0x2222222222222222ULL, true};
        FAIL() << "fingerprint mismatch accepted";
    } catch (const JournalError& err) {
        EXPECT_NE(std::string{err.what()}.find("fingerprint"), std::string::npos);
    }
}

TEST(SweepJournal, MissingFileRefusesResume) {
    TempFile file{"missing"};
    EXPECT_THROW((SweepJournal{file.path(), 1, true}), JournalError);
}

TEST(SweepJournal, MalformedMidFileLineIsAHardError) {
    TempFile file{"malformed"};
    const auto fp = sweep_fingerprint(5, 2, kScenarios, "sha");
    JournalUnit unit;
    unit.metrics["m"] = 1.0;
    { SweepJournal j{file.path(), fp, false}; j.record("gossip", 0, unit); }
    // Corruption *before* the final line is not a crash signature — it
    // means the file is damaged, and silently skipping records would
    // silently change results.
    std::ofstream{file.path(), std::ios::app} << "garbage line\n";
    {
        std::ofstream app{file.path(), std::ios::app};
        app << "unit gossip 1 wall=0 m=2\n";
    }
    EXPECT_THROW((SweepJournal{file.path(), fp, true}), JournalError);
}

// ------------------------------------------------ malformed-line corpus

// Every way a record line can break the grammar
//   unit <scenario> <index> wall=<double> <name>=<double> ...
// One good record sits in front of the bad line, so a resume that
// silently skipped the line would still find a unit to replay.
struct BadRecord {
    const char* name;
    const char* line;
};

void PrintTo(const BadRecord& bad, std::ostream* os) { *os << bad.name; }

const BadRecord kBadRecords[] = {
    {"EmptyLine", ""},
    {"WrongKeyword", "record gossip 1 wall=0 m=1"},
    {"KeywordCase", "Unit gossip 1 wall=0 m=1"},
    {"KeywordOnly", "unit"},
    {"MissingIndex", "unit gossip"},
    {"NonNumericIndex", "unit gossip x wall=0"},
    {"NegativeIndex", "unit gossip -1 wall=0"},
    {"SignedIndex", "unit gossip +1 wall=0"},
    {"FractionalIndex", "unit gossip 1.5 wall=0"},
    {"OverflowingIndex", "unit gossip 99999999999 wall=0"},
    {"MissingWall", "unit gossip 1 m=1"},
    {"EmptyWallValue", "unit gossip 1 wall= m=1"},
    {"NonNumericValue", "unit gossip 1 wall=0 m=abc"},
    {"TrailingGarbageValue", "unit gossip 1 wall=0 m=1x"},
    {"FieldWithoutEquals", "unit gossip 1 wall=0 m"},
    {"EmptyMetricName", "unit gossip 1 wall=0 =1"},
    {"DoubleSpace", "unit gossip 1 wall=0  m=1"},
};

enum class Placement { kMidFile, kFinalLine, kTornTail };

void PrintTo(Placement where, std::ostream* os) {
    *os << (where == Placement::kMidFile ? "MidFile"
            : where == Placement::kFinalLine ? "FinalLine"
                                               : "TornTail");
}

constexpr std::uint64_t kCorpusFingerprint = 0x00C0FFEE00C0FFEEULL;

/// Writes a header, one good unit (gossip 0), then `bad` placed per `where`.
void write_corpus_journal(const std::string& path, const char* bad, Placement where) {
    { SweepJournal journal{path, kCorpusFingerprint, /*resume=*/false}; }
    std::ofstream app{path, std::ios::app | std::ios::binary};
    app << "unit gossip 0 wall=0.5 m=1\n";
    switch (where) {
        case Placement::kMidFile: app << bad << "\nunit gossip 2 wall=0 m=3\n"; break;
        case Placement::kFinalLine: app << bad << '\n'; break;
        case Placement::kTornTail: app << bad; break;
    }
}

class MalformedRecord
    : public ::testing::TestWithParam<std::tuple<BadRecord, Placement>> {};

// Corruption before the final newline is damage, not a crash signature:
// resuming would silently change results, so it must refuse.
TEST_P(MalformedRecord, CompleteLineIsAHardError) {
    const auto& [bad, where] = GetParam();
    TempFile file{"corpus"};
    write_corpus_journal(file.path(), bad.line, where);
    EXPECT_THROW((SweepJournal{file.path(), kCorpusFingerprint, true}), JournalError)
        << bad.line;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, MalformedRecord,
    ::testing::Combine(::testing::ValuesIn(kBadRecords),
                       ::testing::Values(Placement::kMidFile, Placement::kFinalLine)),
    [](const auto& info) {
        return std::string{std::get<0>(info.param).name} +
               (std::get<1>(info.param) == Placement::kMidFile ? "_MidFile" : "_FinalLine");
    });

class TornRecord : public ::testing::TestWithParam<BadRecord> {};

// A crash can stop an append after any byte, so a tail with no newline
// is discarded whatever it holds; the good unit in front of it replays
// and the next append starts on a fresh line.
TEST_P(TornRecord, UnterminatedTailIsDiscarded) {
    TempFile file{"torn_corpus"};
    write_corpus_journal(file.path(), GetParam().line, Placement::kTornTail);
    {
        SweepJournal resumed{file.path(), kCorpusFingerprint, true};
        EXPECT_EQ(resumed.replayed(), 1u);
        ASSERT_NE(resumed.find("gossip", 0), nullptr);
        EXPECT_EQ(resumed.find("gossip", 0)->wall_seconds, 0.5);
        JournalUnit unit;
        unit.metrics["m"] = 2.0;
        resumed.record("gossip", 1, unit);
    }
    SweepJournal again{file.path(), kCorpusFingerprint, true};
    EXPECT_EQ(again.replayed(), 2u);
    ASSERT_NE(again.find("gossip", 1), nullptr);
    EXPECT_EQ(again.find("gossip", 1)->metrics.at("m"), 2.0);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, TornRecord, ::testing::ValuesIn(kBadRecords),
    [](const auto& info) { return std::string{info.param.name}; });

// Header lines that must not be taken for a v1 journal whose fingerprint
// is 0x0000000000000001.
struct BadHeader {
    const char* name;
    const char* line;
};

void PrintTo(const BadHeader& bad, std::ostream* os) { *os << bad.name; }

class MalformedHeader : public ::testing::TestWithParam<BadHeader> {};

TEST_P(MalformedHeader, IsRejectedAtResume) {
    TempFile file{"header"};
    std::ofstream{file.path(), std::ios::trunc | std::ios::binary}
        << GetParam().line << "\nunit gossip 0 wall=0 m=1\n";
    EXPECT_THROW((SweepJournal{file.path(), 1, true}), JournalError) << GetParam().line;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, MalformedHeader,
    ::testing::Values(
        BadHeader{"Empty", ""},
        BadHeader{"WrongVersion", "smn-sweep-journal v2 fingerprint=0000000000000001"},
        BadHeader{"WrongCase", "SMN-SWEEP-JOURNAL v1 fingerprint=0000000000000001"},
        BadHeader{"ShortFingerprint", "smn-sweep-journal v1 fingerprint=1"},
        BadHeader{"LongFingerprint", "smn-sweep-journal v1 fingerprint=00000000000000001"},
        BadHeader{"NonHexFingerprint", "smn-sweep-journal v1 fingerprint=000000000000000g"},
        BadHeader{"SignedFingerprint", "smn-sweep-journal v1 fingerprint=+000000000000001"},
        BadHeader{"TrailingSpace", "smn-sweep-journal v1 fingerprint=0000000000000001 "}),
    [](const auto& info) { return std::string{info.param.name}; });

TEST(SweepJournal, NotAJournalRejected) {
    TempFile file{"notjournal"};
    std::ofstream{file.path(), std::ios::trunc} << "{\"schema\":1}\n{\"x\":2}\n";
    EXPECT_THROW((SweepJournal{file.path(), 1, true}), JournalError);
}

TEST(SweepJournal, UnrepresentableNamesRejectedAtRecordTime) {
    TempFile file{"badnames"};
    SweepJournal journal{file.path(), 1, false};
    JournalUnit unit;
    unit.metrics["has space"] = 1.0;
    EXPECT_THROW(journal.record("gossip", 0, unit), JournalError);
    unit.metrics.clear();
    unit.metrics["has=eq"] = 1.0;
    EXPECT_THROW(journal.record("gossip", 1, unit), JournalError);
    unit.metrics.clear();
    EXPECT_THROW(journal.record("bad scenario", 2, unit), JournalError);
}

TEST(SweepJournal, AppendFailPointSurfacesAsInjectedFault) {
    TempFile file{"fp_append"};
    SweepJournal journal{file.path(), 1, false};
    util::FailPoints::instance().configure("journal_append=1@0");
    JournalUnit unit;
    EXPECT_THROW(journal.record("gossip", 0, unit), util::InjectedFault);
    util::FailPoints::instance().configure("");
    // The failed append wrote nothing: the unit is absent, not torn.
    journal.record("gossip", 0, unit);
    journal.sync();
    SweepJournal resumed{file.path(), 1, true};
    EXPECT_EQ(resumed.replayed(), 1u);
}

TEST(SweepJournal, ShortWritesAreRetriedToCompletion) {
    // The journal_short_write fail point forces the first ::write of each
    // line (header and records alike) to land a single byte; without the
    // retry loop the header or record would be torn and the resume below
    // would see a corrupt journal.
    TempFile file{"fp_short"};
    util::FailPoints::instance().configure("journal_short_write=1@0");
    JournalUnit unit;
    unit.metrics = {{"broadcast_time", 12.5}, {"steps", 321.0}};
    unit.wall_seconds = 0.125;
    {
        SweepJournal journal{file.path(), 42, false};  // header write is split too
        journal.record("gossip", 0, unit);
        journal.record("gossip", 1, unit);
        journal.sync();
    }
    util::FailPoints::instance().configure("");
    SweepJournal resumed{file.path(), 42, true};
    EXPECT_EQ(resumed.replayed(), 2u);
    const auto* found = resumed.find("gossip", 1);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->metrics, unit.metrics);
    EXPECT_EQ(found->wall_seconds, unit.wall_seconds);
}

}  // namespace
}  // namespace smn::io
