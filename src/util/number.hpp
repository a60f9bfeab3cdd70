// number.hpp — exact text round-trip for doubles.
//
// The sweep journal (io/journal.cpp) carries per-replication metric
// doubles as text and promises that a value that travels through the
// text form re-serializes to the exact bytes the original producer would
// have written, so replayed units keep merged JSONL output byte-identical.
// That holds because the encoding is shortest round-trip via
// std::to_chars, parsed back with a full-consumption strtod. (The JSONL
// writer's exp::format_double is intentionally separate: JSON cannot
// represent nan/inf, so the writer maps them to null.)
#pragma once

#include <charconv>
#include <cstdlib>
#include <string>
#include <string_view>

namespace smn::util {

/// Shortest decimal rendering that parses back to the exact same bits.
[[nodiscard]] inline std::string render_double(double value) {
    char buf[32];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value);
    if (ec != std::errc{}) return "0";
    return std::string(buf, ptr);
}

/// Parses a double, demanding the whole token is consumed. Returns false
/// on empty input, trailing garbage, or no conversion ("nan"/"inf" parse,
/// matching what render_double can emit).
[[nodiscard]] inline bool parse_double(std::string_view text, double& out) {
    if (text.empty()) return false;
    const std::string owned{text};  // strtod needs a terminator
    char* end = nullptr;
    out = std::strtod(owned.c_str(), &end);
    return end == owned.c_str() + owned.size();
}

}  // namespace smn::util
