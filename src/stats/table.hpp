// table.hpp — column-aligned tables for the examples, the perf tools and
// smn_lab's listings.
//
// A Table is a header row plus data rows, rendered either as aligned plain
// text (default, what the paper's tables would look like) or CSV (`--csv`
// flag in the harness). Cells are strings; numeric helpers format with
// sensible precision.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace smn::stats {

/// A printable table with fixed columns.
class Table {
public:
    explicit Table(std::vector<std::string> headers);

    /// Number of columns.
    [[nodiscard]] std::size_t columns() const noexcept { return headers_.size(); }
    [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

    /// Appends a row; must have exactly columns() cells.
    void add_row(std::vector<std::string> cells);

    /// Renders with aligned columns (right-aligned cells, two-space gutter).
    void print(std::ostream& os) const;

    /// Renders as CSV with RFC-4180 quoting: cells containing a comma,
    /// double quote, or newline are wrapped in double quotes (inner quotes
    /// doubled). `header = false` skips the header row, so several tables
    /// with identical columns can stream into one file.
    void print_csv(std::ostream& os, bool header = true) const;

    [[nodiscard]] const std::vector<std::string>& headers() const noexcept { return headers_; }
    [[nodiscard]] const std::vector<std::vector<std::string>>& data() const noexcept {
        return rows_;
    }

private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `digits` significant decimal digits.
[[nodiscard]] std::string fmt(double value, int digits = 4);

/// Formats an integer.
[[nodiscard]] std::string fmt(std::int64_t value);

/// Formats "mean ± err".
[[nodiscard]] std::string fmt_pm(double mean, double err, int digits = 4);

}  // namespace smn::stats
