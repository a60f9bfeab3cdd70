// colocation_table.hpp — stamped node table for co-location passes.
//
// At r = 0 (the regime of Sec. 3.1's upper bound) two agents communicate
// iff they share a node. The visibility builder's component pass (at every
// radius: at r >= 1 a node's first agent stands for the node) and the
// standalone models' flood (models::ColocationBroadcast) both run on this
// table: one 64-bit slot per node, (pass stamp << 32) | payload, the payload
// being the node's first agent in that pass plus a flag bit. A slot stamped by
// another pass reads as empty, so no pass resets what it wrote. When the
// stamp would wrap, begin_pass() zeroes the table and restarts at 1; a
// narrower `Stamp` than the library's 32 bits makes that reachable in tests.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "grid/grid.hpp"

namespace smn::spatial {

/// Sentinel for "no agent".
inline constexpr std::int32_t kNone = -1;

template <std::unsigned_integral Stamp>
    requires(sizeof(Stamp) <= 4)
class BasicColocationTable {
public:
    /// One pass over the table. Holds the slots and the shifted stamp by
    /// value, so a pass loop keeps both in registers.
    class Pass {
    public:
        /// First agent that claimed `node` in this pass; if none has,
        /// `agent` (>= 0) claims it and kNone is returned.
        std::int32_t claim(grid::NodeId node, std::int32_t agent) const noexcept {
            auto& slot = slots_[static_cast<std::size_t>(node)];
            if ((slot >> 32) == (tag_ >> 32)) return static_cast<std::int32_t>(slot & kAgentMask);
            slot = tag_ | static_cast<std::uint32_t>(agent);
            return kNone;
        }

        /// First agent that claimed `node` in this pass, or kNone; claims
        /// nothing.
        [[nodiscard]] std::int32_t first(grid::NodeId node) const noexcept {
            const auto slot = slots_[static_cast<std::size_t>(node)];
            return (slot >> 32) == (tag_ >> 32) ? static_cast<std::int32_t>(slot & kAgentMask)
                                                : kNone;
        }

        /// Sets the flag of a node claimed in this pass.
        void flag(grid::NodeId node) const noexcept {
            slots_[static_cast<std::size_t>(node)] |= kFlag;
        }

        /// Whether `node` was claimed and flagged in this pass.
        [[nodiscard]] bool flagged(grid::NodeId node) const noexcept {
            return (slots_[static_cast<std::size_t>(node)] >> 31) == ((tag_ >> 31) | 1);
        }

    private:
        friend class BasicColocationTable;
        Pass(std::uint64_t* slots, std::uint64_t tag) noexcept : slots_{slots}, tag_{tag} {}

        std::uint64_t* slots_;
        std::uint64_t tag_;  ///< the pass stamp << 32
    };

    /// A table over node ids [0, nodes); 0 allocates nothing.
    explicit BasicColocationTable(std::int64_t nodes) : slots_(static_cast<std::size_t>(nodes)) {}

    /// Starts a pass; every claim of the previous passes reads empty.
    Pass begin_pass() noexcept {
        if (stamp_ == std::numeric_limits<Stamp>::max()) {
            std::fill(slots_.begin(), slots_.end(), 0);
            stamp_ = 0;
        }
        ++stamp_;
        return Pass{slots_.data(), std::uint64_t{stamp_} << 32};
    }

    /// Stamp of the current pass (0 before the first).
    [[nodiscard]] Stamp stamp() const noexcept { return stamp_; }

private:
    static constexpr std::uint64_t kFlag = std::uint64_t{1} << 31;
    static constexpr std::uint64_t kAgentMask = kFlag - 1;

    std::vector<std::uint64_t> slots_;
    Stamp stamp_{0};
};

using ColocationTable = BasicColocationTable<std::uint32_t>;

}  // namespace smn::spatial
