// dsu.hpp — disjoint-set union (union–find) over agent ids.
//
// Used every simulated time step to extract the connected components of
// the visibility graph G_t(r): agents within range are unioned, then each
// component floods its rumors. Union by size + path halving gives the
// usual near-constant amortized cost; `reset()` reuses the allocation.
#pragma once

#include <cassert>
#include <cstdint>
#include <numeric>
#include <vector>


namespace smn::graph {

/// Union–find over elements 0..size-1 with union by size.
class DisjointSets {
public:
    /// Telemetry tallies. Cumulative over the object's lifetime — reset()
    /// intentionally leaves them alone so an engine can report totals
    /// across all steps of a replication.
    struct Stats {
        std::int64_t unites{0};          ///< merges that joined two sets
        std::int64_t fast_path_hits{0};  ///< same-parent/under-root early outs
    };

    explicit DisjointSets(std::size_t size) { reset(size); }

    /// Re-initializes to `size` singleton sets, reusing storage.
    void reset(std::size_t size) {
        parent_.resize(size);
        std::iota(parent_.begin(), parent_.end(), std::int32_t{0});
        size_.assign(size, 1);
        set_count_ = size;
    }

    [[nodiscard]] std::size_t element_count() const noexcept { return parent_.size(); }

    /// Number of disjoint sets currently.
    [[nodiscard]] std::size_t set_count() const noexcept { return set_count_; }

    [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

    /// Representative of x's set (path halving).
    [[nodiscard]] std::int32_t find(std::int32_t x) noexcept {
        assert(x >= 0 && static_cast<std::size_t>(x) < parent_.size());
        while (parent_[static_cast<std::size_t>(x)] != x) {
            auto& p = parent_[static_cast<std::size_t>(x)];
            p = parent_[static_cast<std::size_t>(p)];
            x = p;
        }
        return x;
    }

    /// Merges the sets of a and b; returns true if they were distinct.
    bool unite(std::int32_t a, std::int32_t b) noexcept {
        // Equal direct parents ⇒ same set already; skip both finds. Pure
        // fast path: a full call on a same-set pair changes no links that
        // affect any root (path halving never moves a root), so the
        // resulting partition — and every find() — is identical.
        if (parent_[static_cast<std::size_t>(a)] == parent_[static_cast<std::size_t>(b)]) {
            ++stats_.fast_path_hits;
            return false;
        }
        auto ra = find(a);
        auto rb = find(b);
        if (ra == rb) return false;
        if (size_[static_cast<std::size_t>(ra)] < size_[static_cast<std::size_t>(rb)]) {
            std::swap(ra, rb);
        }
        parent_[static_cast<std::size_t>(rb)] = ra;
        size_[static_cast<std::size_t>(ra)] += size_[static_cast<std::size_t>(rb)];
        --set_count_;
        ++stats_.unites;
        return true;
    }

    /// unite() for callers that already hold a's current root (e.g. a flush
    /// loop draining runs of pairs that share their a side): performs
    /// exactly the structural links unite(a, b) would, skipping the
    /// redundant find(a), and returns the merged set's root — which is a's
    /// root for the caller to carry into the next call of the run.
    [[nodiscard]] std::int32_t unite_root(std::int32_t ra, std::int32_t b) noexcept {
        assert(parent_[static_cast<std::size_t>(ra)] == ra && "unite_root: ra is not a root");
        if (parent_[static_cast<std::size_t>(b)] == ra) {  // already under ra
            ++stats_.fast_path_hits;
            return ra;
        }
        const auto rb = find(b);
        if (ra == rb) return ra;
        --set_count_;
        ++stats_.unites;
        if (size_[static_cast<std::size_t>(ra)] < size_[static_cast<std::size_t>(rb)]) {
            parent_[static_cast<std::size_t>(ra)] = rb;
            size_[static_cast<std::size_t>(rb)] += size_[static_cast<std::size_t>(ra)];
            return rb;
        }
        parent_[static_cast<std::size_t>(rb)] = ra;
        size_[static_cast<std::size_t>(ra)] += size_[static_cast<std::size_t>(rb)];
        return ra;
    }

    /// True iff a and b are currently in the same set.
    [[nodiscard]] bool same(std::int32_t a, std::int32_t b) noexcept {
        return find(a) == find(b);
    }

    /// Size of the set containing x.
    [[nodiscard]] std::int32_t size_of(std::int32_t x) noexcept {
        return size_[static_cast<std::size_t>(find(x))];
    }

private:
    std::vector<std::int32_t> parent_;
    std::vector<std::int32_t> size_;
    std::size_t set_count_{0};
    Stats stats_;  ///< telemetry tallies; survives reset()
};

}  // namespace smn::graph
