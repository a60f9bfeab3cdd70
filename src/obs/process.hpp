// process.hpp — process-level resource gauges.
//
// One query today: peak resident set size, behind the records'
// process.peak_rss_bytes counter. Read at quiescent points (end of a sweep
// pass); it is a syscall, not a hot-path tally.
#pragma once

#include <cstdint>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace smn::obs {

/// Peak resident set size of the calling process in bytes, or 0 where the
/// platform does not expose it. Linux reports ru_maxrss in KiB, macOS in
/// bytes.
[[nodiscard]] inline std::int64_t peak_rss_bytes() noexcept {
#if defined(__APPLE__)
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
    return static_cast<std::int64_t>(usage.ru_maxrss);
#elif defined(__unix__)
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
    return static_cast<std::int64_t>(usage.ru_maxrss) * 1024;
#else
    return 0;
#endif
}

}  // namespace smn::obs
