/**
 * @file
 * Error-handling helpers in the spirit of gem5's panic()/fatal() split:
 * GRAPHITE_ASSERT guards internal invariants (library bugs), while fatal()
 * reports unrecoverable user errors (bad configuration, bad input).
 *
 * Assertions come in two tiers:
 *
 *  - GRAPHITE_ASSERT — always on, in every build type. For cheap
 *    preconditions off the per-element hot path (per-call shape checks,
 *    construction-time invariants).
 *  - GRAPHITE_DCHECK — compiled in only when GRAPHITE_ENABLE_DCHECKS is
 *    defined (the GRAPHITE_CHECKS CMake option: on in Debug and
 *    sanitizer builds, off in release). For per-element bounds checks on
 *    hot accessors (CsrGraph rows, matrix rows, packed-panel lookups)
 *    whose cost would be measurable in the aggregation/update inner
 *    loops.
 *
 * fatal()/panic() are printf-style C-variadic functions carrying
 * [[gnu::format]] so a mismatched format spec is a compile-time warning
 * (an error under -Werror / CI), not undefined behaviour at crash time.
 */

#pragma once

namespace graphite {

/**
 * Report an unrecoverable user-caused error, flush stdio and end the
 * process with status 1 through std::_Exit: no atexit handler or
 * static destructor runs, so fatal() is safe in a forked child.
 *
 * @param fmt printf-style format string (compile-time checked).
 */
[[noreturn]] [[gnu::format(printf, 1, 2)]]
void fatal(const char *fmt, ...);

/**
 * Report an internal invariant violation (a library bug) and abort().
 */
[[noreturn]] [[gnu::format(printf, 1, 2)]]
void panic(const char *fmt, ...);

namespace detail {

/** Out-of-line assertion-failure reporter shared by the macros. */
[[noreturn]] void assertFail(const char *cond, const char *file, int line,
                             const char *msg);

} // namespace detail

} // namespace graphite

/** Internal invariant check; enabled in all build types. */
#define GRAPHITE_ASSERT(cond, msg)                                          \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::graphite::detail::assertFail(#cond, __FILE__, __LINE__, msg); \
        }                                                                   \
    } while (0)

/**
 * Hot-path invariant check; compiled in only under GRAPHITE_CHECKS
 * (Debug and sanitizer builds by default). The disabled form still
 * parses @p cond so checked expressions cannot rot, but evaluates
 * nothing at run time.
 */
#ifdef GRAPHITE_ENABLE_DCHECKS
#define GRAPHITE_DCHECK(cond, msg) GRAPHITE_ASSERT(cond, msg)
#else
#define GRAPHITE_DCHECK(cond, msg)                                          \
    do {                                                                    \
        if (false) {                                                        \
            static_cast<void>(cond);                                        \
            static_cast<void>(msg);                                         \
        }                                                                   \
    } while (0)
#endif
