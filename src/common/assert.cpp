#include "common/assert.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace graphite {

namespace {

/**
 * Render "graphite: <tag>: <formatted message>\n" to stderr. A single
 * vsnprintf into a local buffer keeps the output one atomic write, so
 * concurrent failures from pool workers do not interleave mid-line.
 */
void
reportError(const char *tag, const char *fmt, std::va_list args)
{
    char message[1024];
    std::vsnprintf(message, sizeof(message), fmt, args);
    std::fprintf(stderr, "graphite: %s: %s\n", tag, message);
    std::fflush(stderr);
}

} // namespace

void
fatal(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    reportError("fatal", fmt, args);
    va_end(args);
    // No static destructors: the global pool's destructor joins
    // workers that a forked child (a gtest death test, say) lacks.
    std::fflush(nullptr);
    std::_Exit(1);
}

void
panic(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    reportError("panic", fmt, args);
    va_end(args);
    std::abort();
}

namespace detail {

void
assertFail(const char *cond, const char *file, int line, const char *msg)
{
    panic("assertion failed: %s (%s:%d): %s", cond, file, line, msg);
}

} // namespace detail

} // namespace graphite
