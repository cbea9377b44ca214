#include "common/options.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/assert.h"

namespace graphite {

Options::Options(std::string description)
    : description_(std::move(description))
{
}

void
Options::add(const std::string &name, const std::string &defaultValue,
             const std::string &help)
{
    GRAPHITE_ASSERT(find(name) == nullptr, "duplicate option");
    entries_.push_back(Entry{name, defaultValue, defaultValue, help});
}

namespace {

/**
 * Is @p token a value (vs the next option)? Anything not starting with
 * '-' is a value; so is a negative number ("-3", "-0.5", "-.5") —
 * signed CLI values (trace sampling offsets, negative epsilons) must
 * survive the `--opt value` form.
 */
bool
looksLikeValue(const char *token)
{
    if (token[0] != '-')
        return true;
    const char next = token[1];
    return (next >= '0' && next <= '9') ||
           (next == '.' && token[2] >= '0' && token[2] <= '9');
}

} // namespace

void
Options::parse(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printHelp(argv[0]);
            std::exit(0);
        }
        if (arg.rfind("--", 0) != 0)
            fatal("unexpected positional argument '%s'", arg.c_str());
        arg = arg.substr(2);
        std::string name = arg;
        std::string value;
        bool haveValue = false;
        auto eq = arg.find('=');
        if (eq != std::string::npos) {
            name = arg.substr(0, eq);
            value = arg.substr(eq + 1);
            haveValue = true;
        }
        Entry *entry = find(name);
        if (!entry)
            fatal("unknown option '--%s' (try --help)", name.c_str());
        if (haveValue && value.empty()) {
            fatal("empty value for '--%s=' (pass --%s=<value>, or drop "
                  "the '=' for the boolean form)",
                  name.c_str(), name.c_str());
        }
        if (!haveValue) {
            // `--flag value` form, or bare boolean `--flag`.
            if (i + 1 < argc && looksLikeValue(argv[i + 1])) {
                value = argv[++i];
            } else {
                value = "true";
            }
        }
        entry->value = value;
    }
}

std::string
Options::getString(const std::string &name) const
{
    const Entry *entry = find(name);
    GRAPHITE_ASSERT(entry != nullptr, "option not registered");
    return entry->value;
}

std::string
Options::getDefault(const std::string &name) const
{
    const Entry *entry = find(name);
    GRAPHITE_ASSERT(entry != nullptr, "option not registered");
    return entry->defaultValue;
}

namespace {

/**
 * Parse all of @p text with @p convert (a strtoll/strtod wrapper), or
 * die naming the flag: an empty value, trailing characters and an
 * out-of-range value are all errors.
 */
template <typename Convert>
auto
parseNumber(const std::string &name, const std::string &text,
            const char *kind, Convert &&convert)
{
    char *end = nullptr;
    errno = 0;
    const auto value = convert(text.c_str(), &end);
    if (text.empty() || *end != '\0')
        fatal("--%s: '%s' is not %s", name.c_str(), text.c_str(), kind);
    if (errno == ERANGE)
        fatal("--%s: '%s' is out of range", name.c_str(), text.c_str());
    return value;
}

} // namespace

std::int64_t
Options::getInt(const std::string &name) const
{
    return parseNumber(name, getString(name), "an integer",
                       [](const char *text, char **end) {
        return std::strtoll(text, end, 0);
    });
}

std::size_t
Options::getCount(const std::string &name, std::int64_t minimum) const
{
    const std::int64_t value = getInt(name);
    if (value < minimum) {
        fatal("--%s must be >= %lld (got %lld)", name.c_str(),
              static_cast<long long>(minimum),
              static_cast<long long>(value));
    }
    return static_cast<std::size_t>(value);
}

double
Options::getDouble(const std::string &name) const
{
    return parseNumber(name, getString(name), "a number",
                       [](const char *text, char **end) {
        return std::strtod(text, end);
    });
}

bool
Options::getBool(const std::string &name) const
{
    const std::string v = getString(name);
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        return true;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return false;
    fatal("--%s: '%s' is not a boolean (true/false, 1/0, yes/no, on/off)",
          name.c_str(), v.c_str());
}

const Options::Entry *
Options::find(const std::string &name) const
{
    for (const auto &entry : entries_) {
        if (entry.name == name)
            return &entry;
    }
    return nullptr;
}

Options::Entry *
Options::find(const std::string &name)
{
    return const_cast<Entry *>(
        static_cast<const Options *>(this)->find(name));
}

void
Options::printHelp(const char *argv0) const
{
    std::printf("%s\n\nusage: %s [--option=value ...]\n\noptions:\n",
                description_.c_str(), argv0);
    for (const auto &entry : entries_) {
        std::printf("  --%-24s %s (default: %s)\n", entry.name.c_str(),
                    entry.help.c_str(), entry.defaultValue.c_str());
    }
}

} // namespace graphite
