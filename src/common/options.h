/**
 * @file
 * Tiny command-line option parser used by the bench and example binaries.
 *
 * Supports `--name=value`, `--name value` and boolean `--flag` forms plus
 * automatic `--help` output. Deliberately minimal: the benches only need a
 * handful of scalar knobs (graph scale, feature width, thread count, ...).
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace graphite {

/** Declarative command-line option set with typed accessors. */
class Options
{
  public:
    /**
     * @param description one-line description printed at the top of --help.
     */
    explicit Options(std::string description);

    /** Register an option with a default value and help text. */
    void add(const std::string &name, const std::string &defaultValue,
             const std::string &help);

    /**
     * Parse argv. Unknown options are fatal. A `--help` argument prints
     * usage and exits(0).
     */
    void parse(int argc, char **argv);

    /** String value of @p name (the default if unset). */
    std::string getString(const std::string &name) const;

    /** The default registered for @p name (unchanged by parse()). */
    std::string getDefault(const std::string &name) const;

    /**
     * Integer value of @p name (decimal, 0x hex or 0 octal). A value
     * that is empty, has trailing characters or overflows is fatal,
     * naming the flag; so are the malformed numbers and booleans below.
     */
    std::int64_t getInt(const std::string &name) const;

    /**
     * getInt() for a count or size: a value below @p minimum is fatal,
     * naming the flag, so a negative count never wraps to a huge
     * unsigned one.
     */
    std::size_t getCount(const std::string &name,
                         std::int64_t minimum = 0) const;

    /** Floating-point value of @p name. */
    double getDouble(const std::string &name) const;

    /** Boolean value: true/1/yes/on or false/0/no/off. */
    bool getBool(const std::string &name) const;

  private:
    struct Entry
    {
        std::string name;
        std::string value;
        /** Registered default, kept verbatim so --help can print it
         *  even after parse() has overwritten value. */
        std::string defaultValue;
        std::string help;
    };

    const Entry *find(const std::string &name) const;
    Entry *find(const std::string &name);
    void printHelp(const char *argv0) const;

    std::string description_;
    std::vector<Entry> entries_;
};

} // namespace graphite
