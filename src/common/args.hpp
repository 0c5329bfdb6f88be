/**
 * @file
 * Minimal command-line argument parsing for the tools.
 *
 * Supports `--key value`, `--key=value`, bare `--flag`, and leading
 * positional arguments. Unknown options are an error (caught early
 * rather than silently ignored).
 */
#ifndef ROG_COMMON_ARGS_HPP
#define ROG_COMMON_ARGS_HPP

#include <map>
#include <set>
#include <string>
#include <vector>

namespace rog {

/** Parsed command line. */
class Args
{
  public:
    /**
     * Parse argv.
     *
     * @param known the accepted option names (without "--").
     * @throws UsageError (via ROG_USAGE_ERROR) on unknown options or
     *         a missing value for a non-terminal option.
     */
    Args(int argc, const char *const *argv,
         const std::set<std::string> &known);

    /** Positional arguments in order (e.g. the subcommand). */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /** True if --name appeared (with or without a value). */
    bool has(const std::string &name) const;

    /** Value of --name, or @p fallback if absent. */
    std::string get(const std::string &name,
                    const std::string &fallback = "") const;

    /** Value of --name as a double. @throws if non-numeric */
    double getDouble(const std::string &name, double fallback) const;

    /** Value of --name as a non-negative integer. @throws likewise */
    std::size_t getSize(const std::string &name,
                        std::size_t fallback) const;

  private:
    std::vector<std::string> positional_;
    std::map<std::string, std::string> options_;
};

/** Split a comma-separated list ("bsp,ssp4,rog4"). */
std::vector<std::string> splitCommaList(const std::string &s);

} // namespace rog

#endif // ROG_COMMON_ARGS_HPP
