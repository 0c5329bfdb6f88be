/**
 * @file
 * Status and error reporting helpers.
 *
 * Follows the gem5 convention: panic() is for internal invariant
 * violations (a bug in this library), fatal() is for user errors that
 * make continuing impossible (bad configuration, invalid arguments),
 * warn() is a non-fatal message on stderr.
 */
#ifndef ROG_COMMON_LOGGING_HPP
#define ROG_COMMON_LOGGING_HPP

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace rog {

namespace detail {

[[noreturn]] void panicImpl(std::string_view file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(std::string_view file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);

/** Concatenate any streamable arguments into a string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/** Abort with a message: something that should never happen happened. */
#define ROG_PANIC(...) \
    ::rog::detail::panicImpl(__FILE__, __LINE__, \
                             ::rog::detail::concat(__VA_ARGS__))

/** Exit with a message: the user asked for something impossible. */
#define ROG_FATAL(...) \
    ::rog::detail::fatalImpl(__FILE__, __LINE__, \
                             ::rog::detail::concat(__VA_ARGS__))

/** A command-line usage error, thrown by ROG_USAGE_ERROR. Its what()
 *  is "fatal: <message>" with no source location: the mistake is in
 *  the command line, not at a line of the program, so a tool prints
 *  it as it is. */
class UsageError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Throw a UsageError: the command line asked for something
 *  impossible. */
#define ROG_USAGE_ERROR(...) \
    throw ::rog::UsageError(::rog::detail::concat("fatal: ", __VA_ARGS__))

/** Panic unless a library invariant holds. */
#define ROG_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            ::rog::detail::panicImpl(__FILE__, __LINE__, \
                ::rog::detail::concat("assertion failed: " #cond " ", \
                                      ##__VA_ARGS__)); \
        } \
    } while (0)

/** Non-fatal warning about questionable behaviour. */
#define ROG_WARN(...) \
    ::rog::detail::warnImpl(::rog::detail::concat(__VA_ARGS__))

} // namespace rog

#endif // ROG_COMMON_LOGGING_HPP
