#include "common/logging.hpp"

#include <cstdlib>
#include <iostream>
#include <stdexcept>

namespace rog {

namespace detail {

void
panicImpl(std::string_view file, int line, const std::string &msg)
{
    std::cerr << "panic: " << msg << " @ " << file << ":" << line
              << std::endl;
    std::abort();
}

void
fatalImpl(std::string_view file, int line, const std::string &msg)
{
    // Throw instead of exit(1) so that library users (and tests) can
    // catch configuration errors; uncaught it still terminates.
    throw std::runtime_error(detail::concat("fatal: ", msg, " @ ", file,
                                            ":", line));
}

void
warnImpl(const std::string &msg)
{
    std::cerr << "warn: " << msg << std::endl;
}

} // namespace detail

} // namespace rog
