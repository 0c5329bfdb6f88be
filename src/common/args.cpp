#include "common/args.hpp"

#include <cmath>

#include "common/logging.hpp"
#include "common/text_line.hpp"

namespace rog {

Args::Args(int argc, const char *const *argv,
           const std::set<std::string> &known)
{
    bool options_started = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            if (options_started)
                ROG_FATAL("positional argument '", arg,
                          "' after options");
            positional_.push_back(arg);
            continue;
        }
        options_started = true;
        arg = arg.substr(2);
        std::string value;
        const auto eq = arg.find('=');
        bool have_value = false;
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
            have_value = true;
        }
        if (!known.count(arg))
            ROG_FATAL("unknown option --", arg);
        if (!have_value && i + 1 < argc &&
            std::string(argv[i + 1]).rfind("--", 0) != 0) {
            value = argv[++i];
        }
        options_[arg] = value;
    }
}

bool
Args::has(const std::string &name) const
{
    return options_.count(name) > 0;
}

std::string
Args::get(const std::string &name, const std::string &fallback) const
{
    auto it = options_.find(name);
    return it == options_.end() ? fallback : it->second;
}

double
Args::getDouble(const std::string &name, double fallback) const
{
    if (!has(name))
        return fallback;
    const std::string v = get(name);
    double parsed = 0.0;
    if (!parseNumber(v, parsed))
        ROG_FATAL("option --", name, " expects a number, got '", v, "'");
    return parsed;
}

std::size_t
Args::getSize(const std::string &name, std::size_t fallback) const
{
    const double v =
        getDouble(name, static_cast<double>(fallback));
    if (v < 0.0 || std::isinf(v))
        ROG_FATAL("option --", name, " must be non-negative and finite");
    return static_cast<std::size_t>(v);
}

std::vector<std::string>
splitCommaList(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t begin = 0;
    while (begin <= s.size()) {
        const auto comma = s.find(',', begin);
        const auto end = comma == std::string::npos ? s.size() : comma;
        if (end > begin)
            out.push_back(s.substr(begin, end - begin));
        if (comma == std::string::npos)
            break;
        begin = comma + 1;
    }
    return out;
}

} // namespace rog
