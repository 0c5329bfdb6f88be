#include "common/legacy_render.hpp"

#include <cmath>
#include <sstream>
#include <string_view>
#include <type_traits>

namespace rog {
namespace legacy {

namespace {

using core::MemberState;
using core::NodeEvent;
using net::session::AdmitMode;
using net::session::RejectReason;
using K = NodeEvent::Kind;

struct Spec
{
    const char *word;
    bool timed;
    bool phase;
    const char *keys;
};

#define ROG_LEGACY_SPEC(kind, word, timed, phase, keys)                    \
    {word, timed, phase, keys},
constexpr Spec kSpecs[] = {ROG_NODE_EVENTS(ROG_LEGACY_SPEC)};
#undef ROG_LEGACY_SPEC

template <typename Fn>
void
withField(const NodeEvent &ev, std::string_view key, Fn &&fn)
{
    // clang-format off
    if (key == "w") fn(ev.w);
    else if (key == "iter") fn(ev.iter);
    else if (key == "unit_list") fn(ev.unit_list);
    else if (key == "epoch") fn(ev.epoch);
    else if (key == "recovered") fn(ev.recovered);
    else if (key == "versions") fn(ev.versions);
    else if (key == "scope") fn(ev.scope);
    else if (key == "port") fn(ev.port);
    else if (key == "reason") fn(ev.reason);
    else if (key == "inc") fn(ev.inc);
    else if (key == "mode") fn(ev.mode);
    else if (key == "session") fn(ev.session);
    else if (key == "start") fn(ev.start);
    else if (key == "model_bytes") fn(ev.model_bytes);
    else if (key == "done_iter") fn(ev.done_iter);
    else if (key == "from") fn(ev.from);
    else if (key == "to") fn(ev.to);
    else if (key == "phi") fn(ev.phi);
    else if (key == "units") fn(ev.units);
    else if (key == "applied") fn(ev.applied);
    else if (key == "try") fn(ev.tries);
    else if (key == "token") fn(ev.token);
    else if (key == "silence") fn(ev.silence);
    else if (key == "why") fn(ev.why);
    // clang-format on
}

template <typename T>
void
put(std::ostream &os, const T &v)
{
    if constexpr (std::is_same_v<T, bool>)
        os << (v ? 1 : 0);
    else if constexpr (std::is_same_v<T, RejectReason>)
        os << net::session::rejectReasonName(v);
    else if constexpr (std::is_same_v<T, AdmitMode>)
        os << net::session::admitModeName(v);
    else if constexpr (std::is_same_v<T, MemberState>)
        os << core::memberStateName(v);
    else if constexpr (std::is_same_v<T, std::vector<std::int64_t>> ||
                       std::is_same_v<T, std::vector<std::size_t>>) {
        for (std::size_t i = 0; i < v.size(); ++i)
            os << (i > 0 ? "," : "") << v[i];
    } else
        os << v;
}

std::ostream &
writeKey(std::ostream &os, net::LinkId link,
         const net::transport::MessageKey &key)
{
    os << "link=" << link << " w=" << key.worker << " v=" << key.version
       << " row=" << key.row << " dir=" << (key.pull ? "pull" : "push");
    return os;
}

const char *
kindName(net::transport::TransportEvent::Kind kind)
{
    using TK = net::transport::TransportEvent::Kind;
    switch (kind) {
    case TK::Attempt: return "attempt";
    case TK::Resume: return "resume";
    case TK::Backoff: return "backoff";
    case TK::Accept: return "accept";
    case TK::Duplicate: return "duplicate";
    case TK::CorruptDrop: return "corrupt-drop";
    case TK::Deliver: return "deliver";
    case TK::Fail: return "fail";
    }
    return "?";
}

} // namespace

std::string
nodeEventLine(const NodeEvent &ev)
{
    const Spec &s = kSpecs[static_cast<std::size_t>(ev.kind)];
    std::ostringstream os;
    if (s.timed)
        os << "t=" << ev.t << ' ';
    if (s.phase)
        os << "iter=" << ev.iter << " phase=";
    os << s.word;
    std::string_view keys = s.keys;
    while (!keys.empty()) {
        const std::size_t space = keys.find(' ');
        const std::string_view key = keys.substr(0, space);
        keys = space == keys.npos ? "" : keys.substr(space + 1);
        os << ' ' << key << '=';
        if (key == "why" &&
            (ev.kind == K::RecoverFailed || ev.kind == K::StateWriteFailed))
            os << '"' << ev.why << '"';
        else
            withField(ev, key, [&](const auto &v) { put(os, v); });
    }
    return os.str();
}

std::string
transportEventLine(const net::transport::TransportEvent &ev)
{
    std::ostringstream os;
    os.precision(17);
    os << "t=" << ev.t << ' ' << kindName(ev.kind) << ' ';
    writeKey(os, ev.link, ev.key)
        << " seq=" << ev.chunk_seq << " a=" << ev.a << " b=" << ev.b;
    return os.str();
}

std::string
traceText(const net::transport::TransportTrace &trace)
{
    const net::transport::TraceConfig &config = trace.config;
    std::ostringstream os;
    os.precision(17);
    os << "trace v1 backend=" << config.backend
       << " chunk=" << config.chunk_bytes
       << " attempts=" << config.max_attempts
       << " base=" << config.backoff_base_s
       << " max=" << config.backoff_max_s
       << " jitter=" << config.jitter_frac
       << " jseed=" << config.jitter_seed
       << " resume=" << (config.resume_from_offset ? 1 : 0) << '\n';
    for (const auto &s : trace.sends) {
        os << "send ";
        writeKey(os, s.link, s.key) << " bytes=" << s.payload_bytes
                                    << " deadline=";
        if (std::isinf(s.deadline_s))
            os << "inf";
        else
            os << s.deadline_s;
        os << '\n';
    }
    for (const auto &a : trace.attempts) {
        os << "att ";
        writeKey(os, a.link, a.key)
            << " seq=" << a.chunk_seq << " off=" << a.payload_off
            << " out=" << net::transport::toString(a.outcome)
            << " bytes=" << a.bytes_sent << " elapsed=" << a.elapsed_s
            << " complete=" << (a.message_complete ? 1 : 0) << '\n';
    }
    for (const auto &r : trace.rx) {
        os << "rx ";
        writeKey(os, r.link, r.key)
            << " seq=" << r.chunk_seq << " off=" << r.payload_off
            << " len=" << r.frag_len << " got=" << r.got
            << " crc=" << (r.crc_ok ? "ok" : "bad") << '\n';
    }
    return os.str();
}

} // namespace legacy
} // namespace rog
