#include "core/node_event.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <type_traits>

#include "common/text_line.hpp"

namespace rog {
namespace core {

namespace {

using K = NodeEvent::Kind;
using net::session::AdmitMode;
using net::session::RejectReason;

/** The shape of one kind's line (see ROG_NODE_EVENTS). */
struct Spec
{
    const char *word;
    bool timed;
    bool phase;
    const char *keys;
};

#define ROG_NODE_EVENT_SPEC(kind, word, timed, phase, keys)                \
    {word, timed, phase, keys},
constexpr Spec kSpecs[] = {ROG_NODE_EVENTS(ROG_NODE_EVENT_SPEC)};
#undef ROG_NODE_EVENT_SPEC

/** Kinds whose `why` is free text, written quoted as their last key. */
bool
quotedWhy(K kind)
{
    return kind == K::RecoverFailed || kind == K::StateWriteFailed;
}

/** Call @p fn with each key of @p s, in order. */
template <typename Fn>
void
forEachKey(const Spec &s, Fn &&fn)
{
    std::string_view keys = s.keys;
    while (!keys.empty()) {
        const std::size_t space = keys.find(' ');
        fn(keys.substr(0, space));
        keys = space == keys.npos ? "" : keys.substr(space + 1);
    }
}

/** Call @p fn with the member of @p ev that @p key names. */
template <typename Event, typename Fn>
void
withField(Event &ev, std::string_view key, Fn &&fn)
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

/** Whether T is a list field: integers written joined by commas. */
template <typename T>
constexpr bool kIsList = false;
template <typename T>
constexpr bool kIsList<std::vector<T>> = std::is_integral_v<T>;

/** Append @p v as the writer spells it. */
template <typename T>
void
put(std::string &out, const T &v)
{
    if constexpr (std::is_same_v<T, bool>)
        out += v ? '1' : '0';
    else if constexpr (std::is_same_v<T, RejectReason>)
        out += net::session::rejectReasonName(v);
    else if constexpr (std::is_same_v<T, AdmitMode>)
        out += net::session::admitModeName(v);
    else if constexpr (std::is_same_v<T, MemberState>)
        out += memberStateName(v);
    else if constexpr (kIsList<T>) {
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (i > 0)
                out += ',';
            appendNumber(out, v[i]);
        }
    } else if constexpr (std::is_same_v<T, std::string>)
        out += v;
    else
        appendNumber(out, v);
}

/** The enumerator of @p all whose name() is the next @p key value. */
template <typename E, std::size_t N>
void
getNamed(TextLine &r, std::string_view key, E &v, const E (&all)[N],
         const char *(*name)(E))
{
    const std::string_view text = r.next<std::string_view>(key);
    for (E e : all)
        if (text == name(e)) {
            v = e;
            return;
        }
    r.fail("unknown " + std::string(key) + " '" + std::string(text) + "'");
}

/** Read the next @p key value into @p v, as put() spelled it. */
template <typename T>
void
get(TextLine &r, std::string_view key, T &v)
{
    if constexpr (std::is_same_v<T, RejectReason>) {
        getNamed(r, key, v, {RejectReason::BadEpoch, RejectReason::StaleToken},
                 net::session::rejectReasonName);
    } else if constexpr (std::is_same_v<T, AdmitMode>) {
        getNamed(r, key, v,
                 {AdmitMode::Fresh, AdmitMode::Rejoin, AdmitMode::Resume},
                 net::session::admitModeName);
    } else if constexpr (std::is_same_v<T, MemberState>) {
        getNamed(r, key, v,
                 {MemberState::Alive, MemberState::Suspect,
                  MemberState::Dead, MemberState::Rejoining},
                 memberStateName);
    } else if constexpr (kIsList<T>) {
        using Item = typename T::value_type;
        using Wide = std::conditional_t<std::is_signed_v<Item>,
                                        std::int64_t, std::uint64_t>;
        std::string_view text = r.next<std::string_view>(key);
        if (r.ok() && text.empty())
            r.fail("empty list for '" + std::string(key) + "'");
        while (r.ok() && !text.empty()) {
            const std::string_view item = text.substr(0, text.find(','));
            Wide x = 0;
            if (!parseNumber(item, x) ||
                static_cast<Wide>(static_cast<Item>(x)) != x)
                r.fail("bad item in '" + std::string(key) + "': '" +
                       std::string(item) + "'");
            v.push_back(static_cast<Item>(x));
            text = item.size() == text.size()
                       ? ""
                       : text.substr(item.size() + 1);
        }
    } else {
        v = r.next<T>(key);
    }
}

/** The kind whose line starts the way @p r's unread tokens do, as an
 *  index into kSpecs; kSpecs' size when there is none. */
std::size_t
identify(TextLine &r, NodeEvent &ev)
{
    const bool phase = r.peekKey() == "iter";
    std::string_view word;
    if (phase) {
        ev.iter = r.next<std::int64_t>("iter");
        word = r.next<std::string_view>("phase");
    } else {
        word = r.word();
    }
    // Two kinds share "bye"; their first keys tell them apart.
    const std::string_view first = r.peekKey();
    std::size_t hit = std::size(kSpecs);
    for (std::size_t i = 0; i < std::size(kSpecs); ++i) {
        const Spec &s = kSpecs[i];
        if (s.phase != phase || word != s.word)
            continue;
        const std::string_view keys = s.keys;
        if (first == keys.substr(0, keys.find(' ')))
            return i;
        hit = std::min(hit, i);
    }
    if (hit == std::size(kSpecs))
        r.fail("unknown node event '" + std::string(word) + "'");
    return hit;
}

} // namespace

bool
isTimed(NodeEvent::Kind kind)
{
    return kSpecs[static_cast<std::size_t>(kind)].timed;
}

void
appendLine(const NodeEvent &ev, std::string &out)
{
    const Spec &s = kSpecs[static_cast<std::size_t>(ev.kind)];
    if (s.timed) {
        out += "t=";
        appendNumber(out, ev.t);
        out += ' ';
    }
    if (s.phase) {
        out += "iter=";
        appendNumber(out, ev.iter);
        out += " phase=";
    }
    out += s.word;
    forEachKey(s, [&](std::string_view key) {
        out += ' ';
        out += key;
        out += '=';
        // Free text is quoted; it is the last field of its kinds.
        if (key == "why" && quotedWhy(ev.kind)) {
            out += '"';
            out += ev.why;
            out += '"';
        } else {
            withField(ev, key, [&](const auto &v) { put(out, v); });
        }
    });
}

std::string
toLine(const NodeEvent &ev)
{
    std::string line;
    appendLine(ev, line);
    return line;
}

NodeEventParseResult
tryParseNodeEvent(const std::string &line, std::size_t line_no)
{
    NodeEventParseResult res;
    TextLine r(line, line_no);
    const bool timed = r.peekKey() == "t";
    if (timed)
        res.event.t = r.next<double>("t");
    const std::size_t kind = identify(r, res.event);
    if (kind < std::size(kSpecs)) {
        const Spec &s = kSpecs[kind];
        res.event.kind = static_cast<K>(kind);
        if (s.timed != timed)
            r.fail(std::string(s.word) +
                   (s.timed ? " needs a time" : " takes no time"));
        forEachKey(s, [&](std::string_view key) {
            withField(res.event, key, [&](auto &v) { get(r, key, v); });
        });
        std::string &why = res.event.why;
        if (quotedWhy(res.event.kind) && why.size() >= 2)
            why = why.substr(1, why.size() - 2); // the writer's quotes.
        if (r.ok() && toLine(res.event) != line)
            r.fail("not in the writer's form: '" + line + "'");
    }
    res.error = r.error();
    if (!res.ok())
        res.event = NodeEvent{};
    return res;
}

NodeLogReadResult
readNodeLog(const std::string &path)
{
    NodeLogReadResult res;
    std::ifstream is(path);
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(is, line) && !is.eof()) {
        NodeEventParseResult one = tryParseNodeEvent(line, ++line_no);
        if (!one.ok()) {
            res.error = one.error;
            res.events.clear();
            return res;
        }
        res.events.push_back(std::move(one.event));
    }
    return res;
}

} // namespace core
} // namespace rog
