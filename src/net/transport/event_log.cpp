#include "net/transport/event_log.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <type_traits>

#include "common/text_line.hpp"
#include "net/transport/frame.hpp"

namespace rog {
namespace net {
namespace transport {

namespace {

using K = TransportEvent::Kind;

constexpr std::pair<const char *, K> kKindNames[] = {
    {"attempt", K::Attempt},     {"resume", K::Resume},
    {"backoff", K::Backoff},     {"accept", K::Accept},
    {"duplicate", K::Duplicate}, {"corrupt-drop", K::CorruptDrop},
    {"deliver", K::Deliver},     {"fail", K::Fail},
};

constexpr std::pair<const char *, AttemptOutcome> kOutcomeNames[] = {
    {"accept", AttemptOutcome::Accept},   {"dup", AttemptOutcome::Dup},
    {"corrupt", AttemptOutcome::Corrupt}, {"partial", AttemptOutcome::Partial},
    {"timeout", AttemptOutcome::Timeout},
};

/** The name of @p v in @p names. */
template <typename E, std::size_t N>
const char *
nameOf(const std::pair<const char *, E> (&names)[N], E v)
{
    for (const auto &[name, e] : names)
        if (e == v)
            return name;
    return "?";
}

/** Set @p out to the value @p text names in @p names, if any. */
template <typename E, std::size_t N>
bool
valueOf(const std::pair<const char *, E> (&names)[N], std::string_view text,
        E &out)
{
    for (const auto &[name, e] : names)
        if (text == name) {
            out = e;
            return true;
        }
    return false;
}

/** Read the shared "link= w= v= row= dir=" run. */
void
readKey(TextLine &r, LinkId &link, MessageKey &key)
{
    link = r.next<LinkId>("link");
    const std::uint64_t w = r.next<std::uint64_t>("w");
    if (w > std::numeric_limits<std::uint16_t>::max())
        r.fail("worker out of range: w=" + std::to_string(w));
    key.worker = static_cast<std::uint16_t>(w);
    key.version = r.next<std::int64_t>("v");
    key.row = r.next<std::uint32_t>("row");
    const std::string_view dir = r.next<std::string_view>("dir");
    key.pull = dir == "pull";
    if (dir != "push" && dir != "pull")
        r.fail("bad direction '" + std::string(dir) + "' (want push|pull)");
}

/** Append the shared "link= w= v= row= dir=" run. */
void
writeKey(std::string &out, LinkId link, const MessageKey &key)
{
    out += "link=";
    appendNumber(out, link);
    out += " w=";
    appendNumber(out, key.worker);
    out += " v=";
    appendNumber(out, key.version);
    out += " row=";
    appendNumber(out, key.row);
    out += key.pull ? " dir=pull" : " dir=push";
}

/** Append " <name>=<v>": an integer in decimal, a double at 17
 *  significant digits so that it reads back bit for bit. */
template <typename T>
void
field(std::string &out, const char *name, T v)
{
    out += ' ';
    out += name;
    out += '=';
    if constexpr (std::is_floating_point_v<T>)
        appendNumber(out, v, 17);
    else
        appendNumber(out, v);
}

/** Fail unless the line has exactly @p want tokens. */
bool
fieldCount(TextLine &r, const char *what, std::size_t want)
{
    if (r.size() != want)
        r.fail(std::string(what) + " needs " + std::to_string(want) +
               " fields, got " + std::to_string(r.size()));
    return r.ok();
}

} // namespace

bool
TransportEvent::operator==(const TransportEvent &o) const
{
    return t == o.t && kind == o.kind && link == o.link && key == o.key &&
           chunk_seq == o.chunk_seq && a == o.a && b == o.b;
}

EventSide
eventSide(TransportEvent::Kind kind)
{
    switch (kind) {
    case TransportEvent::Kind::Attempt:
    case TransportEvent::Kind::Resume:
    case TransportEvent::Kind::Backoff:
    case TransportEvent::Kind::Fail:
        return EventSide::Sender;
    case TransportEvent::Kind::Accept:
    case TransportEvent::Kind::Duplicate:
    case TransportEvent::Kind::CorruptDrop:
    case TransportEvent::Kind::Deliver:
        return EventSide::Receiver;
    }
    return EventSide::Sender;
}

void
appendEvent(std::string &out, const TransportEvent &ev)
{
    out += "t=";
    appendNumber(out, ev.t, 17);
    out += ' ';
    out += nameOf(kKindNames, ev.kind);
    out += ' ';
    writeKey(out, ev.link, ev.key);
    field(out, "seq", ev.chunk_seq);
    field(out, "a", ev.a);
    field(out, "b", ev.b);
}

std::string
toString(const TransportEvent &ev)
{
    std::string line;
    appendEvent(line, ev);
    return line;
}

EventParseResult
tryParseEvent(const std::string &line, std::size_t line_no)
{
    EventParseResult res;
    TextLine r(line, line_no);
    if (fieldCount(r, "event line", 10)) {
        TransportEvent &ev = res.event;
        ev.t = r.next<double>("t");
        const std::string_view kind = r.word();
        if (r.ok() && !valueOf(kKindNames, kind, ev.kind))
            r.fail("unknown event kind '" + std::string(kind) + "'");
        readKey(r, ev.link, ev.key);
        ev.chunk_seq = r.next<std::uint32_t>("seq");
        ev.a = r.next<double>("a");
        ev.b = r.next<double>("b");
    }
    res.error = r.error();
    return res;
}

LogParseResult
tryParseLog(const std::string &text)
{
    LogParseResult res;
    std::istringstream is(text);
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        auto one = tryParseEvent(line, lineno);
        if (!one.ok()) {
            res.error = one.error;
            res.events.clear();
            return res;
        }
        res.events.push_back(one.event);
    }
    return res;
}

std::vector<TransportEvent>
filterSide(const std::vector<TransportEvent> &log, EventSide side)
{
    std::vector<TransportEvent> out;
    for (const auto &ev : log)
        if (eventSide(ev.kind) == side)
            out.push_back(ev);
    return out;
}

std::string
renderNormalized(const std::vector<TransportEvent> &log)
{
    std::string out;
    for (TransportEvent ev : log) {
        ev.t = 0.0;
        appendEvent(out, ev);
        out += '\n';
    }
    return out;
}

const char *
toString(AttemptOutcome o)
{
    return nameOf(kOutcomeNames, o);
}

std::string
TransportTrace::toText() const
{
    std::string out = "trace v1 backend=" + config.backend;
    field(out, "chunk", config.chunk_bytes);
    field(out, "attempts", config.max_attempts);
    field(out, "base", config.backoff_base_s);
    field(out, "max", config.backoff_max_s);
    field(out, "jitter", config.jitter_frac);
    field(out, "jseed", config.jitter_seed);
    field(out, "resume", config.resume_from_offset ? 1 : 0);
    out += '\n';
    for (const auto &s : sends) {
        out += "send ";
        writeKey(out, s.link, s.key);
        field(out, "bytes", s.payload_bytes);
        if (std::isinf(s.deadline_s))
            out += " deadline=inf";
        else
            field(out, "deadline", s.deadline_s);
        out += '\n';
    }
    for (const auto &a : attempts) {
        out += "att ";
        writeKey(out, a.link, a.key);
        field(out, "seq", a.chunk_seq);
        field(out, "off", a.payload_off);
        out += " out=";
        out += toString(a.outcome);
        field(out, "bytes", a.bytes_sent);
        field(out, "elapsed", a.elapsed_s);
        field(out, "complete", a.message_complete ? 1 : 0);
        out += '\n';
    }
    for (const auto &r : rx) {
        out += "rx ";
        writeKey(out, r.link, r.key);
        field(out, "seq", r.chunk_seq);
        field(out, "off", r.payload_off);
        field(out, "len", r.frag_len);
        field(out, "got", r.got);
        out += r.crc_ok ? " crc=ok\n" : " crc=bad\n";
    }
    return out;
}

namespace {

void
readHeader(TextLine &r, TraceConfig &c)
{
    if (!fieldCount(r, "trace header", 10))
        return;
    const std::string_view version = r.word();
    if (r.ok() && version != "v1")
        r.fail("unsupported trace version '" + std::string(version) + "'");
    c.backend = r.next<std::string>("backend");
    if (r.ok() && c.backend.empty())
        r.fail("empty value for 'backend'");
    c.chunk_bytes = r.next<std::uint64_t>("chunk");
    c.max_attempts = r.next<std::size_t>("attempts");
    c.backoff_base_s = r.next<double>("base");
    c.backoff_max_s = r.next<double>("max");
    c.jitter_frac = r.next<double>("jitter");
    c.jitter_seed = r.next<std::uint64_t>("jseed");
    const std::uint64_t resume = r.next<std::uint64_t>("resume");
    c.resume_from_offset = resume == 1;
    if (r.ok() && resume > 1)
        r.fail("resume must be 0 or 1");
    if (r.ok() && (c.chunk_bytes == 0 || c.chunk_bytes > kMaxChunkBytes))
        r.fail("chunk must be in [1, " + std::to_string(kMaxChunkBytes) +
               "]");
    if (r.ok() && (c.jitter_frac < 0.0 || c.jitter_frac >= 1.0))
        r.fail("jitter must be in [0, 1)");
}

SendRecord
readSend(TextLine &r)
{
    SendRecord s;
    if (!fieldCount(r, "send record", 8))
        return s;
    readKey(r, s.link, s.key);
    s.payload_bytes = r.next<std::uint64_t>("bytes");
    s.deadline_s = r.next<double>("deadline");
    return s;
}

AttemptRecord
readAttempt(TextLine &r)
{
    AttemptRecord a;
    if (!fieldCount(r, "att record", 12))
        return a;
    readKey(r, a.link, a.key);
    a.chunk_seq = r.next<std::uint32_t>("seq");
    a.payload_off = r.next<std::uint64_t>("off");
    const std::string_view out = r.next<std::string_view>("out");
    if (r.ok() && !valueOf(kOutcomeNames, out, a.outcome))
        r.fail("unknown attempt outcome '" + std::string(out) + "'");
    a.bytes_sent = r.next<std::uint64_t>("bytes");
    a.elapsed_s = r.next<double>("elapsed");
    const std::uint64_t complete = r.next<std::uint64_t>("complete");
    a.message_complete = complete == 1;
    if (r.ok() && complete > 1)
        r.fail("complete must be 0 or 1");
    if (r.ok() && a.elapsed_s < 0.0)
        r.fail("att elapsed must be non-negative");
    return a;
}

RxRecord
readRx(TextLine &r)
{
    RxRecord x;
    if (!fieldCount(r, "rx record", 11))
        return x;
    readKey(r, x.link, x.key);
    x.chunk_seq = r.next<std::uint32_t>("seq");
    x.payload_off = r.next<std::uint64_t>("off");
    x.frag_len = r.next<std::uint32_t>("len");
    x.got = r.next<std::uint32_t>("got");
    const std::string_view crc = r.next<std::string_view>("crc");
    x.crc_ok = crc == "ok";
    if (r.ok() && crc != "ok" && crc != "bad")
        r.fail("crc must be ok|bad, got '" + std::string(crc) + "'");
    if (r.ok() && x.got > x.frag_len)
        r.fail("rx got exceeds fragment length");
    return x;
}

} // namespace

TraceParseResult
TransportTrace::tryParse(const std::string &text)
{
    TraceParseResult res;
    std::istringstream is(text);
    std::string line;
    std::size_t lineno = 0;
    bool saw_header = false;

    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        TextLine r(line, lineno);
        const std::string_view type = r.word();
        if (type == "trace") {
            if (saw_header)
                r.fail("duplicate trace header");
            readHeader(r, res.trace.config);
            saw_header = true;
        } else if (type != "send" && type != "att" && type != "rx") {
            r.fail("unknown record type '" + std::string(type) + "'");
        } else if (!saw_header) {
            r.fail(std::string(type) + " before trace header");
        } else if (type == "send") {
            res.trace.sends.push_back(readSend(r));
        } else if (type == "att") {
            res.trace.attempts.push_back(readAttempt(r));
        } else {
            res.trace.rx.push_back(readRx(r));
        }
        if (!r.ok()) {
            res.error = r.error();
            res.trace = TransportTrace{};
            return res;
        }
    }
    if (!saw_header) {
        res.error =
            "line " + std::to_string(lineno) + ": missing trace header";
        res.trace = TransportTrace{};
    }
    return res;
}

} // namespace transport
} // namespace net
} // namespace rog
