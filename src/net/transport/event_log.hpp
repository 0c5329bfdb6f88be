/**
 * @file
 * Structured transport event log: the record of every sender and
 * receiver decision the reliable transport makes, in a stable text
 * form that round-trips through a strict parser.
 *
 * The log is the transport's observability *and* its equivalence
 * oracle: two runs of the protocol core are "the same" exactly when
 * their normalized logs match line for line. A real-socket run records
 * its log (plus a wire trace of per-attempt outcomes, see
 * TransportTrace); the cross-validation harness replays the trace
 * through the deterministic DES twin and asserts the logs agree
 * frame-for-frame. Normalization strips wall-clock timestamps — the
 * only field a real backend cannot reproduce in virtual time.
 *
 * Wire-trace line format (one record per line, `#` comments allowed):
 *
 *     trace v1 backend=udp chunk=<n> attempts=<n> base=<f> max=<f>
 *         jitter=<f> jseed=<n> resume=<0|1>
 *     send link=<n> w=<n> v=<n> row=<n> dir=push|pull bytes=<n>
 *         deadline=<f|inf>
 *     att link=<n> w=<n> v=<n> row=<n> dir=push|pull seq=<n> off=<n>
 *         out=accept|dup|corrupt|partial|timeout bytes=<n>
 *         elapsed=<f> complete=<0|1>
 *     rx link=<n> w=<n> v=<n> row=<n> dir=push|pull seq=<n> off=<n>
 *         len=<n> got=<n> crc=ok|bad
 *
 * Event lines are what toString() renders:
 *
 *     t=<f> <kind> link=<n> w=<n> v=<n> row=<n> dir=push|pull
 *         seq=<n> a=<f> b=<f>
 *
 * Every <n> is plain decimal and every <f> is spelled as printf's
 * `%.17g` (common/text_line's appendNumber), which reads back to the
 * same double.
 *
 * Both parsers reject malformed input with a line-numbered diagnostic
 * (the same contract as fault::FaultPlan::tryParse) — never a silent
 * skip.
 */
#ifndef ROG_NET_TRANSPORT_EVENT_LOG_HPP
#define ROG_NET_TRANSPORT_EVENT_LOG_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

namespace rog {
namespace net {

/** Index of a device link (same alias as net/channel.hpp). */
using LinkId = std::size_t;

namespace transport {

/** Identity of one transport message (one gradient row push/pull). */
struct MessageKey
{
    std::uint16_t worker = 0;
    std::int64_t version = 0;
    std::uint32_t row = 0;
    bool pull = false;

    auto
    tie() const
    {
        return std::tie(worker, version, row, pull);
    }

    bool operator<(const MessageKey &o) const { return tie() < o.tie(); }
    bool operator==(const MessageKey &o) const { return tie() == o.tie(); }
};

/** One entry of the structured replay log. */
struct TransportEvent
{
    enum class Kind {
        Attempt,     //!< a=wire bytes, b=resume offset.
        Resume,      //!< a=resumed bytes, b=chunk payload bytes.
        Backoff,     //!< a=delay seconds, b=backoff exponent.
        Accept,      //!< chunk passed CRC and was applied fresh.
        Duplicate,   //!< chunk arrived again and was dedup'd.
        CorruptDrop, //!< chunk failed CRC and was discarded.
        Deliver,     //!< message complete.
        Fail,        //!< a=1 if the deadline expired, 0 otherwise.
    };

    double t = 0.0;
    Kind kind = Kind::Attempt;
    LinkId link = 0;
    MessageKey key;
    std::uint32_t chunk_seq = 0;
    double a = 0.0;
    double b = 0.0;

    bool operator==(const TransportEvent &) const = default;
};

/** Which end of the link a decision belongs to. */
enum class EventSide {
    Sender,   //!< Attempt / Resume / Backoff / Fail.
    Receiver, //!< Accept / Duplicate / CorruptDrop / Deliver.
};

/** The side that emits events of @p kind. */
EventSide eventSide(TransportEvent::Kind kind);

/** Receives events as they are decided (stamped by the producer). */
using EventSink = std::function<void(const TransportEvent &)>;

/** Append @p ev's event line (no newline) to @p out. */
void appendEvent(std::string &out, const TransportEvent &ev);

/** Render one event as a stable text line (for replay comparison). */
std::string toString(const TransportEvent &ev);

/** Outcome of parsing one event line. */
struct EventParseResult
{
    TransportEvent event;
    std::string error; //!< empty on success.

    bool ok() const { return error.empty(); }
};

/** Strictly parse one toString() line; @p line_no > 0 numbers errors. */
EventParseResult tryParseEvent(const std::string &line,
                               std::size_t line_no = 0);

/** Outcome of parsing a whole event log. */
struct LogParseResult
{
    std::vector<TransportEvent> events;
    std::string error; //!< empty on success; line-numbered otherwise.

    bool ok() const { return error.empty(); }
};

/** Parse a multi-line log dump (blank lines and `#` comments ok). */
LogParseResult tryParseLog(const std::string &text);

/** Keep only the events one side emitted. */
std::vector<TransportEvent> filterSide(const std::vector<TransportEvent> &log,
                                       EventSide side);

/**
 * Render a log with timestamps normalized away (t=0 on every line):
 * the canonical form compared across backends, where virtual and
 * wall-clock time cannot agree but every decision must.
 */
std::string renderNormalized(const std::vector<TransportEvent> &log);

/** What one wire attempt resolved to, as the sender saw it. */
enum class AttemptOutcome {
    Accept,  //!< receiver accepted the chunk fresh.
    Dup,     //!< receiver had the chunk already.
    Corrupt, //!< receiver dropped the chunk on CRC failure.
    Partial, //!< a prefix arrived; off+bytes tell how much.
    Timeout, //!< nothing (or no acknowledgement) came back.
};

const char *toString(AttemptOutcome o);

/** One message the harness asked the transport to send. */
struct SendRecord
{
    LinkId link = 0;
    MessageKey key;
    std::uint64_t payload_bytes = 0;
    double deadline_s = 0.0; //!< inf = none.
};

/** One wire attempt and its outcome (sender side). */
struct AttemptRecord
{
    LinkId link = 0;
    MessageKey key;
    std::uint32_t chunk_seq = 0;
    std::uint64_t payload_off = 0;
    AttemptOutcome outcome = AttemptOutcome::Timeout;
    std::uint64_t bytes_sent = 0; //!< wire bytes that arrived (hdr + prefix).
    double elapsed_s = 0.0;  //!< wall seconds from attempt to verdict.
    bool message_complete = false;
};

/** One frame as the receiver saw it (receiver side). */
struct RxRecord
{
    LinkId link = 0;
    MessageKey key;
    std::uint32_t chunk_seq = 0;
    std::uint64_t payload_off = 0;
    std::uint32_t frag_len = 0; //!< header's fragment length.
    std::uint32_t got = 0;      //!< payload bytes actually present.
    bool crc_ok = true;         //!< verdict over the assembled chunk.
};

/** Transport configuration echoed into the trace header. */
struct TraceConfig
{
    std::string backend = "des";
    std::uint64_t chunk_bytes = 16 * 1024;
    std::size_t max_attempts = 8;
    double backoff_base_s = 0.05;
    double backoff_max_s = 2.0;
    double jitter_frac = 0.25;
    std::uint64_t jitter_seed = 0x7261676Eull;
    bool resume_from_offset = true;
};

struct TraceParseResult;

/**
 * A recorded transport run: enough to re-issue the same sends and
 * replay every wire decision through the deterministic twin.
 */
struct TransportTrace
{
    TraceConfig config;
    std::vector<SendRecord> sends;
    std::vector<AttemptRecord> attempts;
    std::vector<RxRecord> rx;

    std::string toText() const;

    /** Strict line-based parse; rejections name line and field. */
    static TraceParseResult tryParse(const std::string &text);
};

/** Outcome of TransportTrace::tryParse. */
struct TraceParseResult
{
    TransportTrace trace;
    std::string error; //!< empty on success; line-numbered.

    bool ok() const { return error.empty(); }
};

} // namespace transport
} // namespace net
} // namespace rog

#endif // ROG_NET_TRANSPORT_EVENT_LOG_HPP
