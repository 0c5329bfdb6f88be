/**
 * @file
 * The node run log as a typed record: one NodeEvent per line that
 * ServerNode, WorkerNode and their process runners (node_runner) write,
 * one writer (appendLine, and toLine over it) and one reader
 * (tryParseNodeEvent, readNodeLog).
 *
 * A line is `[t=<seconds> ]<word> key=value ...`, with each kind's
 * word and keys fixed by ROG_NODE_EVENTS below. Runner kinds carry no
 * time; phase kinds write their word as `iter=<n> phase=<word>`.
 * Integers are plain decimal; a list (`versions`, `unit_list`) is its
 * integers joined by commas, never empty. Doubles (times, phi,
 * silence) are spelled as printf's `%.6g`: six significant digits,
 * trailing zeros dropped, an exponent only below 1e-04 or from 1e+06
 * up, and "inf" / "nan" for the special values (common/text_line's
 * appendNumber; the same bytes an iostream writes at its default
 * precision).
 *
 * The reader sits on the shared strict line reader (common/text_line)
 * and accepts exactly what the writer emits: a line that parses but
 * does not re-render byte-identically is rejected.
 */
#ifndef ROG_CORE_NODE_EVENT_HPP
#define ROG_CORE_NODE_EVENT_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/failure_detector.hpp"
#include "net/session/wire.hpp"

namespace rog {
namespace core {

// clang-format off
/** Every line shape: X(kind, word, timed, phase, keys in order). */
#define ROG_NODE_EVENTS(X)                                                  \
    /* ServerNode */                                                        \
    X(RecoverFailed, "recover_failed", true, false, "why") /* quoted */     \
    X(ServerStart, "server_start", true, false, "epoch recovered")          \
    X(RecoverW, "recover_w", true, false, "w versions")                     \
    X(StaleDrop, "stale_drop", true, false, "w scope")                      \
    X(HelloConnectFailed, "hello_connect_failed", true, false, "w port")    \
    X(Reject, "reject", true, false, "w reason inc")                        \
    X(Admit, "admit", true, false,                                          \
      "w mode session start inc model_bytes epoch")                         \
    X(DupPush, "dup_push", true, false, "w iter unit_list")                 \
    X(Apply, "apply", true, false, "w iter unit_list")                      \
    X(PullReq, "pull_req", true, false, "w iter")                           \
    X(ServerBye, "bye", true, false, "w done_iter")                         \
    X(Member, "member", true, false, "w from to phi")                       \
    X(Evict, "evict", true, false, "w")                                     \
    X(PullAnswer, "pull_answer", true, false, "w iter units")               \
    X(Checkpoint, "checkpoint", true, false, "iter applied")                \
    X(ServerDone, "server_done", true, false, "")                           \
    /* WorkerNode */                                                        \
    X(ConnectFailed, "connect_failed", true, false, "")                     \
    X(Hello, "hello", true, false, "try inc token done_iter")               \
    X(HelloGiveup, "hello_giveup", true, false, "")                         \
    X(Welcome, "welcome", true, false,                                      \
      "mode session start epoch model_bytes")                               \
    X(Rejected, "rejected", true, false, "reason")                          \
    X(PushBegin, "push_begin", true, true, "")                              \
    X(Repush, "repush", true, true, "units")                                \
    X(PushDone, "push_done", true, true, "")                                \
    X(Applied, "applied", true, true, "units")                              \
    X(WorkerBye, "bye", true, false, "done_iter")                           \
    X(ServerSuspect, "server_suspect", true, false, "silence")              \
    X(Resync, "resync", true, false, "why")                                 \
    X(StateWriteFailed, "state_write_failed", true, false,                  \
      "iter why") /* quoted */                                              \
    /* node_runner */                                                       \
    X(WorkerStart, "worker_start", false, false, "w inc token done_iter")   \
    X(ServerTimeout, "server_timeout", false, false, "")                    \
    X(WorkerTimeout, "worker_timeout", false, false, "")                    \
    X(DesServerKilled, "des_server_killed", false, false, "")
// clang-format on

/** One run-log line. Only the fields of its kind are meaningful. */
struct NodeEvent
{
#define ROG_NODE_EVENT_KIND(kind, ...) kind,
    enum class Kind : std::uint8_t { ROG_NODE_EVENTS(ROG_NODE_EVENT_KIND) };
#undef ROG_NODE_EVENT_KIND

    Kind kind = Kind::ServerDone;
    double t = 0.0; //!< seconds on the node's clock (timed kinds).
    std::size_t w = 0;
    std::int64_t iter = 0;
    /** apply / dup_push: the push's units, in message order. */
    std::vector<std::size_t> unit_list = {};
    std::uint64_t epoch = 0;
    bool recovered = false;
    /** recover_w: the restored per-unit apply watermark. */
    std::vector<std::int64_t> versions = {};
    std::uint32_t scope = 0;
    std::uint16_t port = 0;
    net::session::RejectReason reason = net::session::RejectReason::BadEpoch;
    std::uint32_t inc = 0;
    net::session::AdmitMode mode = net::session::AdmitMode::Fresh;
    std::uint32_t session = 0;
    std::int64_t start = 0;
    std::size_t model_bytes = 0;
    std::int64_t done_iter = 0;
    MemberState from = MemberState::Alive;
    MemberState to = MemberState::Alive;
    double phi = 0.0;
    std::size_t units = 0;
    std::size_t applied = 0;
    std::size_t tries = 0; //!< hello's `try=`.
    std::uint64_t token = 0;
    double silence = 0.0;
    std::string why = {};

    bool operator==(const NodeEvent &) const = default;
};

/** Whether lines of @p kind carry a time (`t=`). */
bool isTimed(NodeEvent::Kind kind);

/** Append @p ev's run-log line (no newline) to @p out. */
void appendLine(const NodeEvent &ev, std::string &out);

/** Render @p ev as its run-log line (no newline). */
std::string toLine(const NodeEvent &ev);

/** Outcome of parsing one run-log line. */
struct NodeEventParseResult
{
    NodeEvent event;
    std::string error; //!< empty on success.

    bool ok() const { return error.empty(); }
};

/** Strictly parse one toLine() line; @p line_no > 0 numbers errors. */
NodeEventParseResult tryParseNodeEvent(const std::string &line,
                                       std::size_t line_no = 0);

/** Outcome of reading a whole run log. */
struct NodeLogReadResult
{
    std::vector<NodeEvent> events;
    std::string error; //!< empty on success; line-numbered otherwise.

    bool ok() const { return error.empty(); }
};

/**
 * Read the run log at @p path. A missing file is an empty log. An
 * unterminated final line is ignored: the writer may be mid-line, as
 * when a supervisor polls a live process's log. Any other bad line
 * fails the whole read (no partial events).
 */
NodeLogReadResult readNodeLog(const std::string &path);

} // namespace core
} // namespace rog

#endif // ROG_CORE_NODE_EVENT_HPP
