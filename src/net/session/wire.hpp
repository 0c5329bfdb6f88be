/**
 * @file
 * Session-layer wire messages.
 *
 * The session layer multiplexes everything a training node says onto
 * the transport's MessageKey space: a worker's gradient push for one
 * iteration is one message in the data band (row kRowPush), carrying
 * every synchronization unit, while control traffic (handshake,
 * heartbeats, pull requests, pull data, goodbyes) lives in a reserved
 * row band at the top of the 32-bit row space.
 * The 64-bit version field carries a (scope, sequence) pair — scope is
 * the server-assigned session id after admission (the worker's
 * incarnation during the handshake), sequence is the training
 * iteration or a per-kind counter — so a message key can never repeat
 * across a crash/restart boundary and the transport's per-key
 * exactly-once state composes with process-level faults.
 *
 * Payload encoding is explicit little-endian with no padding; every
 * parse is total (returns false on truncation) because the bytes come
 * off a network.
 */
#ifndef ROG_NET_SESSION_WIRE_HPP
#define ROG_NET_SESSION_WIRE_HPP

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/transport/event_log.hpp"

namespace rog {
namespace net {
namespace session {

using transport::MessageKey;

/** Fabric node id of the parameter server. */
inline constexpr int kServerNode = 0;

/** Fabric node id of ROG worker @p w. */
inline int
workerNode(std::size_t w)
{
    return static_cast<int>(w) + 1;
}

/** Row of a worker's push: one message per iteration, every unit in
 *  it. It lies in the data band, below every control row. */
inline constexpr std::uint32_t kRowPush = 0;

/** Control-plane rows: the top band of the row space. */
inline constexpr std::uint32_t kRowControlBase = 0xFFFF0000u;
inline constexpr std::uint32_t kRowHello = kRowControlBase + 1;
inline constexpr std::uint32_t kRowWelcome = kRowControlBase + 2;
inline constexpr std::uint32_t kRowReject = kRowControlBase + 3;
inline constexpr std::uint32_t kRowHeartbeat = kRowControlBase + 4;
inline constexpr std::uint32_t kRowPullReq = kRowControlBase + 5;
inline constexpr std::uint32_t kRowPullData = kRowControlBase + 6;
inline constexpr std::uint32_t kRowBye = kRowControlBase + 7;

/** True when @p row is in the control band. */
inline bool
isControlRow(std::uint32_t row)
{
    return row >= kRowControlBase;
}

/** (scope << 24) | seq — scope disambiguates sessions/incarnations. */
std::int64_t packVersion(std::uint32_t scope, std::int64_t seq);
std::uint32_t versionScope(std::int64_t version);
std::int64_t versionSeq(std::int64_t version);

/** Why a Hello was turned away. */
enum class RejectReason : std::uint8_t {
    BadEpoch = 1,   //!< wrong run epoch; the reject carries the right one.
    StaleToken = 2, //!< resume token from a superseded session.
};

/** How an admitted worker (re)enters the run. */
enum class AdmitMode : std::uint8_t {
    Fresh = 0,  //!< first admission; model included.
    Rejoin = 1, //!< re-admission with full model resync.
    Resume = 2, //!< re-admission from a valid local checkpoint; no model.
};

const char *rejectReasonName(RejectReason r);
const char *admitModeName(AdmitMode m);

/** Worker -> server: open (or reopen) a session. */
struct Hello
{
    std::uint16_t worker = 0;
    std::uint32_t incarnation = 0; //!< restarts of this worker process.
    std::uint64_t epoch = 0;       //!< run epoch the worker believes in.
    std::uint64_t resume_token = 0; //!< 0 = none (fresh or lost state).
    std::uint64_t nonce = 0;        //!< echoes back in the response.
    std::uint16_t rx_port = 0;      //!< worker's receiver endpoint.
    std::int64_t last_done_iter = 0; //!< durable local progress claim.
};

/** Server -> worker: admission. */
struct Welcome
{
    std::uint64_t nonce = 0; //!< Hello echo.
    std::uint32_t session = 0;
    std::uint64_t resume_token = 0; //!< present in the *next* Hello.
    AdmitMode mode = AdmitMode::Fresh;
    std::int64_t start_iter = 0; //!< first training iteration is +1.
    std::uint64_t epoch = 0;
    std::vector<std::uint8_t> model; //!< empty on Resume.
};

/** Server -> worker: admission refused. */
struct Reject
{
    std::uint64_t nonce = 0;
    RejectReason reason = RejectReason::BadEpoch;
    std::uint64_t server_epoch = 0;
};

/** Worker -> server: liveness + progress. */
struct Heartbeat
{
    std::uint16_t worker = 0;
    std::int64_t iter = 0;
};

/** Worker -> server: all pushes of @p iter are in; gate me. */
struct PullReq
{
    std::uint16_t worker = 0;
    std::int64_t iter = 0;
};

/**
 * One unit of a parsed Push or PullData: the unit index and its values
 * as little-endian f32 bytes, a view into the parsed message.
 */
struct UnitEntry
{
    std::uint32_t unit = 0;
    std::span<const std::uint8_t> values; //!< 4 bytes per value.

    std::size_t size() const { return values.size() / 4; }

    /** Decode the values into @p out, which holds size() floats. */
    void decode(std::span<float> out) const;
};

/** Worker -> server: every unit of the worker's iteration @p iter. */
struct Push
{
    std::int64_t iter = 0;
    std::vector<UnitEntry> units;
};

/** Server -> worker: averaged gradients pending for the worker. */
struct PullData
{
    std::int64_t iter = 0;     //!< echoed PullReq iteration.
    std::int64_t min_done = 0; //!< gate floor at response time.
    std::vector<UnitEntry> units;
};

/**
 * Encodes a Push or a PullData straight into a caller's buffer, one
 * unit at a time: the one writer of a unit list. The buffer's capacity
 * is reused, so a steady stream of messages allocates nothing.
 */
class UnitListWriter
{
  public:
    /** Start a Push of @p iter in @p out, replacing its contents. */
    static UnitListWriter push(std::vector<std::uint8_t> &out,
                               std::int64_t iter);
    /** Start a PullData in @p out, replacing its contents. */
    static UnitListWriter pullData(std::vector<std::uint8_t> &out,
                                   std::int64_t iter,
                                   std::int64_t min_done);

    /** Append unit @p unit with @p values. */
    void add(std::uint32_t unit, std::span<const float> values);

    /** Units appended so far. */
    std::uint32_t units() const { return units_; }

  private:
    /** Append the unit count field to @p out's header. */
    explicit UnitListWriter(std::vector<std::uint8_t> &out);

    std::vector<std::uint8_t> &out_;
    std::size_t count_at_ = 0; //!< offset of the unit count field.
    std::uint32_t units_ = 0;
};

/** Worker -> server: graceful leave after finishing. */
struct Bye
{
    std::uint16_t worker = 0;
    std::int64_t done_iter = 0;
};

std::vector<std::uint8_t> encode(const Hello &m);
std::vector<std::uint8_t> encode(const Welcome &m);
std::vector<std::uint8_t> encode(const Reject &m);
std::vector<std::uint8_t> encode(const Heartbeat &m);
std::vector<std::uint8_t> encode(const PullReq &m);
std::vector<std::uint8_t> encode(const Bye &m);

bool parse(std::span<const std::uint8_t> in, Hello &out);
bool parse(std::span<const std::uint8_t> in, Welcome &out);
bool parse(std::span<const std::uint8_t> in, Reject &out);
bool parse(std::span<const std::uint8_t> in, Heartbeat &out);
bool parse(std::span<const std::uint8_t> in, PullReq &out);
bool parse(std::span<const std::uint8_t> in, Bye &out);

/** Push and PullData parses leave @p out's entries viewing @p in; on
 *  failure @p out keeps no entry. */
bool parse(std::span<const std::uint8_t> in, Push &out);
bool parse(std::span<const std::uint8_t> in, PullData &out);

} // namespace session
} // namespace net
} // namespace rog

#endif // ROG_NET_SESSION_WIRE_HPP
