#include "net/transport/socket_backend.hpp"

#include <arpa/inet.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>

#include "common/logging.hpp"

namespace rog {
namespace net {
namespace transport {

namespace {

constexpr std::size_t kMaxDatagram = 65536;

MessageKey
keyOf(const FrameHeader &hdr)
{
    MessageKey key;
    key.worker = hdr.worker;
    key.version = hdr.version;
    key.row = hdr.row;
    key.pull = hdr.pull();
    return key;
}

bool
resolveAddr(const std::string &host, std::uint16_t port,
            sockaddr_in &out)
{
    std::memset(&out, 0, sizeof(out));
    out.sin_family = AF_INET;
    out.sin_port = htons(port);
    return ::inet_pton(AF_INET, host.c_str(), &out.sin_addr) == 1;
}

/**
 * bind(2) with an EADDRINUSE retry window. A server restarted onto
 * its crashed predecessor's port can race the kernel reclaiming the
 * dead process's socket; every other errno fails immediately.
 */
bool
bindWithRetry(int fd, const sockaddr_in &addr, double window_s)
{
    constexpr useconds_t kRetryDelayUs = 50'000; // 50 ms between tries.
    double waited_s = 0.0;
    for (;;) {
        if (::bind(fd,
                   reinterpret_cast<const sockaddr *>(&addr),
                   sizeof(addr)) == 0)
            return true;
        if (errno != EADDRINUSE || waited_s >= window_s)
            return false;
        ::usleep(kRetryDelayUs);
        waited_s += kRetryDelayUs / 1e6;
    }
}

} // namespace

FrameHeader
makeAck(const FrameHeader &data, const FrameReceiver::Result &r)
{
    FrameHeader ack;
    ack.flags = kFlagAck | (data.flags & kFlagPull);
    ack.worker = data.worker;
    ack.version = data.version;
    ack.row = data.row;
    ack.chunk_seq = data.chunk_seq;
    ack.chunk_count = data.chunk_count;
    ack.payload_len = 0;
    ack.payload_crc = 0;
    if (!r.chunk_complete) {
        ack.flags |= kFlagAckPartial;
        ack.payload_off = r.prefix; // resume-from-offset, for real.
        return ack;
    }
    ack.payload_off = data.payload_off;
    if (!r.crc_ok) {
        ack.flags |= kFlagAckCrcFail;
        return ack;
    }
    if (r.duplicates > 0 && r.fresh_accepts == 0)
        ack.flags |= kFlagAckDup;
    if (r.message_complete)
        ack.flags |= kFlagAckComplete;
    return ack;
}

// ---------------------------------------------------------- UdpBackend

UdpBackend::UdpBackend(PollLoop &loop, const std::string &host,
                       std::uint16_t port, const SocketOptions &opts,
                       SocketFaultInjector *faults,
                       TransportTrace *trace)
    : loop_(loop), opts_(opts), trace_(trace), faults_(faults)
{
    sockaddr_in addr{};
    if (!resolveAddr(host, port, addr)) {
        fail("bad address " + host);
        return;
    }
    fd_.reset(::socket(AF_INET, SOCK_DGRAM, 0));
    if (!fd_) {
        fail("udp socket");
        return;
    }
    if (::connect(fd_.get(), reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        fail("udp connect");
        return;
    }
    if (!setNonBlocking(fd_.get())) {
        fail("udp nonblock");
        return;
    }
    loop_.watch(fd_.get(), POLLIN, [this](short) { onReadable(); });
}

UdpBackend::~UdpBackend()
{
    for (auto &[id, p] : pending_)
        loop_.cancel(p.timer);
    for (const auto &[id, timer] : delayed_)
        loop_.cancel(timer);
    if (fd_)
        loop_.unwatch(fd_.get());
}

double
UdpBackend::now() const
{
    return loop_.now();
}

TimerId
UdpBackend::after(double delay_s, std::function<void()> fire)
{
    return loop_.after(delay_s, std::move(fire));
}

void
UdpBackend::cancelTimer(TimerId id)
{
    loop_.cancel(id);
}

std::uint64_t
UdpBackend::openSend(LinkId link, const MessageKey &key)
{
    const std::uint64_t id = next_send_++;
    streams_[id] = Stream{link, key};
    return id;
}

void
UdpBackend::fail(const std::string &what)
{
    if (last_error_.empty())
        last_error_ = what + " (" + std::strerror(errno) + ")";
}

void
UdpBackend::sendFrame(std::uint64_t send_id, const FrameHeader &hdr,
                      std::span<const std::uint8_t> frag, double timeout_s,
                      VerdictCallback done, std::function<void()> drop)
{
    (void)drop; // the socket cannot be torn down under the link.
    ROG_ASSERT(streams_.count(send_id) != 0,
               "sendFrame on unopened stream");
    ROG_ASSERT(pending_.count(send_id) == 0,
               "transport stream is stop-and-wait");

    std::vector<std::uint8_t> bytes(FrameHeader::kWireSize + frag.size());
    hdr.serialize({bytes.data(), FrameHeader::kWireSize});
    std::copy(frag.begin(), frag.end(),
              bytes.begin() + FrameHeader::kWireSize);

    Pending p;
    p.send_id = send_id;
    p.hdr = hdr;
    p.done = std::move(done);
    p.started = loop_.now();
    const double wait = std::isfinite(timeout_s)
                            ? std::min(opts_.ack_timeout_s, timeout_s)
                            : opts_.ack_timeout_s;
    p.timer = loop_.after(
        wait, [this, send_id] { resolveTimeout(send_id); });
    pending_.emplace(send_id, std::move(p));

    emitFrame(std::move(bytes));
}

void
UdpBackend::handleAck(const FrameHeader &ack)
{
    const MessageKey key = keyOf(ack);
    auto it = pending_.end();
    for (auto cand = pending_.begin(); cand != pending_.end(); ++cand) {
        if (keyOf(cand->second.hdr) == key &&
            cand->second.hdr.chunk_seq == ack.chunk_seq) {
            it = cand;
            break;
        }
    }
    if (it == pending_.end())
        return; // late or duplicated ACK: the attempt already resolved.

    Pending p = std::move(it->second);
    pending_.erase(it);
    loop_.cancel(p.timer);

    FrameVerdict v;
    if (ack.flags & kFlagAckPartial) {
        // The receiver holds a contiguous prefix; what this attempt
        // delivered is whatever extends past its own start offset.
        const std::uint64_t progress =
            ack.payload_off > p.hdr.payload_off
                ? std::min<std::uint64_t>(
                      ack.payload_off - p.hdr.payload_off,
                      p.hdr.payload_len)
                : 0;
        v.bytes_sent = FrameHeader::kWireSize + progress;
        v.receiver_prefix = ack.payload_off;
        recordAttempt(p, AttemptOutcome::Partial, v.bytes_sent, false);
        p.done(v);
        return;
    }

    v.completed = true;
    v.bytes_sent = FrameHeader::kWireSize + p.hdr.payload_len;
    v.message_complete = (ack.flags & kFlagAckComplete) != 0;
    if (ack.flags & kFlagAckCrcFail) {
        recordAttempt(p, AttemptOutcome::Corrupt, v.bytes_sent, false);
        p.done(v); // crc_ok stays false.
        return;
    }
    v.crc_ok = true;
    AttemptOutcome out = AttemptOutcome::Accept;
    if (ack.flags & kFlagAckDup) {
        v.duplicates = 1;
        out = AttemptOutcome::Dup;
    } else {
        v.fresh_accepts = 1;
    }
    recordAttempt(p, out, v.bytes_sent, v.message_complete);
    p.done(v);
}

void
UdpBackend::resolveTimeout(std::uint64_t send_id)
{
    auto it = pending_.find(send_id);
    if (it == pending_.end())
        return;
    Pending p = std::move(it->second);
    pending_.erase(it);
    recordAttempt(p, AttemptOutcome::Timeout, 0, false);
    FrameVerdict v; // nothing came back: no progress to report.
    p.done(v);
}

void
UdpBackend::recordAttempt(const Pending &p, AttemptOutcome out,
                          std::uint64_t bytes_sent, bool complete)
{
    if (!trace_)
        return;
    AttemptRecord rec;
    auto sit = streams_.find(p.send_id);
    rec.link = sit != streams_.end() ? sit->second.link : 0;
    rec.key = keyOf(p.hdr);
    rec.chunk_seq = p.hdr.chunk_seq;
    rec.payload_off = p.hdr.payload_off;
    rec.outcome = out;
    rec.bytes_sent = bytes_sent;
    rec.elapsed_s = loop_.now() - p.started;
    rec.message_complete = complete;
    trace_->attempts.push_back(rec);
}

void
UdpBackend::closeSend(std::uint64_t send_id)
{
    auto it = pending_.find(send_id);
    if (it != pending_.end()) {
        loop_.cancel(it->second.timer);
        pending_.erase(it);
    }
    streams_.erase(send_id);
}

void
UdpBackend::setReceiverEventSink(EventSink sink)
{
    (void)sink; // receiver decisions happen in the peer process.
}

void
UdpBackend::emitFrame(std::vector<std::uint8_t> &&wire)
{
    DatagramFate fate;
    if (faults_)
        fate = faults_->next(loop_.now());
    if (fate.drop)
        return;

    const std::size_t payload = wire.size() - FrameHeader::kWireSize;
    if (fate.keep_frac < 1.0 && payload > 0) {
        // Cut the payload mid-fragment: the receiver ACKs the intact
        // prefix and the protocol resumes from that offset.
        const auto keep = static_cast<std::size_t>(
            std::floor(static_cast<double>(payload) * fate.keep_frac));
        wire.resize(FrameHeader::kWireSize + keep);
    }
    if (fate.corrupt && wire.size() > FrameHeader::kWireSize)
        wire[FrameHeader::kWireSize] ^= 0x40; // CRC must catch this.

    const int copies = fate.duplicate ? 2 : 1;
    const auto ship = [this](const std::vector<std::uint8_t> &w,
                             int times) {
        for (int i = 0; i < times; ++i)
            if (::send(fd_.get(), w.data(), w.size(), 0) < 0 &&
                errno != EAGAIN && errno != EWOULDBLOCK)
                fail("udp send");
    };
    if (fate.delay_s > 0.0) {
        const std::uint64_t id = next_delayed_++;
        delayed_[id] = loop_.after(
            fate.delay_s, [this, id, ship, wire = std::move(wire), copies] {
                delayed_.erase(id);
                ship(wire, copies);
            });
        return;
    }
    ship(wire, copies);
}

void
UdpBackend::onReadable()
{
    std::uint8_t buf[kMaxDatagram];
    for (;;) {
        const ssize_t n = ::recv(fd_.get(), buf, sizeof(buf), 0);
        if (n < 0) {
            if (errno != EAGAIN && errno != EWOULDBLOCK &&
                errno != ECONNREFUSED)
                fail("udp recv");
            return;
        }
        const auto hdr = FrameHeader::parse(
            {buf, static_cast<std::size_t>(n)});
        if (!hdr || (hdr->flags & kFlagAck) == 0)
            continue; // not an intact ACK: ignore.
        handleAck(*hdr);
    }
}

// -------------------------------------------------- UdpReceiverEndpoint

UdpReceiverEndpoint::UdpReceiverEndpoint(PollLoop &loop,
                                         std::uint16_t port,
                                         DeliverySink deliver,
                                         double bind_retry_window_s)
    : loop_(loop),
      receiver_([&loop] { return loop.now(); }, {}, std::move(deliver))
{
    fd_.reset(::socket(AF_INET, SOCK_DGRAM, 0));
    if (!fd_) {
        fail("udp socket");
        return;
    }
    // No SO_REUSEADDR: on Linux two reuse-flagged UDP sockets may share
    // an address, so an ephemeral bind could land on a live endpoint's
    // port and steal its unicast datagrams. A restarted server that
    // reclaims its old port rides the bind-retry window instead.
    sockaddr_in addr{};
    resolveAddr("127.0.0.1", port, addr);
    if (!bindWithRetry(fd_.get(), addr, bind_retry_window_s)) {
        fail("udp bind");
        return;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(fd_.get(), reinterpret_cast<sockaddr *>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    if (!setNonBlocking(fd_.get())) {
        fail("udp nonblock");
        return;
    }
    loop_.watch(fd_.get(), POLLIN, [this](short) { onReadable(); });
}

UdpReceiverEndpoint::~UdpReceiverEndpoint()
{
    if (fd_)
        loop_.unwatch(fd_.get());
}

void
UdpReceiverEndpoint::fail(const std::string &what)
{
    if (last_error_.empty())
        last_error_ = what + " (" + std::strerror(errno) + ")";
}

FrameHeader
UdpReceiverEndpoint::onDataFrame(const FrameHeader &hdr,
                                 std::span<const std::uint8_t> present)
{
    const FrameReceiver::Result r = receiver_.onFrame(0, hdr, present);

    if (trace_) {
        RxRecord rec;
        rec.link = 0;
        rec.key = keyOf(hdr);
        rec.chunk_seq = hdr.chunk_seq;
        rec.payload_off = hdr.payload_off;
        rec.frag_len = hdr.payload_len;
        rec.got = static_cast<std::uint32_t>(present.size());
        rec.crc_ok = r.chunk_complete ? r.crc_ok : true;
        trace_->rx.push_back(rec);
    }
    return makeAck(hdr, r);
}

void
UdpReceiverEndpoint::onReadable()
{
    std::uint8_t buf[kMaxDatagram];
    for (;;) {
        sockaddr_in src{};
        socklen_t slen = sizeof(src);
        const ssize_t n =
            ::recvfrom(fd_.get(), buf, sizeof(buf), 0,
                       reinterpret_cast<sockaddr *>(&src), &slen);
        if (n < 0) {
            if (errno != EAGAIN && errno != EWOULDBLOCK)
                fail("udp recv");
            return;
        }
        if (n < static_cast<ssize_t>(FrameHeader::kWireSize))
            continue; // not even a whole header: line noise.
        const auto hdr =
            FrameHeader::parse({buf, FrameHeader::kWireSize});
        if (!hdr || (hdr->flags & kFlagAck) != 0)
            continue; // corrupt header or a stray ACK: drop.
        const std::size_t got = std::min(
            static_cast<std::size_t>(n) - FrameHeader::kWireSize,
            static_cast<std::size_t>(hdr->payload_len));
        const FrameHeader ack =
            onDataFrame(*hdr, {buf + FrameHeader::kWireSize, got});
        std::uint8_t wire[FrameHeader::kWireSize];
        ack.serialize(wire);
        if (::sendto(fd_.get(), wire, sizeof(wire), 0,
                     reinterpret_cast<sockaddr *>(&src), slen) < 0 &&
            errno != EAGAIN && errno != EWOULDBLOCK)
            fail("udp ack send");
    }
}

} // namespace transport
} // namespace net
} // namespace rog
