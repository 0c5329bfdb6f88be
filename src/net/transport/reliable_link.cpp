#include "net/transport/reliable_link.hpp"

#include <algorithm>
#include <cmath>

#include "common/crc32c.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "net/transport/payload.hpp"

namespace rog {
namespace net {
namespace transport {

/** State of one in-flight message send. */
struct ReliableLink::SendOp
{
    std::uint64_t id = 0;     //!< protocol-core op id.
    std::uint64_t stream = 0; //!< backend send-stream handle.
    LinkId link = 0;
    MessageKey key;
    double deadline = kNoDeadline;
    std::span<const std::uint8_t> payload; //!< views payload_copy.
    Callback done;
    std::function<void()> drop;
    Rng jitter;
    double start_time = 0.0;

    std::uint32_t chunk_count = 1;
    std::uint32_t seq = 0;          //!< chunk currently being sent.
    std::span<const std::uint8_t> chunk; //!< that chunk's bytes.
    std::uint32_t chunk_crc = 0;    //!< CRC of that chunk (cached).
    std::uint64_t resume_off = 0;   //!< intact delivered prefix.
    std::uint64_t high_water = 0;   //!< most ever delivered (retransmit acct).
    std::size_t chunk_attempts = 0;
    std::size_t backoff_exp = 0;

    // Pool-leased retransmission copy: recycled when the op retires,
    // so a steady stream of sends allocates nothing after warm-up.
    BufferPool::Lease<std::uint8_t> payload_copy;
#ifdef ROG_SANITIZE_BUILD
    std::uint32_t payload_guard_crc = 0; //!< lifetime canary.
#endif

    TimerId backoff_timer = 0;
    SendResult res;
};

ReliableLink::ReliableLink(Backend &backend, const TransportConfig &config,
                           EventSink sink)
    : backend_(backend), config_(config), sink_(std::move(sink))
{
    ROG_ASSERT(config_.chunk_bytes > 0,
               "transport chunk size must be positive");
    ROG_ASSERT(config_.chunk_bytes <= kMaxChunkBytes,
               "transport chunk size exceeds the wire's kMaxChunkBytes");
    ROG_ASSERT(config_.backoff_base_s > 0.0,
               "transport backoff base must be positive");
    ROG_ASSERT(config_.jitter_frac >= 0.0 && config_.jitter_frac < 1.0,
               "transport jitter fraction must be in [0, 1)");
    backend_.setReceiverEventSink(sink_);
}

ReliableLink::~ReliableLink()
{
    *alive_ = false;
    for (auto &[id, op] : ops_) {
        backend_.cancelTimer(op->backoff_timer);
        backend_.closeSend(op->stream);
        if (op->drop)
            op->drop();
    }
}

void
ReliableLink::reset()
{
    // Move the map out first: a done callback may start a new send
    // on this link, which must not land in the set being torn down.
    auto ops = std::move(ops_);
    ops_.clear();
    for (auto &[id, op] : ops) {
        backend_.cancelTimer(op->backoff_timer);
        backend_.closeSend(op->stream);
        op->res.delivered = false;
        op->res.elapsed_s = backend_.now() - op->start_time;
        Callback done = std::move(op->done);
        std::function<void()> drop = std::move(op->drop);
        if (done)
            done(op->res);
        else if (drop)
            drop();
    }
}

std::span<const std::uint8_t>
ReliableLink::chunkPayload(const SendOp &op, std::uint32_t seq) const
{
    const std::size_t off =
        static_cast<std::size_t>(seq) * config_.chunk_bytes;
    return op.payload.subspan(
        off, std::min(config_.chunk_bytes, op.payload.size() - off));
}

void
ReliableLink::startSend(LinkId link, const MessageKey &key,
                        std::span<const std::uint8_t> payload,
                        double deadline_s, Callback done,
                        std::function<void()> drop)
{
    auto op = std::make_unique<SendOp>();
    op->id = next_op_id_++;
    op->link = link;
    op->key = key;
    op->deadline = deadline_s;
    op->done = std::move(done);
    op->drop = std::move(drop);
    op->jitter = Rng(messageSeed(config_.jitter_seed, key, 0));
    op->start_time = backend_.now();
    op->chunk_count = config_.chunkCount(payload.size());
    if (!payload.empty()) {
        // Lease the retransmission copy before returning: the caller's
        // span only has to survive this call.
        op->payload_copy = BufferPool::global().leaseBytes(payload.size());
        std::copy(payload.begin(), payload.end(),
                  op->payload_copy.data());
        op->payload = {op->payload_copy.data(), op->payload_copy.size()};
#ifdef ROG_SANITIZE_BUILD
        op->payload_guard_crc = crc32c(op->payload);
#endif
    }
    op->res.payload_bytes = payload.size();
    op->res.chunks = op->chunk_count;
    op->chunk = chunkPayload(*op, 0);
    op->chunk_crc = crc32c(op->chunk);
    ++totals_.sends;
    op->stream = backend_.openSend(link, key);

    SendOp &ref = *op;
    ops_.emplace(ref.id, std::move(op));
    attempt(ref);
}

void
ReliableLink::attempt(SendOp &op)
{
    const double now = backend_.now();
    if (now >= op.deadline) {
        finish(op, false, true);
        return;
    }

#ifdef ROG_SANITIZE_BUILD
    // Payload-lifetime canary: the leased copy taken at startSend
    // must still checksum to the value captured there; a mismatch
    // means someone clobbered the pooled buffer mid-send (e.g. a
    // premature release re-leased it elsewhere).
    if (!op.payload.empty())
        ROG_ASSERT(crc32c(op.payload) == op.payload_guard_crc,
                   "leased payload copy mutated mid-send");
#endif

    FrameHeader hdr;
    hdr.flags = op.key.pull ? kFlagPull : 0;
    hdr.worker = op.key.worker;
    hdr.version = op.key.version;
    hdr.row = op.key.row;
    hdr.chunk_seq = op.seq;
    hdr.chunk_count = op.chunk_count;
    hdr.payload_off = op.resume_off;
    const auto frag =
        op.chunk.subspan(static_cast<std::size_t>(op.resume_off));
    hdr.payload_len = static_cast<std::uint32_t>(frag.size());
    // Per chunk, not per attempt: cached when the chunk became
    // current, so retries skip the checksum.
    hdr.payload_crc = op.chunk_crc;

    const double timeout =
        std::isfinite(op.deadline) ? op.deadline - now : kNoDeadline;

    ++op.res.attempts;
    ++op.chunk_attempts;
    logEvent(TransportEvent::Kind::Attempt, op, op.seq,
             static_cast<double>(FrameHeader::kWireSize + frag.size()),
             static_cast<double>(op.resume_off));

    const std::uint64_t id = op.id;
    backend_.sendFrame(
        op.stream, hdr, frag, timeout,
        [this, alive = alive_, id](const FrameVerdict &v) {
            if (*alive)
                onFrameVerdict(id, v);
        },
        [this, alive = alive_, id] {
            if (*alive)
                dropOp(id);
        });
}

void
ReliableLink::dropOp(std::uint64_t op_id)
{
    auto it = ops_.find(op_id);
    if (it == ops_.end())
        return;
    backend_.cancelTimer(it->second->backoff_timer);
    backend_.closeSend(it->second->stream);
    std::function<void()> drop = std::move(it->second->drop);
    ops_.erase(it);
    if (drop)
        drop();
}

void
ReliableLink::onFrameVerdict(std::uint64_t op_id, const FrameVerdict &v)
{
    auto it = ops_.find(op_id);
    if (it == ops_.end())
        return;
    SendOp &op = *it->second;

    const std::uint64_t delivered = v.bytes_sent;
    const std::uint64_t hdr_delivered =
        std::min<std::uint64_t>(delivered, FrameHeader::kWireSize);
    const std::uint64_t payload_delivered = delivered - hdr_delivered;
    op.res.bytes_sent += delivered;

    // Anything delivered on a retry that had already been delivered
    // before is retransmission: the header every time, plus the
    // overlap of this fragment with the chunk's high-water mark.
    if (op.chunk_attempts > 1) {
        const std::uint64_t end =
            std::min(op.resume_off + payload_delivered, op.high_water);
        op.res.retransmitted_bytes +=
            hdr_delivered + (end > op.resume_off ? end - op.resume_off : 0);
    }
    op.high_water =
        std::max(op.high_water, op.resume_off + payload_delivered);

    if (v.completed) {
        resolveChunk(op, v);
        return;
    }

    // Cut mid-flow (truncation, forced timeout, or deadline): resume
    // from the prefix the receiver reports holding, even behind this
    // attempt's offset (it restarted mid-chunk), or, without a report,
    // past what this attempt delivered; in baseline mode restart from
    // scratch. New bytes arriving counts as progress and resets the
    // backoff exponent.
    const bool progress = payload_delivered > 0;
    if (config_.resume_from_offset) {
        op.resume_off = std::min<std::uint64_t>(
            op.chunk.size(),
            v.receiver_prefix.value_or(op.resume_off + payload_delivered));
        logEvent(TransportEvent::Kind::Resume, op, op.seq,
                 static_cast<double>(op.resume_off),
                 static_cast<double>(op.chunk.size()));
    } else {
        op.resume_off = 0;
    }
    if (progress)
        op.backoff_exp = 0;

    if (config_.max_attempts_per_chunk > 0 &&
        op.chunk_attempts >= config_.max_attempts_per_chunk) {
        finish(op, false, false);
        return;
    }
    scheduleRetry(op);
}

void
ReliableLink::resolveChunk(SendOp &op, const FrameVerdict &v)
{
    // Receiver-side events (Accept / Duplicate / CorruptDrop /
    // Deliver) are emitted by the FrameReceiver through the backend's
    // event sink when the receiver runs in-process; the sender only
    // accounts and advances here.
    if (!v.crc_ok) {
        ++op.res.corrupt_chunks;
        // Discard: the prefix is untrustworthy, restart the chunk.
        op.resume_off = 0;
        if (config_.max_attempts_per_chunk > 0 &&
            op.chunk_attempts >= config_.max_attempts_per_chunk) {
            finish(op, false, false);
            return;
        }
        scheduleRetry(op);
        return;
    }

    op.res.duplicate_chunks += v.duplicates;

    // Chunk resolved (accepted or dedup'd): advance to the next chunk
    // with fresh retry state.
    ++op.seq;
    op.resume_off = 0;
    op.high_water = 0;
    op.chunk_attempts = 0;
    op.backoff_exp = 0;
    if (op.seq < op.chunk_count) {
        op.chunk = chunkPayload(op, op.seq);
        op.chunk_crc = crc32c(op.chunk);
        attempt(op);
        return;
    }
    ROG_ASSERT(v.message_complete,
               "message finished sending with chunks unaccepted");
    finish(op, true, false);
}

void
ReliableLink::scheduleRetry(SendOp &op)
{
    double delay = std::min(
        config_.backoff_max_s,
        config_.backoff_base_s *
            std::pow(2.0, static_cast<double>(op.backoff_exp)));
    // Seeded deterministic jitter in [1 - f, 1 + f).
    const double u = op.jitter.uniform();
    delay *= 1.0 - config_.jitter_frac +
             2.0 * config_.jitter_frac * u;
    const double now = backend_.now();
    if (std::isfinite(op.deadline) && now + delay >= op.deadline) {
        // Deadline-aware: backing off past the deadline is pointless.
        finish(op, false, true);
        return;
    }
    ++op.res.retries;
    logEvent(TransportEvent::Kind::Backoff, op, op.seq, delay,
             static_cast<double>(op.backoff_exp));
    // Saturate rather than double forever: a partition that outlives
    // ~32 retries keeps the delay pinned at the cap instead of pushing
    // the exponent into meaningless territory.
    if (op.backoff_exp < kMaxBackoffExponent)
        ++op.backoff_exp;
    op.res.backoff_s += delay;
    const std::uint64_t id = op.id;
    op.backoff_timer =
        backend_.after(delay, [this, alive = alive_, id] {
            if (!*alive)
                return;
            auto it = ops_.find(id);
            if (it == ops_.end())
                return;
            it->second->backoff_timer = 0;
            attempt(*it->second);
        });
}

void
ReliableLink::finish(SendOp &op, bool delivered, bool expired)
{
    backend_.cancelTimer(op.backoff_timer);
    op.backoff_timer = 0;
    backend_.closeSend(op.stream);
    op.res.delivered = delivered;
    op.res.deadline_expired = expired;
    op.res.elapsed_s = backend_.now() - op.start_time;
    if (!delivered)
        logEvent(TransportEvent::Kind::Fail, op, op.seq,
                 expired ? 1.0 : 0.0);

    totals_.delivered += delivered ? 1 : 0;
    totals_.failed += delivered ? 0 : 1;
    totals_.attempts += op.res.attempts;
    totals_.retries += op.res.retries;
    totals_.backoff_s += op.res.backoff_s;
    totals_.bytes_sent += op.res.bytes_sent;
    totals_.retransmitted_bytes += op.res.retransmitted_bytes;
    totals_.corrupt_chunks += op.res.corrupt_chunks;
    totals_.duplicate_chunks += op.res.duplicate_chunks;

    const SendResult res = op.res;
    Callback done = std::move(op.done);
    ops_.erase(op.id);
    if (done)
        done(res);
}

void
ReliableLink::logEvent(TransportEvent::Kind kind, const SendOp &op,
                       std::uint32_t seq, double a, double b)
{
    if (!sink_)
        return;
    TransportEvent ev;
    ev.t = backend_.now();
    ev.kind = kind;
    ev.link = op.link;
    ev.key = op.key;
    ev.chunk_seq = seq;
    ev.a = a;
    ev.b = b;
    sink_(ev);
}

} // namespace transport
} // namespace net
} // namespace rog
