#include "net/session/wire.hpp"

#include <bit>
#include <cstring>

#include "common/logging.hpp"

namespace rog {
namespace net {
namespace session {

namespace {

/** Append-only little-endian serializer. */
class ByteWriter
{
  public:
    explicit ByteWriter(std::vector<std::uint8_t> &out) : out_(out) {}

    void
    u8(std::uint8_t v)
    {
        out_.push_back(v);
    }

    void
    u16(std::uint16_t v)
    {
        out_.push_back(static_cast<std::uint8_t>(v));
        out_.push_back(static_cast<std::uint8_t>(v >> 8));
    }

    void
    u32(std::uint32_t v)
    {
        u16(static_cast<std::uint16_t>(v));
        u16(static_cast<std::uint16_t>(v >> 16));
    }

    void
    u64(std::uint64_t v)
    {
        u32(static_cast<std::uint32_t>(v));
        u32(static_cast<std::uint32_t>(v >> 32));
    }

    void
    i64(std::int64_t v)
    {
        u64(static_cast<std::uint64_t>(v));
    }

    void
    f32(float v)
    {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u32(bits);
    }

    void
    bytes(std::span<const std::uint8_t> v)
    {
        out_.insert(out_.end(), v.begin(), v.end());
    }

  private:
    std::vector<std::uint8_t> &out_;
};

/** Cursor-based little-endian deserializer; every read is total. */
class ByteReader
{
  public:
    explicit ByteReader(std::span<const std::uint8_t> in) : in_(in) {}

    bool
    u8(std::uint8_t &v)
    {
        if (pos_ + 1 > in_.size())
            return false;
        v = in_[pos_++];
        return true;
    }

    bool
    u16(std::uint16_t &v)
    {
        if (pos_ + 2 > in_.size())
            return false;
        v = static_cast<std::uint16_t>(in_[pos_]) |
            static_cast<std::uint16_t>(in_[pos_ + 1]) << 8;
        pos_ += 2;
        return true;
    }

    bool
    u32(std::uint32_t &v)
    {
        std::uint16_t lo = 0;
        std::uint16_t hi = 0;
        if (!u16(lo) || !u16(hi))
            return false;
        v = static_cast<std::uint32_t>(lo) |
            static_cast<std::uint32_t>(hi) << 16;
        return true;
    }

    bool
    u64(std::uint64_t &v)
    {
        std::uint32_t lo = 0;
        std::uint32_t hi = 0;
        if (!u32(lo) || !u32(hi))
            return false;
        v = static_cast<std::uint64_t>(lo) |
            static_cast<std::uint64_t>(hi) << 32;
        return true;
    }

    bool
    i64(std::int64_t &v)
    {
        std::uint64_t bits = 0;
        if (!u64(bits))
            return false;
        v = static_cast<std::int64_t>(bits);
        return true;
    }

    bool
    f32(float &v)
    {
        std::uint32_t bits = 0;
        if (!u32(bits))
            return false;
        std::memcpy(&v, &bits, sizeof v);
        return true;
    }

    bool
    bytes(std::size_t n, std::vector<std::uint8_t> &out)
    {
        // n comes off the wire; pos_ + n could wrap size_t and slip
        // past a naive bound check.
        if (n > in_.size() - pos_)
            return false;
        out.assign(in_.begin() + static_cast<std::ptrdiff_t>(pos_),
                   in_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
        pos_ += n;
        return true;
    }

    /** View the next @p n bytes (n comes off the wire). */
    bool
    view(std::size_t n, std::span<const std::uint8_t> &out)
    {
        if (n > in_.size() - pos_)
            return false;
        out = in_.subspan(pos_, n);
        pos_ += n;
        return true;
    }

    bool done() const { return pos_ == in_.size(); }

    std::size_t remaining() const { return in_.size() - pos_; }

  private:
    std::span<const std::uint8_t> in_;
    std::size_t pos_ = 0;
};

/** Per-message tag byte: catches crossed control rows early. */
enum : std::uint8_t {
    kTagHello = 0x11,
    kTagWelcome = 0x12,
    kTagReject = 0x13,
    kTagHeartbeat = 0x14,
    kTagPullReq = 0x15,
    kTagPullData = 0x16,
    kTagBye = 0x17,
    kTagPush = 0x18,
};

/**
 * The one reader of a unit list (Push and PullData): a u32 unit count,
 * then per unit a u32 index, a u32 value count and the f32 values.
 * Total: the list must end the message exactly.
 */
bool
readUnitList(ByteReader &r, std::vector<UnitEntry> &out)
{
    std::uint32_t units = 0;
    if (!r.u32(units))
        return false;
    // The counts are untrusted: a short message claiming ~2^32 units
    // or floats must fail the parse, not drive a multi-GB allocation.
    // Each unit occupies at least 8 header bytes, each value 4.
    out.clear();
    if (units > r.remaining() / 8)
        return false;
    out.reserve(units);
    for (std::uint32_t i = 0; i < units; ++i) {
        UnitEntry e;
        std::uint32_t n = 0;
        if (!(r.u32(e.unit) && r.u32(n)))
            return false;
        if (n > r.remaining() / 4 ||
            !r.view(std::size_t{n} * 4, e.values))
            return false;
        out.push_back(e);
    }
    return r.done();
}

} // namespace

std::int64_t
packVersion(std::uint32_t scope, std::int64_t seq)
{
    // seq lives in the low 24 bits of the key; silently truncating a
    // larger value would alias earlier keys and corrupt exactly-once
    // dedup, so refuse loudly instead.
    ROG_ASSERT(seq >= 0 && seq <= 0xFFFFFF,
               "packVersion seq out of 24-bit range");
    return static_cast<std::int64_t>(
        (static_cast<std::uint64_t>(scope) << 24) |
        (static_cast<std::uint64_t>(seq) & 0xFFFFFFu));
}

std::uint32_t
versionScope(std::int64_t version)
{
    return static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(version) >> 24);
}

std::int64_t
versionSeq(std::int64_t version)
{
    return static_cast<std::int64_t>(
        static_cast<std::uint64_t>(version) & 0xFFFFFFu);
}

const char *
rejectReasonName(RejectReason r)
{
    switch (r) {
    case RejectReason::BadEpoch:
        return "bad_epoch";
    case RejectReason::StaleToken:
        return "stale_token";
    }
    return "unknown";
}

const char *
admitModeName(AdmitMode m)
{
    switch (m) {
    case AdmitMode::Fresh:
        return "fresh";
    case AdmitMode::Rejoin:
        return "rejoin";
    case AdmitMode::Resume:
        return "resume";
    }
    return "unknown";
}

std::vector<std::uint8_t>
encode(const Hello &m)
{
    std::vector<std::uint8_t> out;
    ByteWriter w(out);
    w.u8(kTagHello);
    w.u16(m.worker);
    w.u32(m.incarnation);
    w.u64(m.epoch);
    w.u64(m.resume_token);
    w.u64(m.nonce);
    w.u16(m.rx_port);
    w.i64(m.last_done_iter);
    return out;
}

bool
parse(std::span<const std::uint8_t> in, Hello &out)
{
    ByteReader r(in);
    std::uint8_t tag = 0;
    return r.u8(tag) && tag == kTagHello && r.u16(out.worker) &&
           r.u32(out.incarnation) && r.u64(out.epoch) &&
           r.u64(out.resume_token) && r.u64(out.nonce) &&
           r.u16(out.rx_port) && r.i64(out.last_done_iter) && r.done();
}

std::vector<std::uint8_t>
encode(const Welcome &m)
{
    std::vector<std::uint8_t> out;
    ByteWriter w(out);
    w.u8(kTagWelcome);
    w.u64(m.nonce);
    w.u32(m.session);
    w.u64(m.resume_token);
    w.u8(static_cast<std::uint8_t>(m.mode));
    w.i64(m.start_iter);
    w.u64(m.epoch);
    w.u64(m.model.size());
    w.bytes(m.model);
    return out;
}

bool
parse(std::span<const std::uint8_t> in, Welcome &out)
{
    ByteReader r(in);
    std::uint8_t tag = 0;
    std::uint8_t mode = 0;
    std::uint64_t model_len = 0;
    if (!(r.u8(tag) && tag == kTagWelcome && r.u64(out.nonce) &&
          r.u32(out.session) && r.u64(out.resume_token) && r.u8(mode) &&
          r.i64(out.start_iter) && r.u64(out.epoch) && r.u64(model_len)))
        return false;
    if (mode > static_cast<std::uint8_t>(AdmitMode::Resume))
        return false;
    out.mode = static_cast<AdmitMode>(mode);
    return r.bytes(static_cast<std::size_t>(model_len), out.model) &&
           r.done();
}

std::vector<std::uint8_t>
encode(const Reject &m)
{
    std::vector<std::uint8_t> out;
    ByteWriter w(out);
    w.u8(kTagReject);
    w.u64(m.nonce);
    w.u8(static_cast<std::uint8_t>(m.reason));
    w.u64(m.server_epoch);
    return out;
}

bool
parse(std::span<const std::uint8_t> in, Reject &out)
{
    ByteReader r(in);
    std::uint8_t tag = 0;
    std::uint8_t reason = 0;
    if (!(r.u8(tag) && tag == kTagReject && r.u64(out.nonce) &&
          r.u8(reason) && r.u64(out.server_epoch) && r.done()))
        return false;
    if (reason < static_cast<std::uint8_t>(RejectReason::BadEpoch) ||
        reason > static_cast<std::uint8_t>(RejectReason::StaleToken))
        return false;
    out.reason = static_cast<RejectReason>(reason);
    return true;
}

std::vector<std::uint8_t>
encode(const Heartbeat &m)
{
    std::vector<std::uint8_t> out;
    ByteWriter w(out);
    w.u8(kTagHeartbeat);
    w.u16(m.worker);
    w.i64(m.iter);
    return out;
}

bool
parse(std::span<const std::uint8_t> in, Heartbeat &out)
{
    ByteReader r(in);
    std::uint8_t tag = 0;
    return r.u8(tag) && tag == kTagHeartbeat && r.u16(out.worker) &&
           r.i64(out.iter) && r.done();
}

std::vector<std::uint8_t>
encode(const PullReq &m)
{
    std::vector<std::uint8_t> out;
    ByteWriter w(out);
    w.u8(kTagPullReq);
    w.u16(m.worker);
    w.i64(m.iter);
    return out;
}

bool
parse(std::span<const std::uint8_t> in, PullReq &out)
{
    ByteReader r(in);
    std::uint8_t tag = 0;
    return r.u8(tag) && tag == kTagPullReq && r.u16(out.worker) &&
           r.i64(out.iter) && r.done();
}

std::vector<std::uint8_t>
encode(const Bye &m)
{
    std::vector<std::uint8_t> out;
    ByteWriter w(out);
    w.u8(kTagBye);
    w.u16(m.worker);
    w.i64(m.done_iter);
    return out;
}

bool
parse(std::span<const std::uint8_t> in, Bye &out)
{
    ByteReader r(in);
    std::uint8_t tag = 0;
    return r.u8(tag) && tag == kTagBye && r.u16(out.worker) &&
           r.i64(out.done_iter) && r.done();
}

void
UnitEntry::decode(std::span<float> out) const
{
    ROG_ASSERT(out.size() == size(), "unit decode size mismatch");
    if constexpr (std::endian::native == std::endian::little) {
        if (!out.empty())
            std::memcpy(out.data(), values.data(), values.size());
    } else {
        ByteReader r(values);
        for (float &v : out)
            r.f32(v);
    }
}

UnitListWriter::UnitListWriter(std::vector<std::uint8_t> &out)
    : out_(out), count_at_(out.size())
{
    ByteWriter(out_).u32(0);
}

UnitListWriter
UnitListWriter::push(std::vector<std::uint8_t> &out, std::int64_t iter)
{
    out.clear();
    ByteWriter w(out);
    w.u8(kTagPush);
    w.i64(iter);
    return UnitListWriter(out);
}

UnitListWriter
UnitListWriter::pullData(std::vector<std::uint8_t> &out, std::int64_t iter,
                         std::int64_t min_done)
{
    out.clear();
    ByteWriter w(out);
    w.u8(kTagPullData);
    w.i64(iter);
    w.i64(min_done);
    return UnitListWriter(out);
}

void
UnitListWriter::add(std::uint32_t unit, std::span<const float> values)
{
    ByteWriter w(out_);
    w.u32(unit);
    w.u32(static_cast<std::uint32_t>(values.size()));
    if constexpr (std::endian::native == std::endian::little) {
        const std::size_t at = out_.size();
        out_.resize(at + 4 * values.size());
        if (!values.empty())
            std::memcpy(out_.data() + at, values.data(), 4 * values.size());
    } else {
        for (float v : values)
            w.f32(v);
    }
    // The count field is kept current, so the buffer is a whole
    // message after every add.
    ++units_;
    for (int i = 0; i < 4; ++i)
        out_[count_at_ + i] = static_cast<std::uint8_t>(units_ >> (8 * i));
}

bool
parse(std::span<const std::uint8_t> in, Push &out)
{
    ByteReader r(in);
    std::uint8_t tag = 0;
    if (r.u8(tag) && tag == kTagPush && r.i64(out.iter) &&
        readUnitList(r, out.units))
        return true;
    out.units.clear();
    return false;
}

bool
parse(std::span<const std::uint8_t> in, PullData &out)
{
    ByteReader r(in);
    std::uint8_t tag = 0;
    if (r.u8(tag) && tag == kTagPullData && r.i64(out.iter) &&
        r.i64(out.min_done) && readUnitList(r, out.units))
        return true;
    out.units.clear();
    return false;
}

} // namespace session
} // namespace net
} // namespace rog
