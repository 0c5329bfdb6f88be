#include "net/transport/frame.hpp"

#include "common/crc32c.hpp"
#include "common/logging.hpp"

namespace rog {
namespace net {
namespace transport {

namespace {

template <typename T>
void
put(std::span<std::uint8_t> out, std::size_t &pos, T value)
{
    using U = std::make_unsigned_t<T>;
    const U u = static_cast<U>(value);
    for (std::size_t i = 0; i < sizeof(T); ++i)
        out[pos++] = static_cast<std::uint8_t>(u >> (8 * i));
}

template <typename T>
T
take(std::span<const std::uint8_t> in, std::size_t &pos)
{
    using U = std::make_unsigned_t<T>;
    U u = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
        u |= static_cast<U>(in[pos++]) << (8 * i);
    return static_cast<T>(u);
}

} // namespace

void
FrameHeader::serialize(std::span<std::uint8_t> out) const
{
    ROG_ASSERT(out.size() >= kWireSize, "frame buffer too small");
    std::size_t pos = 0;
    put<std::uint32_t>(out, pos, kMagic);
    put<std::uint16_t>(out, pos, flags);
    put<std::uint16_t>(out, pos, worker);
    put<std::int64_t>(out, pos, version);
    put<std::uint32_t>(out, pos, row);
    put<std::uint32_t>(out, pos, chunk_seq);
    put<std::uint32_t>(out, pos, chunk_count);
    put<std::uint64_t>(out, pos, payload_off);
    put<std::uint32_t>(out, pos, payload_len);
    put<std::uint32_t>(out, pos, payload_crc);
    const std::uint32_t hcrc = crc32c(out.first(pos));
    put<std::uint32_t>(out, pos, hcrc);
    ROG_ASSERT(pos == kWireSize, "frame layout drifted from kWireSize");
}

std::optional<FrameHeader>
FrameHeader::parse(std::span<const std::uint8_t> in)
{
    if (in.size() < kWireSize)
        return std::nullopt;
    std::size_t pos = 0;
    if (take<std::uint32_t>(in, pos) != kMagic)
        return std::nullopt;
    FrameHeader h;
    h.flags = take<std::uint16_t>(in, pos);
    h.worker = take<std::uint16_t>(in, pos);
    h.version = take<std::int64_t>(in, pos);
    h.row = take<std::uint32_t>(in, pos);
    h.chunk_seq = take<std::uint32_t>(in, pos);
    h.chunk_count = take<std::uint32_t>(in, pos);
    h.payload_off = take<std::uint64_t>(in, pos);
    h.payload_len = take<std::uint32_t>(in, pos);
    h.payload_crc = take<std::uint32_t>(in, pos);
    const std::uint32_t expect = crc32c(in.first(pos));
    if (take<std::uint32_t>(in, pos) != expect)
        return std::nullopt;
    // Bounding the offset first keeps offset + u32 length from
    // wrapping the u64 sum.
    if (h.payload_off > kMaxChunkBytes ||
        h.payload_off + h.payload_len > kMaxChunkBytes)
        return std::nullopt;
    return h;
}

} // namespace transport
} // namespace net
} // namespace rog
