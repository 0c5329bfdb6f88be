#include "net/transport/payload.hpp"

#include <algorithm>
#include <span>

#include "common/logging.hpp"
#include "net/transport/event_log.hpp"

namespace rog {
namespace net {
namespace transport {

namespace {

/** splitmix64 step, for seeding and synthesized payload bytes. */
std::uint64_t
mix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Fill @p out with the synthesized bytes of chunk @p seq of @p key. */
void
synthesizeChunk(const MessageKey &key, std::uint32_t seq,
                std::span<std::uint8_t> out)
{
    std::uint64_t state = messageSeed(0xc0ffee123ull, key, seq);
    const std::size_t len = out.size();
    for (std::size_t i = 0; i < len; i += 8) {
        const std::uint64_t v = mix64(state);
        for (std::size_t b = 0; b < 8 && i + b < len; ++b)
            out[i + b] = static_cast<std::uint8_t>(v >> (8 * b));
    }
}

} // namespace

std::uint64_t
messageSeed(std::uint64_t base, const MessageKey &key, std::uint64_t extra)
{
    std::uint64_t s = base;
    s ^= mix64(s) + static_cast<std::uint64_t>(key.worker);
    s ^= mix64(s) + static_cast<std::uint64_t>(key.version);
    s ^= mix64(s) + static_cast<std::uint64_t>(key.row);
    s ^= mix64(s) + (key.pull ? 0x70756c6cull : 0x70757368ull);
    s ^= mix64(s) + extra;
    return s;
}

std::vector<std::uint8_t>
synthesizeMessage(const MessageKey &key, std::size_t bytes,
                  std::size_t chunk_bytes)
{
    ROG_ASSERT(chunk_bytes > 0, "synthesized chunks need a positive size");
    std::vector<std::uint8_t> out(bytes);
    std::uint32_t seq = 0;
    for (std::size_t off = 0; off < bytes; off += chunk_bytes, ++seq)
        synthesizeChunk(
            key, seq, {out.data() + off, std::min(chunk_bytes, bytes - off)});
    return out;
}

} // namespace transport
} // namespace net
} // namespace rog
