/**
 * @file
 * Deterministic keyed test payloads for transport messages.
 *
 * Tools and tests that drive the transport without application data
 * (rog_transportd send|loopback, the cross-validation replay) still
 * need real bytes so checksums mean something. Every party regenerates
 * the same bytes from the message key alone, so a receiver in another
 * process, or a simulator replaying a recorded socket trace, verifies
 * exactly the payload the sender framed.
 */
#ifndef ROG_NET_TRANSPORT_PAYLOAD_HPP
#define ROG_NET_TRANSPORT_PAYLOAD_HPP

#include <cstdint>
#include <vector>

namespace rog {
namespace net {
namespace transport {

struct MessageKey;

/** Mix a message key (and an extra word) into a 64-bit seed. */
std::uint64_t messageSeed(std::uint64_t base, const MessageKey &key,
                          std::uint64_t extra);

/**
 * The @p bytes-byte keyed payload of message @p key. Each
 * @p chunk_bytes-sized chunk (the last one shorter) is a pure function
 * of (key, chunk index, chunk length), so every chunk CRC is too.
 */
std::vector<std::uint8_t> synthesizeMessage(const MessageKey &key,
                                            std::size_t bytes,
                                            std::size_t chunk_bytes);

} // namespace transport
} // namespace net
} // namespace rog

#endif // ROG_NET_TRANSPORT_PAYLOAD_HPP
