/**
 * @file
 * Wire frames for the reliable gradient transport.
 *
 * A gradient push is one *message* — (worker, version, row) plus a
 * payload — split into fixed-size *chunks*, each of which travels as
 * one frame: a self-describing header followed by a payload fragment.
 * The header names the fragment's position (chunk sequence number and
 * byte offset within the chunk), so a retransmission after a cut link
 * can resume from the exact delivered byte offset instead of
 * re-sending the row from scratch, and the receiver can deduplicate
 * replays on (worker, version, row, chunk_seq).
 *
 * Layout (little-endian, kWireSize bytes):
 *
 *     magic       u32   'RGFR'
 *     flags       u16   bit 0: pull direction (server -> worker)
 *     worker      u16
 *     version     i64   training iteration of the row
 *     row         u32   synchronization-unit index
 *     chunk_seq   u32   chunk index within the message
 *     chunk_count u32   total chunks of the message
 *     payload_off u64   byte offset of this fragment within the chunk
 *     payload_len u32   fragment length in bytes
 *     payload_crc u32   CRC32C of the *complete* chunk payload
 *     header_crc  u32   CRC32C of all preceding header bytes
 *
 * The payload CRC covers the whole chunk (not the fragment): the
 * receiver reassembles fragments and verifies once the chunk is
 * complete — corruption cannot be localized below CRC granularity, so
 * a mismatch discards and re-requests the entire chunk.
 *
 * A fragment never reaches past kMaxChunkBytes into its chunk: a
 * receiver sizes its reassembly buffer from payload_off + payload_len,
 * so a header that claims more is rejected like a corrupt one.
 */
#ifndef ROG_NET_TRANSPORT_FRAME_HPP
#define ROG_NET_TRANSPORT_FRAME_HPP

#include <cstdint>
#include <optional>
#include <span>

namespace rog {
namespace net {
namespace transport {

/** Frame header flag bits. */
enum FrameFlags : std::uint16_t {
    kFlagPull = 1u << 0, //!< server -> worker (pull) direction.

    // Acknowledgement frames (real-socket backends only; the DES twin
    // resolves verdicts in-process). An ACK is a header-only frame
    // echoing the data frame's key and chunk_seq; the bits below carry
    // the receiver's decision, and for a partial (truncated) delivery
    // payload_off holds the contiguous chunk prefix received so far —
    // which is exactly what resume-from-offset needs.
    kFlagAck = 1u << 1,         //!< this frame is an acknowledgement.
    kFlagAckCrcFail = 1u << 2,  //!< chunk discarded on CRC failure.
    kFlagAckDup = 1u << 3,      //!< chunk dedup'd (already accepted).
    // Bit 4 is retired; the other bits keep their wire values.
    kFlagAckComplete = 1u << 5, //!< whole message now delivered.
    kFlagAckPartial = 1u << 6,  //!< fragment incomplete; off = prefix.
};

/**
 * Largest chunk the wire carries, in payload bytes: the bound on
 * payload_off + payload_len, and on TransportConfig::chunk_bytes.
 */
inline constexpr std::uint64_t kMaxChunkBytes = 1u << 20;

/** Parsed (or to-be-serialized) frame header. */
struct FrameHeader
{
    static constexpr std::uint32_t kMagic = 0x52474652u; // 'RGFR'
    static constexpr std::size_t kWireSize = 48;

    std::uint16_t flags = 0;
    std::uint16_t worker = 0;
    std::int64_t version = 0;
    std::uint32_t row = 0;
    std::uint32_t chunk_seq = 0;
    std::uint32_t chunk_count = 1;
    std::uint64_t payload_off = 0;
    std::uint32_t payload_len = 0;
    std::uint32_t payload_crc = 0;

    bool pull() const { return (flags & kFlagPull) != 0; }

    /** Write the header (with magic and header CRC) into @p out. */
    void serialize(std::span<std::uint8_t> out) const;

    /**
     * Parse @p in; returns nullopt when the buffer is short, the magic
     * is wrong, the header CRC does not match (a corrupted header is
     * indistinguishable from line noise and the frame is dropped), or
     * the fragment ends past kMaxChunkBytes.
     */
    static std::optional<FrameHeader> parse(std::span<const std::uint8_t> in);
};

} // namespace transport
} // namespace net
} // namespace rog

#endif // ROG_NET_TRANSPORT_FRAME_HPP
