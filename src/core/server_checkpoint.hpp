/**
 * @file
 * Crash-consistent parameter-server checkpointing.
 *
 * The server's volatile state — the RSP version matrix, the
 * one-copy-per-worker gradient outbox, and ATP's MTA-time estimates —
 * is periodically serialized as a write-ahead checkpoint ("ROGS"
 * format: magic, version, payload size, CRC32C, payload). Files go
 * through the one durable writer (common/durable_file.hpp), so a crash
 * or power cut mid-write can never leave a half-written checkpoint
 * where a good one stood; the CRC catches torn or bit-rotten files at
 * restore time. A server that crashes recovers by loading the newest
 * checkpoint and resuming: pushes that arrived after the checkpoint
 * are re-sent by the workers' reliable links, and the monotone
 * version matrix plus the transport's exactly-once dedup guarantee no
 * gradient is applied twice.
 */
#ifndef ROG_CORE_SERVER_CHECKPOINT_HPP
#define ROG_CORE_SERVER_CHECKPOINT_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/mta.hpp"
#include "core/server_shard.hpp"
#include "net/session/session.hpp"

namespace rog {
namespace core {

/** Everything the server must persist to survive a crash. */
struct ServerCheckpoint
{
    /** Training iteration the checkpoint was cut at. */
    std::int64_t iteration = 0;

    /**
     * High-water transport message sequence number: restored with
     * max() so a recovered server never reuses a sequence number an
     * old in-flight frame may still carry.
     */
    std::uint64_t msg_seq = 0;

    VersionSnapshot versions;
    ServerStateSnapshot server;
    MtaTrackerSnapshot tracker;

    /**
     * Run epoch the checkpoint was cut under. A recovering server
     * restarts at `epoch + 1` so every pre-crash scope is fenced off.
     */
    std::uint64_t epoch = 0;

    /**
     * Session-recovery state: resume tokens, incarnations, and
     * progress watermarks per worker. May be empty (the in-process
     * DES engine has no session layer).
     */
    net::session::SessionSnapshot sessions;

    /**
     * Serialized model parameters at the checkpointed iteration, so a
     * restarted server can hand Rejoin workers a consistent model.
     * May be empty for engines that persist the model elsewhere.
     */
    std::vector<std::uint8_t> model;

    /**
     * Per-worker "said Bye" flags (1 = finished). Distinguishes a
     * finished worker from an evicted one — both retire their version
     * rows, but only the finished one will never Hello again, and a
     * restarted server must not wait on it. Empty or workers-sized.
     */
    std::vector<std::uint8_t> worker_done;
};

/** Serialize @p ckpt (with CRC32C trailer) to @p os. @throws on I/O
 *  error. */
void writeServerCheckpoint(std::ostream &os,
                           const ServerCheckpoint &ckpt);

/**
 * Parse a checkpoint, verifying magic, version, payload size, and
 * CRC32C before trusting a single payload byte.
 *
 * @throws std::runtime_error on any malformed input.
 */
ServerCheckpoint readServerCheckpoint(std::istream &is);

/**
 * Replace @p path with @p ckpt through writeFileDurably: readers see
 * either the old complete file or the new complete file, never a
 * prefix, and the new one survives a power cut.
 */
void writeServerCheckpointFile(const std::string &path,
                               const ServerCheckpoint &ckpt);

/** Shard 0's file is @p base, shard k's `<base>.shard<k>`. */
std::string shardCheckpointPath(const std::string &base,
                                std::size_t shard);

/** Checkpoint each shard's versions, server state and tracker at
 *  @p iteration into its shardCheckpointPath file; @return the count. */
std::size_t writeShardCheckpoints(const std::string &base,
                                  const ShardedServer &server,
                                  std::int64_t iteration);

/** @throws std::runtime_error if missing, torn, or corrupt. */
ServerCheckpoint readServerCheckpointFile(const std::string &path);

} // namespace core
} // namespace rog

#endif // ROG_CORE_SERVER_CHECKPOINT_HPP
