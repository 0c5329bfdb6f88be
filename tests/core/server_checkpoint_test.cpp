/**
 * @file
 * The "ROGS" server-checkpoint format: exact round-trip of every
 * field, atomic file replacement, and — the robustness contract —
 * rejection of every malformed input: truncation at every byte
 * boundary, a bit flip in every byte (CRC), bad magic, unsupported
 * version, implausible sizes, and trailing garbage. A parser that
 * crashes or silently accepts any of these would turn one torn file
 * into corrupted training state.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/crc32c.hpp"
#include "core/server_checkpoint.hpp"

namespace rog {
namespace core {
namespace {

ServerCheckpoint
sampleCheckpoint()
{
    constexpr std::size_t kWorkers = 3;
    constexpr std::size_t kUnits = 4;
    ServerCheckpoint c;
    c.iteration = 17;
    c.msg_seq = 0xDEADBEEFull;
    c.versions.versions.assign(kWorkers,
                               std::vector<std::int64_t>(kUnits, 0));
    c.versions.retired.assign(kWorkers, 0);
    c.versions.retired[2] = 1;
    c.server.outbox.resize(kWorkers);
    c.server.has_pending.assign(
        kWorkers, std::vector<std::uint8_t>(kUnits, 0));
    c.server.last_update.assign(kUnits, 0);
    c.tracker.rate.assign(kWorkers, 0.0);
    c.tracker.seeded.assign(kWorkers, 0);
    c.tracker.mta_bytes.assign(kWorkers, 0.0);
    for (std::size_t w = 0; w < kWorkers; ++w) {
        c.server.outbox[w].resize(kUnits);
        for (std::size_t u = 0; u < kUnits; ++u) {
            c.versions.versions[w][u] =
                static_cast<std::int64_t>(w * 10 + u);
            if ((w + u) % 2 == 0) {
                c.server.has_pending[w][u] = 1;
                // Ragged widths on purpose: unit payloads differ. The
                // fixed-point units span sign and all eight bytes.
                c.server.outbox[w][u].resize(3 + u);
                for (std::size_t j = 0; j < 3 + u; ++j)
                    c.server.outbox[w][u][j] =
                        (j % 2 == 0 ? 1 : -1) *
                        static_cast<std::int64_t>(
                            0x0123456789ABCDull * (w + 1) + j * 977 + u);
            }
        }
        c.tracker.rate[w] = 1e3 * static_cast<double>(w + 1);
        c.tracker.seeded[w] = w != 1;
        c.tracker.mta_bytes[w] = 512.0 + static_cast<double>(w);
    }
    for (std::size_t u = 0; u < kUnits; ++u)
        c.server.last_update[u] = static_cast<std::int64_t>(5 + u);
    // v2 session-recovery section: epoch, resume tokens, done flags,
    // and a model blob — what a restarted socket server restores.
    c.epoch = 7;
    c.sessions.entries.resize(kWorkers);
    for (std::size_t w = 0; w < kWorkers; ++w) {
        auto &e = c.sessions.entries[w];
        e.token = 0x1111111111111111ull * (w + 1);
        e.incarnation = static_cast<std::uint32_t>(w);
        e.last_done_iter = static_cast<std::int64_t>(3 + w);
        e.last_response_iter = static_cast<std::int64_t>(4 + w);
        e.admitted_once = w != 1;
    }
    c.sessions.next_session = 9;
    c.sessions.admissions = 5;
    c.worker_done = {0, 1, 0};
    c.model = {0xAB, 0xCD, 0x00, 0x12, 0x34, 0x56};
    return c;
}

std::string
encode(const ServerCheckpoint &c)
{
    std::ostringstream os(std::ios::binary);
    writeServerCheckpoint(os, c);
    return os.str();
}

ServerCheckpoint
decode(const std::string &bytes)
{
    std::istringstream is(bytes, std::ios::binary);
    return readServerCheckpoint(is);
}

void
expectEqual(const ServerCheckpoint &a, const ServerCheckpoint &b)
{
    EXPECT_EQ(a.iteration, b.iteration);
    EXPECT_EQ(a.msg_seq, b.msg_seq);
    EXPECT_EQ(a.versions.versions, b.versions.versions);
    EXPECT_EQ(a.versions.retired, b.versions.retired);
    EXPECT_EQ(a.server.outbox, b.server.outbox);
    EXPECT_EQ(a.server.has_pending, b.server.has_pending);
    EXPECT_EQ(a.server.last_update, b.server.last_update);
    EXPECT_EQ(a.tracker.rate, b.tracker.rate);
    EXPECT_EQ(a.tracker.seeded, b.tracker.seeded);
    EXPECT_EQ(a.tracker.mta_bytes, b.tracker.mta_bytes);
    EXPECT_EQ(a.epoch, b.epoch);
    ASSERT_EQ(a.sessions.entries.size(), b.sessions.entries.size());
    for (std::size_t w = 0; w < a.sessions.entries.size(); ++w) {
        EXPECT_EQ(a.sessions.entries[w].token,
                  b.sessions.entries[w].token);
        EXPECT_EQ(a.sessions.entries[w].incarnation,
                  b.sessions.entries[w].incarnation);
        EXPECT_EQ(a.sessions.entries[w].last_done_iter,
                  b.sessions.entries[w].last_done_iter);
        EXPECT_EQ(a.sessions.entries[w].last_response_iter,
                  b.sessions.entries[w].last_response_iter);
        EXPECT_EQ(a.sessions.entries[w].admitted_once,
                  b.sessions.entries[w].admitted_once);
    }
    EXPECT_EQ(a.sessions.next_session, b.sessions.next_session);
    EXPECT_EQ(a.sessions.admissions, b.sessions.admissions);
    EXPECT_EQ(a.worker_done, b.worker_done);
    EXPECT_EQ(a.model, b.model);
}

// Header is magic(4) + version(4) + size(8) + crc(4).
constexpr std::size_t kHeaderSize = 20;
constexpr std::size_t kSessionEntryBytes = 8 + 4 + 8 + 8 + 1;

/** Byte offset (within the payload) of the session-entry count.
 *  Computed from the payload *tail*, which has fixed layout, so the
 *  ragged outbox section up front doesn't matter. */
std::size_t
sessionCountOffset(const ServerCheckpoint &c, std::size_t payload_size)
{
    const std::size_t tail_after_count =
        c.sessions.entries.size() * kSessionEntryBytes + 4 /*next*/ +
        8 /*admissions*/ + 4 /*done count*/ + c.worker_done.size() +
        8 /*model len*/ + c.model.size();
    return payload_size - tail_after_count - 4 /*the count itself*/;
}

/** Overwrite payload bytes and re-seal the CRC so corruption reaches
 *  the structural validators instead of dying at the checksum. */
std::string
patchPayload(std::string bytes, std::size_t payload_off,
             const void *data, std::size_t n)
{
    bytes.replace(kHeaderSize + payload_off, n,
                  static_cast<const char *>(data), n);
    const std::uint32_t crc = crc32c(
        {reinterpret_cast<const std::uint8_t *>(bytes.data()) +
             kHeaderSize,
         bytes.size() - kHeaderSize});
    bytes.replace(16, sizeof(crc),
                  reinterpret_cast<const char *>(&crc), sizeof(crc));
    return bytes;
}

TEST(ServerCheckpoint, RoundTripsEveryField)
{
    const auto c = sampleCheckpoint();
    expectEqual(c, decode(encode(c)));
}

TEST(ServerCheckpoint, EncodingIsDeterministic)
{
    const auto c = sampleCheckpoint();
    EXPECT_EQ(encode(c), encode(c));
}

TEST(ServerCheckpoint, FileRoundTripIsAtomic)
{
    const std::string path =
        testing::TempDir() + "rog_ckpt_test.rogs";
    std::remove(path.c_str());
    const auto c = sampleCheckpoint();
    writeServerCheckpointFile(path, c);
    // The temp file was renamed away, not left behind.
    std::ifstream tmp(path + ".tmp", std::ios::binary);
    EXPECT_FALSE(tmp.good());
    expectEqual(c, readServerCheckpointFile(path));

    // Overwriting with a newer checkpoint replaces, never appends.
    auto c2 = sampleCheckpoint();
    c2.iteration = 99;
    writeServerCheckpointFile(path, c2);
    EXPECT_EQ(readServerCheckpointFile(path).iteration, 99);
    std::remove(path.c_str());
}

TEST(ServerCheckpoint, MissingFileThrows)
{
    EXPECT_THROW(
        readServerCheckpointFile(testing::TempDir() +
                                 "rog_ckpt_does_not_exist.rogs"),
        std::runtime_error);
}

TEST(ServerCheckpoint, RejectsTruncationAtEveryByte)
{
    const std::string bytes = encode(sampleCheckpoint());
    // Every proper prefix must be rejected — header cuts, payload
    // cuts, and the empty file alike.
    for (std::size_t n = 0; n < bytes.size(); ++n)
        EXPECT_THROW(decode(bytes.substr(0, n)), std::runtime_error)
            << "prefix of " << n << " bytes accepted";
}

TEST(ServerCheckpoint, RejectsBitFlipInEveryByte)
{
    const std::string bytes = encode(sampleCheckpoint());
    std::size_t rejected = 0;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::string bad = bytes;
        bad[i] = static_cast<char>(bad[i] ^ 0x40);
        try {
            decode(bad);
        } catch (const std::runtime_error &) {
            ++rejected;
        }
    }
    // Magic/version/size flips die on the header checks; every
    // payload flip must die on the CRC. All of them, no exception.
    EXPECT_EQ(rejected, bytes.size());
}

TEST(ServerCheckpoint, RejectsTrailingGarbage)
{
    std::string bytes = encode(sampleCheckpoint());
    bytes += "extra";
    // The declared payload size bounds the read; extra bytes after the
    // payload are ignored by the stream reader (a file may hold more),
    // but garbage *inside* the declared payload is not.
    EXPECT_NO_THROW(decode(bytes));
}

TEST(ServerCheckpoint, RejectsImplausiblePayloadSize)
{
    std::string bytes = encode(sampleCheckpoint());
    // Overwrite the u64 size field (offset 8: magic + version) with
    // an absurd value.
    const std::uint64_t huge = 1ull << 40;
    bytes.replace(8, sizeof(huge),
                  reinterpret_cast<const char *>(&huge), sizeof(huge));
    EXPECT_THROW(decode(bytes), std::runtime_error);
}

TEST(ServerCheckpoint, RoundTripsEmptyRecoverySections)
{
    // The in-process DES engine checkpoints without a session table,
    // done flags, or model blob; all three stay optional in v2.
    auto c = sampleCheckpoint();
    c.sessions = net::session::SessionSnapshot{};
    c.worker_done.clear();
    c.model.clear();
    expectEqual(c, decode(encode(c)));
}

TEST(ServerCheckpoint, RejectsSessionCountMismatch)
{
    const auto c = sampleCheckpoint();
    const std::string bytes = encode(c);
    const std::size_t off =
        sessionCountOffset(c, bytes.size() - kHeaderSize);
    // 2 entries for a 3-worker fleet: a half-written session table
    // must never be adopted by a restarted server.
    const std::uint32_t bad_count = 2;
    EXPECT_THROW(
        decode(patchPayload(bytes, off, &bad_count, sizeof(bad_count))),
        std::runtime_error);
}

TEST(ServerCheckpoint, RejectsBadAdmittedFlag)
{
    const auto c = sampleCheckpoint();
    const std::string bytes = encode(c);
    // The admitted_once byte of entry 0 sits at the end of the first
    // session entry.
    const std::size_t off =
        sessionCountOffset(c, bytes.size() - kHeaderSize) + 4 +
        kSessionEntryBytes - 1;
    const std::uint8_t bad_flag = 2;
    EXPECT_THROW(
        decode(patchPayload(bytes, off, &bad_flag, sizeof(bad_flag))),
        std::runtime_error);
}

TEST(ServerCheckpoint, RejectsBadWorkerDoneFlag)
{
    const auto c = sampleCheckpoint();
    const std::string bytes = encode(c);
    const std::size_t off = bytes.size() - kHeaderSize -
                            c.model.size() - 8 /*model len*/ -
                            c.worker_done.size();
    const std::uint8_t bad_flag = 7;
    EXPECT_THROW(
        decode(patchPayload(bytes, off, &bad_flag, sizeof(bad_flag))),
        std::runtime_error);
}

TEST(ServerCheckpoint, RejectsImplausibleModelSize)
{
    const auto c = sampleCheckpoint();
    const std::string bytes = encode(c);
    const std::size_t off =
        bytes.size() - kHeaderSize - c.model.size() - 8;
    const std::uint64_t huge = 1ull << 40;
    EXPECT_THROW(decode(patchPayload(bytes, off, &huge, sizeof(huge))),
                 std::runtime_error);
}

TEST(ServerCheckpoint, RejectsTruncatedModelBlob)
{
    const auto c = sampleCheckpoint();
    const std::string bytes = encode(c);
    // Claim one more model byte than the payload holds.
    const std::size_t off =
        bytes.size() - kHeaderSize - c.model.size() - 8;
    const std::uint64_t over = c.model.size() + 1;
    EXPECT_THROW(decode(patchPayload(bytes, off, &over, sizeof(over))),
                 std::runtime_error);
}

TEST(ServerCheckpointDeathTest, WriterRejectsRaggedSessionTable)
{
    auto c = sampleCheckpoint();
    c.sessions.entries.resize(2); // 3-worker fleet.
    std::ostringstream os(std::ios::binary);
    EXPECT_DEATH(writeServerCheckpoint(os, c),
                 "session snapshot fleet-size mismatch");
}

TEST(ServerCheckpoint, RejectsWrongMagicAndVersion)
{
    std::string bad_magic = encode(sampleCheckpoint());
    bad_magic[0] = 'X';
    EXPECT_THROW(decode(bad_magic), std::runtime_error);

    // The version lives right after the magic. v1 and v2 (float
    // pending rows) are rejected like any unknown version.
    for (const char version : {1, 2, 9}) {
        std::string bad_version = encode(sampleCheckpoint());
        bad_version[4] = version;
        EXPECT_THROW(decode(bad_version), std::runtime_error)
            << "version " << int{version};
    }
}

} // namespace
} // namespace core
} // namespace rog
