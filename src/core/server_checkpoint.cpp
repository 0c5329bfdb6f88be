#include "core/server_checkpoint.hpp"

#include <cstring>

#include "common/durable_file.hpp"
#include "common/logging.hpp"

namespace rog {
namespace core {

namespace {

// A server checkpoint holds one int64 per (worker, unit, element) plus
// the model blob: anything past this is a corrupted size field, not a
// real file.
constexpr std::uint64_t kMaxPayload = 1ull << 30;

// v2 appended server-recovery state: run epoch, the session table
// (resume tokens + watermarks), and the model blob. v3 stores each
// pending row as the server's exact fixed-point units (int64), not as
// floats, which cannot restore the running sums exactly. v1 and v2
// files are rejected rather than guessed at.
constexpr RecordFormat kFormat{"ROGS", 3, kMaxPayload, "server checkpoint"};

void
putU32(std::string &out, std::uint32_t v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
putU64(std::string &out, std::uint64_t v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
putI64(std::string &out, std::int64_t v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
putF64(std::string &out, double v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

/** Bounds-checked cursor over the verified payload. */
class Cursor
{
  public:
    Cursor(const char *data, std::size_t size)
        : data_(data), size_(size)
    {}

    template <typename T>
    T
    take()
    {
        if (size_ - pos_ < sizeof(T))
            ROG_FATAL("server checkpoint: truncated payload");
        T v;
        std::memcpy(&v, data_ + pos_, sizeof(T));
        pos_ += sizeof(T);
        return v;
    }

    void
    takeInt64s(std::vector<std::int64_t> &dst, std::size_t n)
    {
        if ((size_ - pos_) / sizeof(std::int64_t) < n)
            ROG_FATAL("server checkpoint: truncated payload");
        dst.resize(n);
        if (n > 0) // empty vector data() may be null.
            std::memcpy(dst.data(), data_ + pos_,
                        n * sizeof(std::int64_t));
        pos_ += n * sizeof(std::int64_t);
    }

    void
    takeBytes(std::vector<std::uint8_t> &dst, std::size_t n)
    {
        if (size_ - pos_ < n)
            ROG_FATAL("server checkpoint: truncated payload");
        dst.resize(n);
        if (n > 0)
            std::memcpy(dst.data(), data_ + pos_, n);
        pos_ += n;
    }

    bool exhausted() const { return pos_ == size_; }

  private:
    const char *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

std::string
encodePayload(const ServerCheckpoint &c)
{
    const std::size_t workers = c.versions.versions.size();
    const std::size_t units =
        workers > 0 ? c.versions.versions[0].size() : 0;
    ROG_ASSERT(workers > 0 && units > 0, "empty checkpoint");
    ROG_ASSERT(c.versions.retired.size() == workers &&
                   c.server.outbox.size() == workers &&
                   c.server.has_pending.size() == workers &&
                   c.server.last_update.size() == units &&
                   c.tracker.rate.size() == workers &&
                   c.tracker.seeded.size() == workers &&
                   c.tracker.mta_bytes.size() == workers,
               "inconsistent checkpoint shape");

    std::string out;
    putI64(out, c.iteration);
    putU64(out, c.msg_seq);
    putU32(out, static_cast<std::uint32_t>(workers));
    putU32(out, static_cast<std::uint32_t>(units));
    for (const auto &row : c.versions.versions) {
        ROG_ASSERT(row.size() == units, "ragged version matrix");
        for (std::int64_t v : row)
            putI64(out, v);
    }
    out.append(reinterpret_cast<const char *>(c.versions.retired.data()),
               workers);
    for (std::size_t w = 0; w < workers; ++w) {
        ROG_ASSERT(c.server.outbox[w].size() == units &&
                       c.server.has_pending[w].size() == units,
                   "ragged outbox");
        for (std::size_t u = 0; u < units; ++u) {
            const auto &buf = c.server.outbox[w][u];
            putU32(out, static_cast<std::uint32_t>(buf.size()));
            out.append(reinterpret_cast<const char *>(buf.data()),
                       buf.size() * sizeof(std::int64_t));
        }
        out.append(reinterpret_cast<const char *>(
                       c.server.has_pending[w].data()),
                   units);
    }
    for (std::int64_t v : c.server.last_update)
        putI64(out, v);
    for (std::size_t w = 0; w < workers; ++w) {
        putF64(out, c.tracker.rate[w]);
        out.push_back(static_cast<char>(c.tracker.seeded[w]));
        putF64(out, c.tracker.mta_bytes[w]);
    }
    putU64(out, c.epoch);
    ROG_ASSERT(c.sessions.entries.empty() ||
                   c.sessions.entries.size() == workers,
               "session snapshot fleet-size mismatch");
    putU32(out, static_cast<std::uint32_t>(c.sessions.entries.size()));
    for (const auto &e : c.sessions.entries) {
        putU64(out, e.token);
        putU32(out, e.incarnation);
        putI64(out, e.last_done_iter);
        putI64(out, e.last_response_iter);
        out.push_back(static_cast<char>(e.admitted_once ? 1 : 0));
    }
    putU32(out, c.sessions.next_session);
    putU64(out, c.sessions.admissions);
    ROG_ASSERT(c.worker_done.empty() || c.worker_done.size() == workers,
               "worker_done fleet-size mismatch");
    putU32(out, static_cast<std::uint32_t>(c.worker_done.size()));
    for (std::uint8_t d : c.worker_done)
        out.push_back(static_cast<char>(d ? 1 : 0));
    putU64(out, static_cast<std::uint64_t>(c.model.size()));
    if (!c.model.empty())
        out.append(reinterpret_cast<const char *>(c.model.data()),
                   c.model.size());
    return out;
}

ServerCheckpoint
decodePayload(const std::string &payload)
{
    Cursor cur(payload.data(), payload.size());
    ServerCheckpoint c;
    c.iteration = cur.take<std::int64_t>();
    c.msg_seq = cur.take<std::uint64_t>();
    const auto workers = cur.take<std::uint32_t>();
    const auto units = cur.take<std::uint32_t>();
    if (workers == 0 || units == 0 || workers > 4096 || units > 1u << 20)
        ROG_FATAL("server checkpoint: implausible shape ", workers, "x",
                  units);
    c.versions.versions.resize(workers);
    for (auto &row : c.versions.versions) {
        row.resize(units);
        for (auto &v : row)
            v = cur.take<std::int64_t>();
    }
    c.versions.retired.resize(workers);
    for (auto &r : c.versions.retired)
        r = cur.take<std::uint8_t>();
    c.server.outbox.resize(workers);
    c.server.has_pending.resize(workers);
    for (std::uint32_t w = 0; w < workers; ++w) {
        c.server.outbox[w].resize(units);
        for (std::uint32_t u = 0; u < units; ++u) {
            const auto width = cur.take<std::uint32_t>();
            cur.takeInt64s(c.server.outbox[w][u], width);
        }
        c.server.has_pending[w].resize(units);
        for (auto &p : c.server.has_pending[w])
            p = cur.take<std::uint8_t>();
    }
    c.server.last_update.resize(units);
    for (auto &v : c.server.last_update)
        v = cur.take<std::int64_t>();
    c.tracker.rate.resize(workers);
    c.tracker.seeded.resize(workers);
    c.tracker.mta_bytes.resize(workers);
    for (std::uint32_t w = 0; w < workers; ++w) {
        c.tracker.rate[w] = cur.take<double>();
        c.tracker.seeded[w] = cur.take<std::uint8_t>();
        c.tracker.mta_bytes[w] = cur.take<double>();
    }
    c.epoch = cur.take<std::uint64_t>();
    const auto session_count = cur.take<std::uint32_t>();
    if (session_count != 0 && session_count != workers)
        ROG_FATAL("server checkpoint: session table size ",
                  session_count, " != fleet size ", workers);
    c.sessions.entries.resize(session_count);
    for (auto &e : c.sessions.entries) {
        e.token = cur.take<std::uint64_t>();
        e.incarnation = cur.take<std::uint32_t>();
        e.last_done_iter = cur.take<std::int64_t>();
        e.last_response_iter = cur.take<std::int64_t>();
        const auto admitted = cur.take<std::uint8_t>();
        if (admitted > 1)
            ROG_FATAL("server checkpoint: bad admitted flag ",
                      admitted);
        e.admitted_once = admitted != 0;
    }
    c.sessions.next_session = cur.take<std::uint32_t>();
    c.sessions.admissions = cur.take<std::uint64_t>();
    const auto done_count = cur.take<std::uint32_t>();
    if (done_count != 0 && done_count != workers)
        ROG_FATAL("server checkpoint: worker_done size ", done_count,
                  " != fleet size ", workers);
    c.worker_done.resize(done_count);
    for (auto &d : c.worker_done) {
        d = cur.take<std::uint8_t>();
        if (d > 1)
            ROG_FATAL("server checkpoint: bad worker_done flag ",
                      static_cast<unsigned>(d));
    }
    const auto model_len = cur.take<std::uint64_t>();
    if (model_len > kMaxPayload)
        ROG_FATAL("server checkpoint: implausible model size ",
                  model_len);
    cur.takeBytes(c.model, static_cast<std::size_t>(model_len));
    if (!cur.exhausted())
        ROG_FATAL("server checkpoint: trailing garbage in payload");
    return c;
}

} // namespace

void
writeServerCheckpointFile(const std::string &path,
                          const ServerCheckpoint &ckpt)
{
    writeRecordFile(path, kFormat, encodePayload(ckpt));
}

ServerCheckpoint
shardCheckpoint(const ServerShard &shard, std::int64_t iteration)
{
    ServerCheckpoint ckpt;
    ckpt.iteration = iteration;
    ckpt.versions = shard.versionSnapshot();
    ckpt.server = shard.serverSnapshot();
    ckpt.tracker = shard.trackerSnapshot();
    return ckpt;
}

std::string
shardCheckpointPath(const std::string &base, std::size_t shard)
{
    return shard == 0 ? base : base + ".shard" + std::to_string(shard);
}

std::size_t
writeShardCheckpoints(const std::string &base,
                      const ShardedServer &server, std::int64_t iteration)
{
    for (std::size_t s = 0; s < server.shardCount(); ++s)
        writeServerCheckpointFile(shardCheckpointPath(base, s),
                                  shardCheckpoint(server.shard(s),
                                                  iteration));
    return server.shardCount();
}

ServerCheckpoint
readServerCheckpointFile(const std::string &path)
{
    return decodePayload(readRecordFile(path, kFormat));
}

} // namespace core
} // namespace rog
