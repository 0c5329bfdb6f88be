/**
 * @file
 * The one durable write path for state files.
 *
 * A node can lose power as well as be SIGKILLed, so every file a
 * restart reads back (server checkpoints, worker state, final models,
 * run summaries) is replaced atomically and durably: the bytes go to
 * `<path>.tmp` in the same directory, the temporary file is fsynced,
 * renamed over @p path, and the directory is fsynced. Without the
 * first fsync POSIX lets the rename persist before the data it names;
 * without the second the rename itself may not persist. A reader
 * therefore sees the old complete file or the new complete file,
 * never a prefix, and a file it saw survives a power cut.
 *
 * Binary state files other than ROGM models share one framing, the
 * record below, so the same strict reader guards each of them.
 *
 * Append-streamed logs are not state files and do not come here.
 */
#ifndef ROG_COMMON_DURABLE_FILE_HPP
#define ROG_COMMON_DURABLE_FILE_HPP

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

namespace rog {

/**
 * Replace @p path with the bytes @p fill writes to its stream: write
 * `<path>.tmp`, fsync it, rename it onto @p path, fsync the directory.
 * The stream writes straight to the file, so a large payload is never
 * buffered whole.
 *
 * @throws std::runtime_error (via ROG_FATAL) naming the failed step
 *         if any syscall or stream write fails, or if @p fill throws
 *         (its exception propagates). Up to the rename, the temporary
 *         file is removed and @p path is left as it was.
 */
void writeFileDurably(const std::string &path,
                      const std::function<void(std::ostream &)> &fill);

/**
 * A CRC-framed record: 4-byte magic, u32 version, u64 payload size,
 * CRC32C of the payload (u32), then the payload.
 */
struct RecordFormat
{
    const char *magic;         //!< exactly 4 bytes.
    std::uint32_t version;     //!< the only version read back.
    std::uint64_t max_payload; //!< a larger size field is corrupt.
    const char *what;          //!< names the format in errors.
};

/** Write @p payload framed as @p fmt. @throws on a stream error. */
void writeRecord(std::ostream &os, const RecordFormat &fmt,
                 std::string_view payload);

/**
 * Read one @p fmt record, verifying magic, version, size bound and
 * CRC32C before returning a single payload byte.
 * @throws std::runtime_error on any malformed input.
 */
std::string readRecord(std::istream &is, const RecordFormat &fmt);

/** writeRecord into @p path through writeFileDurably. */
void writeRecordFile(const std::string &path, const RecordFormat &fmt,
                     std::string_view payload);

/** readRecord from @p path. @throws std::runtime_error if the file is
 *  missing, torn, or corrupt. */
std::string readRecordFile(const std::string &path,
                           const RecordFormat &fmt);

} // namespace rog

#endif // ROG_COMMON_DURABLE_FILE_HPP
