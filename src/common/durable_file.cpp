#include "common/durable_file.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <streambuf>

#include <fcntl.h>
#include <unistd.h>

#include "common/crc32c.hpp"
#include "common/fd.hpp"
#include "common/logging.hpp"

namespace rog {

namespace {

/** Output streambuf over a raw descriptor: buffers small writes,
 *  passes large ones straight to write(2), keeps the first errno. */
class FdOutBuf final : public std::streambuf
{
  public:
    explicit FdOutBuf(int fd) : fd_(fd) { setp(buf_, buf_ + sizeof buf_); }

    int error() const { return err_; }

  protected:
    int_type
    overflow(int_type ch) override
    {
        if (!drain())
            return traits_type::eof();
        if (!traits_type::eq_int_type(ch, traits_type::eof())) {
            *pptr() = traits_type::to_char_type(ch);
            pbump(1);
        }
        return traits_type::not_eof(ch);
    }

    int sync() override { return drain() ? 0 : -1; }

    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        if (n < static_cast<std::streamsize>(sizeof buf_))
            return std::streambuf::xsputn(s, n);
        if (!drain() || !writeAll(s, static_cast<std::size_t>(n)))
            return 0;
        return n;
    }

  private:
    bool
    drain()
    {
        const bool ok =
            writeAll(pbase(), static_cast<std::size_t>(pptr() - pbase()));
        setp(buf_, buf_ + sizeof buf_);
        return ok;
    }

    bool
    writeAll(const char *p, std::size_t n)
    {
        while (err_ == 0 && n > 0) {
            const ssize_t w = ::write(fd_, p, n);
            if (w < 0) {
                if (errno != EINTR)
                    err_ = errno;
                continue;
            }
            p += w;
            n -= static_cast<std::size_t>(w);
        }
        return err_ == 0;
    }

    int fd_;
    int err_ = 0;
    char buf_[16384];
};

[[noreturn]] void
fail(const std::string &path, const char *step, int err)
{
    ROG_FATAL("durable write of '", path, "': ", step, " failed: ",
              err != 0 ? std::strerror(err) : "stream error");
}

std::uint32_t
crcOf(std::string_view bytes)
{
    return crc32c(
        {reinterpret_cast<const std::uint8_t *>(bytes.data()), bytes.size()});
}

/** The directory holding @p path, for its fsync. */
std::string
parentDir(const std::string &path)
{
    const std::size_t slash = path.rfind('/');
    if (slash == std::string::npos)
        return ".";
    return slash == 0 ? "/" : path.substr(0, slash);
}

} // namespace

void
writeFileDurably(const std::string &path,
                 const std::function<void(std::ostream &)> &fill)
{
    const std::string tmp = path + ".tmp";
    UniqueFd fd(
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644));
    if (!fd)
        fail(path, "open of the temporary file", errno);
    try {
        FdOutBuf buf(fd.get());
        std::ostream os(&buf);
        fill(os);
        os.flush();
        if (buf.error() != 0 || !os)
            fail(path, "write", buf.error());
        if (::fsync(fd.get()) != 0)
            fail(path, "fsync", errno);
        if (::close(fd.release()) != 0)
            fail(path, "close", errno);
        if (std::rename(tmp.c_str(), path.c_str()) != 0)
            fail(path, "rename", errno);
    } catch (...) {
        ::unlink(tmp.c_str());
        throw;
    }
    const UniqueFd dir(
        ::open(parentDir(path).c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC));
    if (!dir)
        fail(path, "open of the directory", errno);
    if (::fsync(dir.get()) != 0)
        fail(path, "directory fsync", errno);
}

void
writeRecord(std::ostream &os, const RecordFormat &fmt,
            std::string_view payload)
{
    const std::uint64_t size = payload.size();
    const std::uint32_t crc = crcOf(payload);
    os.write(fmt.magic, 4);
    os.write(reinterpret_cast<const char *>(&fmt.version),
             sizeof(fmt.version));
    os.write(reinterpret_cast<const char *>(&size), sizeof(size));
    os.write(reinterpret_cast<const char *>(&crc), sizeof(crc));
    os.write(payload.data(), static_cast<std::streamsize>(size));
    if (!os)
        ROG_FATAL(fmt.what, ": write failed");
}

std::string
readRecord(std::istream &is, const RecordFormat &fmt)
{
    char magic[4] = {};
    is.read(magic, sizeof(magic));
    if (!is || std::memcmp(magic, fmt.magic, sizeof(magic)) != 0)
        ROG_FATAL(fmt.what, ": bad magic");
    std::uint32_t version = 0;
    is.read(reinterpret_cast<char *>(&version), sizeof(version));
    if (!is)
        ROG_FATAL(fmt.what, ": truncated header");
    if (version != fmt.version)
        ROG_FATAL(fmt.what, ": unsupported version ", version);
    std::uint64_t size = 0;
    std::uint32_t crc = 0;
    is.read(reinterpret_cast<char *>(&size), sizeof(size));
    is.read(reinterpret_cast<char *>(&crc), sizeof(crc));
    if (!is)
        ROG_FATAL(fmt.what, ": truncated header");
    if (size > fmt.max_payload)
        ROG_FATAL(fmt.what, ": implausible payload size ", size);
    std::string payload(size, '\0');
    is.read(payload.data(), static_cast<std::streamsize>(size));
    if (!is || static_cast<std::uint64_t>(is.gcount()) != size)
        ROG_FATAL(fmt.what, ": truncated payload");
    const std::uint32_t actual = crcOf(payload);
    if (actual != crc)
        ROG_FATAL(fmt.what, ": CRC mismatch (stored ", crc,
                  ", computed ", actual, ")");
    return payload;
}

void
writeRecordFile(const std::string &path, const RecordFormat &fmt,
                std::string_view payload)
{
    writeFileDurably(path, [&](std::ostream &os) {
        writeRecord(os, fmt, payload);
    });
}

std::string
readRecordFile(const std::string &path, const RecordFormat &fmt)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        ROG_FATAL("cannot open '", path, "' for reading");
    return readRecord(is, fmt);
}

} // namespace rog
