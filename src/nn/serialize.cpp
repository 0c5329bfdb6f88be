#include "nn/serialize.hpp"

#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/crc32c.hpp"
#include "common/durable_file.hpp"
#include "common/logging.hpp"

namespace rog {
namespace nn {

namespace {

constexpr char kMagic[4] = {'R', 'O', 'G', 'M'};

// v1: raw parameter table. v2 appends a CRC32C trailer over the body
// (everything after magic+version) so a torn or bit-rotten checkpoint
// is rejected instead of silently loading garbage weights. v1 files
// still load — they simply predate the integrity check.
constexpr std::uint32_t kVersionLegacy = 1;
constexpr std::uint32_t kVersion = 2;

/** Ostream adapter accumulating the body CRC as it writes. */
class Sink
{
  public:
    explicit Sink(std::ostream &os) : os_(os) {}

    void
    write(const void *p, std::size_t n)
    {
        os_.write(static_cast<const char *>(p),
                  static_cast<std::streamsize>(n));
        crc_ = crc32c({static_cast<const std::uint8_t *>(p), n}, crc_);
    }

    void
    u32(std::uint32_t v)
    {
        write(&v, sizeof(v));
    }

    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        write(s.data(), s.size());
    }

    std::uint32_t crc() const { return crc_; }
    std::ostream &raw() { return os_; }

  private:
    std::ostream &os_;
    std::uint32_t crc_ = 0;
};

/**
 * Istream adapter accumulating the body CRC as it reads. It consumes
 * exactly the checkpoint's bytes — never the rest of the stream — so
 * concatenated checkpoints load back to back.
 */
class Source
{
  public:
    explicit Source(std::istream &is) : is_(is) {}

    void
    read(void *p, std::size_t n, const char *what)
    {
        is_.read(static_cast<char *>(p),
                 static_cast<std::streamsize>(n));
        if (!is_ || static_cast<std::size_t>(is_.gcount()) != n)
            ROG_FATAL("model checkpoint: truncated ", what);
        crc_ = crc32c({static_cast<const std::uint8_t *>(p), n}, crc_);
    }

    std::uint32_t
    u32(const char *what)
    {
        std::uint32_t v = 0;
        read(&v, sizeof(v), what);
        return v;
    }

    std::string
    str(const char *what)
    {
        const std::uint32_t n = u32(what);
        if (n > 4096)
            ROG_FATAL("model checkpoint: implausible name length ", n);
        std::string s(n, '\0');
        read(s.data(), n, what);
        return s;
    }

    std::uint32_t crc() const { return crc_; }
    std::istream &raw() { return is_; }

  private:
    std::istream &is_;
    std::uint32_t crc_ = 0;
};

} // namespace

void
saveModel(std::ostream &os, Model &model)
{
    os.write(kMagic, sizeof(kMagic));
    const std::uint32_t version = kVersion;
    os.write(reinterpret_cast<const char *>(&version), sizeof(version));

    Sink sink(os);
    const auto params = model.parameters();
    sink.u32(static_cast<std::uint32_t>(params.size()));
    for (Parameter *p : params) {
        sink.str(p->name);
        sink.u32(static_cast<std::uint32_t>(p->value.rows()));
        sink.u32(static_cast<std::uint32_t>(p->value.cols()));
        sink.write(p->value.data(), p->value.size() * sizeof(float));
    }
    const std::uint32_t crc = sink.crc();
    os.write(reinterpret_cast<const char *>(&crc), sizeof(crc));
    if (!os)
        ROG_FATAL("model checkpoint: write failed");
}

void
loadModel(std::istream &is, Model &model)
{
    char magic[4] = {};
    is.read(magic, sizeof(magic));
    if (!is || std::string(magic, 4) != std::string(kMagic, 4))
        ROG_FATAL("model checkpoint: bad magic");
    std::uint32_t version = 0;
    is.read(reinterpret_cast<char *>(&version), sizeof(version));
    if (!is)
        ROG_FATAL("model checkpoint: truncated header");
    if (version != kVersion && version != kVersionLegacy)
        ROG_FATAL("model checkpoint: unsupported version ", version);

    Source src(is);
    const auto params = model.parameters();
    const std::uint32_t count = src.u32("parameter count");
    if (count != params.size()) {
        ROG_FATAL("model checkpoint: has ", count,
                  " parameters, model expects ", params.size());
    }
    for (Parameter *p : params) {
        const std::string name = src.str("name");
        if (name != p->name)
            ROG_FATAL("model checkpoint: parameter '", name,
                      "' where '", p->name, "' expected");
        const std::uint32_t rows = src.u32("shape");
        const std::uint32_t cols = src.u32("shape");
        if (rows != p->value.rows() || cols != p->value.cols()) {
            ROG_FATAL("model checkpoint: shape ", rows, "x", cols,
                      " for '", name, "', model expects ",
                      p->value.rows(), "x", p->value.cols());
        }
        src.read(p->value.data(), p->value.size() * sizeof(float),
                 "payload");
    }
    if (version >= kVersion) {
        const std::uint32_t computed = src.crc();
        std::uint32_t stored = 0;
        is.read(reinterpret_cast<char *>(&stored), sizeof(stored));
        if (!is)
            ROG_FATAL("model checkpoint: truncated CRC trailer");
        if (stored != computed)
            ROG_FATAL("model checkpoint: CRC mismatch (stored ",
                      stored, ", computed ", computed, ")");
    }
}

std::vector<std::uint8_t>
saveModelBytes(Model &model)
{
    std::ostringstream os;
    saveModel(os, model);
    const std::string s = os.str();
    return {s.begin(), s.end()};
}

void
loadModelBytes(std::span<const std::uint8_t> bytes, Model &model)
{
    std::istringstream is(std::string(bytes.begin(), bytes.end()));
    loadModel(is, model);
}

void
saveModelFile(const std::string &path, Model &model)
{
    writeFileDurably(path,
                     [&model](std::ostream &os) { saveModel(os, model); });
}

void
loadModelFile(const std::string &path, Model &model)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        ROG_FATAL("cannot open '", path, "' for reading");
    loadModel(is, model);
}

} // namespace nn
} // namespace rog
