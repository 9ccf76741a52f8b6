#include "fsio.h"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

namespace archgym {
namespace fsio {

namespace {

[[noreturn]] void
fail(const std::string &what, const std::string &path)
{
    throw std::runtime_error(what + " " + path + ": " +
                             std::strerror(errno));
}

} // namespace

std::uint64_t
fnv1a64(std::string_view bytes, std::uint64_t hash)
{
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

void
writeAll(int fd, std::string_view bytes, const std::string &path)
{
    while (!bytes.empty()) {
        const ssize_t n = ::write(fd, bytes.data(), bytes.size());
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fail("write failed on", path);
        }
        bytes.remove_prefix(static_cast<std::size_t>(n));
    }
}

void
fsyncPath(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        fail("fsync: cannot open", path);
    if (::fsync(fd) != 0) {
        const int err = errno;
        ::close(fd);
        errno = err;
        fail("fsync failed on", path);
    }
    ::close(fd);
}

void
fsyncParentDir(const std::string &path)
{
    namespace fs = std::filesystem;
    fs::path parent = fs::path(path).parent_path();
    if (parent.empty())
        parent = ".";
    fsyncPath(parent.string());
}

std::string
uniqueTmpPath(const std::string &path)
{
    static std::atomic<std::uint64_t> counter{0};
    return path + ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(counter.fetch_add(1));
}

void
atomicWriteFile(const std::string &path, const std::string &bytes)
{
    const std::string tmp = uniqueTmpPath(path);
    const int fd = ::open(tmp.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd < 0)
        fail("atomicWriteFile: cannot create", tmp);
    try {
        writeAll(fd, bytes, tmp);
    } catch (...) {
        ::close(fd);
        ::unlink(tmp.c_str());
        throw;
    }
    if (::fsync(fd) != 0) {
        const int err = errno;
        ::close(fd);
        ::unlink(tmp.c_str());
        errno = err;
        fail("atomicWriteFile: fsync failed on", tmp);
    }
    ::close(fd);
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        const int err = errno;
        ::unlink(tmp.c_str());
        errno = err;
        fail("atomicWriteFile: rename failed onto", path);
    }
    fsyncParentDir(path);
}

std::string
readFileIfExists(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "";
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

} // namespace fsio
} // namespace archgym
