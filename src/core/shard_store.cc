#include "shard_store.h"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string_view>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "core/driver.h"
#include "core/fsio.h"
#include "core/jsonio.h"

namespace archgym {

namespace {

namespace fs = std::filesystem;

constexpr std::string_view kFrameMagic = "#@run ";

/** Append decimal `v` without a temporary string. */
void
appendUint(std::string &out, std::uint64_t v)
{
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/** Append the header of a frame whose payload has `size` bytes and
 *  checksum `crc`. */
void
appendFrameHeader(std::string &out, std::size_t config, std::size_t size,
                  std::uint64_t crc)
{
    out += kFrameMagic;
    appendUint(out, config);
    out += ' ';
    appendUint(out, size);
    out += ' ';
    appendUint(out, crc);
    out += '\n';
}

/** Final-format line of a run, or of a gap record when quarantined. */
std::string
renderResultLine(const ResultRecord &r)
{
    std::string line;
    line.reserve(192 + 24 * r.bestAction.size() + r.hyper.size() +
                 r.failureClass.size() + r.error.size());
    line += "{\"config\":";
    appendUint(line, r.config);
    line += ",\"seed\":";
    appendUint(line, r.seed);
    line += ",\"bestReward\":";
    jsonio::appendDouble(line, r.bestReward);
    line += ",\"bestSampleIndex\":";
    appendUint(line, r.bestSampleIndex);
    line += ",\"samplesUsed\":";
    appendUint(line, r.samplesUsed);
    line += ",\"bestAction\":[";
    for (std::size_t i = 0; i < r.bestAction.size(); ++i) {
        if (i)
            line.push_back(',');
        jsonio::appendDouble(line, r.bestAction[i]);
    }
    line += "]";
    if (r.quarantined) {
        line += ",\"quarantined\":1,\"attempts\":";
        appendUint(line, r.attempts);
        line += ",\"failureClass\":\"";
        line += jsonio::escape(r.failureClass);
        line += "\",\"error\":\"";
        line += jsonio::escape(r.error);
        line += "\"";
    }
    line += ",\"hyper\":\"";
    line += jsonio::escape(r.hyper);
    line += "\"}\n";
    return line;
}

/** Inverse of renderResultLine; `line` may omit the newline. */
ResultRecord
parseResultLine(const std::string &line, const std::string &ctx)
{
    ResultRecord r;
    r.config = jsonio::uintField(line, "config", ctx);
    r.seed = jsonio::uintField(line, "seed", ctx);
    r.bestReward = jsonio::doubleField(line, "bestReward", ctx);
    r.bestSampleIndex = jsonio::uintField(line, "bestSampleIndex", ctx);
    r.samplesUsed = jsonio::uintField(line, "samplesUsed", ctx);
    r.bestAction = jsonio::doubleArrayField(line, "bestAction", ctx);
    r.hyper = jsonio::stringField(line, "hyper", ctx);
    // Escaped strings never hold a bare quote, so the key cannot
    // match inside one.
    if (line.find("\"quarantined\":") != std::string::npos &&
        jsonio::uintField(line, "quarantined", ctx) != 0) {
        r.quarantined = true;
        r.attempts = jsonio::uintField(line, "attempts", ctx);
        r.failureClass = jsonio::stringField(line, "failureClass", ctx);
        r.error = jsonio::stringField(line, "error", ctx);
    }
    return r;
}

std::string
renderAttemptLine(const AttemptRecord &a)
{
    std::string line = "{\"config\":";
    appendUint(line, a.config);
    line += ",\"seed\":";
    appendUint(line, a.seed);
    line += ",\"attempt\":";
    appendUint(line, a.attempt);
    line += ",\"class\":\"";
    line += jsonio::escape(a.failureClass);
    line += "\",\"error\":\"";
    line += jsonio::escape(a.error);
    line += "\",\"worker\":\"";
    line += jsonio::escape(a.worker);
    line += "\"}\n";
    return line;
}

AttemptRecord
parseAttemptLine(const std::string &line, const std::string &ctx)
{
    AttemptRecord a;
    a.config = jsonio::uintField(line, "config", ctx);
    a.seed = jsonio::uintField(line, "seed", ctx);
    a.attempt = jsonio::uintField(line, "attempt", ctx);
    a.failureClass = jsonio::stringField(line, "class", ctx);
    a.error = jsonio::stringField(line, "error", ctx);
    a.worker = jsonio::stringField(line, "worker", ctx);
    return a;
}

[[noreturn]] void
failErrno(const std::string &what, const std::string &path)
{
    throw std::runtime_error("shard store: " + what + " " + path + ": " +
                             std::strerror(errno));
}

/** pread exactly `size` bytes at `offset`; false on end of file. */
bool
readAt(int fd, char *out, std::size_t size, std::uint64_t offset,
       const std::string &path)
{
    while (size > 0) {
        const ssize_t n =
            ::pread(fd, out, size, static_cast<off_t>(offset));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            failErrno("read failed on", path);
        }
        if (n == 0)
            return false;
        out += n;
        size -= static_cast<std::size_t>(n);
        offset += static_cast<std::uint64_t>(n);
    }
    return true;
}

/** Open a log for reading and appending (created when missing). */
int
openLog(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_APPEND, 0644);
    if (fd < 0)
        failErrno("cannot open", path);
    return fd;
}

/** Drop a log's torn or corrupt tail: with O_APPEND every new record
 *  then lands right after the last intact one. */
void
truncateLog(int fd, std::uint64_t keep, const std::string &path)
{
    if (::ftruncate(fd, static_cast<off_t>(keep)) != 0)
        failErrno("truncate failed on", path);
}

/** One frame located by scanFrames. */
struct ScannedFrame
{
    std::size_t config = 0;
    std::uint64_t offset = 0; ///< of the payload
    std::uint64_t crc = 0;
};

/**
 * Validating scan of a frame log: calls visit(frame, payload) for
 * every intact frame in file order, stopping at the first torn or
 * corrupt one. Reads sequentially through a window of at least 64 KiB
 * (or one frame, if larger), never the whole log. Returns the length
 * of the valid prefix.
 */
template <typename Visit>
std::uint64_t
scanFrames(int fd, const std::string &path, Visit &&visit)
{
    struct stat st;
    if (::fstat(fd, &st) != 0)
        failErrno("cannot stat", path);
    const auto size = static_cast<std::uint64_t>(st.st_size);
    std::string window;
    std::uint64_t windowAt = 0;
    // View of file bytes [at, at + n), n <= size - at; empty when the
    // file shrank under the scan.
    const auto bytesAt = [&](std::uint64_t at,
                             std::size_t n) -> std::string_view {
        if (at < windowAt || at + n > windowAt + window.size()) {
            window.resize(static_cast<std::size_t>(std::min<std::uint64_t>(
                std::max<std::size_t>(n, 64 * 1024), size - at)));
            windowAt = at;
            if (!readAt(fd, window.data(), window.size(), at, path))
                window.clear();
            if (window.size() < n)
                return {};
        }
        return std::string_view(window).substr(
            static_cast<std::size_t>(at - windowAt), n);
    };
    constexpr std::size_t kMaxHeader = 96;
    std::uint64_t pos = 0;
    while (pos < size) {
        const std::string_view head = bytesAt(
            pos, static_cast<std::size_t>(
                     std::min<std::uint64_t>(kMaxHeader, size - pos)));
        const std::size_t eol = head.find('\n');
        if (eol == std::string_view::npos ||
            head.substr(0, kFrameMagic.size()) != kFrameMagic)
            break;
        // Header: "#@run <config> <bytes> <crc>".
        ScannedFrame frame;
        std::uint64_t bytes = 0;
        const char *end = head.data() + eol;
        auto res = std::from_chars(head.data() + kFrameMagic.size(), end,
                                   frame.config);
        if (res.ec != std::errc{} || res.ptr >= end || *res.ptr != ' ')
            break;
        res = std::from_chars(res.ptr + 1, end, bytes);
        if (res.ec != std::errc{} || res.ptr >= end || *res.ptr != ' ')
            break;
        res = std::from_chars(res.ptr + 1, end, frame.crc);
        if (res.ec != std::errc{} || res.ptr != end)
            break;
        frame.offset = pos + eol + 1;
        if (bytes > size - frame.offset)
            break;  // torn mid-payload
        const std::string_view payload =
            bytesAt(frame.offset, static_cast<std::size_t>(bytes));
        if (payload.size() != bytes || fsio::fnv1a64(payload) != frame.crc)
            break;
        visit(frame, payload);
        pos = frame.offset + bytes;
    }
    return pos;
}

/** The result or attempt line at the head of a frame payload. */
std::string
headLine(std::string_view payload, const std::string &ctx)
{
    const std::size_t eol = payload.find('\n');
    if (eol == std::string_view::npos || eol == 0 || payload[eol - 1] != '}')
        throw std::runtime_error(ctx + ": frame holds no result line");
    return std::string(payload.substr(0, eol + 1));
}

} // namespace

ShardStore::ShardStore(const std::string &directory, std::size_t shard,
                       std::size_t lo, std::size_t hi,
                       std::uint64_t base_seed, bool export_dataset)
    : lo_(lo), hi_(hi), baseSeed_(base_seed), exportDataset_(export_dataset)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "shard_%04zu", shard);
    stem_ = buf;
    const std::string base = (fs::path(directory) / stem_).string();
    jsonlPath_ = base + ".jsonl";
    csvPath_ = base + ".csv";
    partialPath_ = base + ".partial.log";
    ledgerPath_ = base + ".quarantine.log";
}

ShardStore::~ShardStore()
{
    if (partialFd_ >= 0)
        ::close(partialFd_);
    if (ledgerFd_ >= 0)
        ::close(ledgerFd_);
}

bool
ShardStore::finalsExist() const
{
    return fs::exists(jsonlPath_) &&
           (!exportDataset_ || fs::exists(csvPath_));
}

void
ShardStore::validate(std::size_t config, std::uint64_t seed,
                     const std::string &context,
                     const std::string &remedy) const
{
    if (config < lo_ || config >= hi_)
        throw std::runtime_error(
            context + ": config index " + std::to_string(config) +
            " is outside this shard [" + std::to_string(lo_) + ", " +
            std::to_string(hi_) + ")" + remedy);
    const std::uint64_t expected = sweepConfigSeed(baseSeed_, config);
    if (seed != expected)
        throw std::runtime_error(
            context + ": seed is " + std::to_string(seed) + ", expected " +
            std::to_string(expected) + " at config " +
            std::to_string(config) + remedy);
}

std::vector<ResultRecord>
ShardStore::readFinals() const
{
    // Corruption (truncation, appended garbage, foreign results) fails
    // loudly with the offending line number, never a silent mis-resume.
    const std::string remedy = " — delete the shard files to re-run it";
    std::vector<ResultRecord> records;
    std::ifstream in(jsonlPath_);
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::string ctx = "shard results " + jsonlPath_ + ":" +
                                std::to_string(lineno);
        if (line.empty())
            throw std::runtime_error(ctx + ": empty line (truncated "
                                           "write?)" + remedy);
        // A structurally whole record ends in '}'; a mid-line
        // truncation otherwise parses as a shorter bestAction array.
        if (line.back() != '}')
            throw std::runtime_error(ctx + ": line does not end in '}' "
                                           "(truncated write?)" + remedy);
        const std::size_t next = lo_ + records.size();
        ResultRecord r = parseResultLine(line, ctx);
        if (next >= hi_ || r.config != next)
            throw std::runtime_error(
                ctx + ": unexpected config index " +
                std::to_string(r.config) + " (expected " +
                (next >= hi_ ? std::string("end of shard")
                             : std::to_string(next)) +
                ")" + remedy);
        validate(r.config, r.seed, ctx, remedy);
        records.push_back(std::move(r));
    }
    if (records.size() != hi_ - lo_)
        throw std::runtime_error(
            "shard results " + jsonlPath_ + ":" + std::to_string(lineno) +
            ": holds " + std::to_string(records.size()) + " of " +
            std::to_string(hi_ - lo_) + " configs" + remedy);
    return records;
}

void
ShardStore::removePartial() const
{
    std::error_code ec;
    fs::remove(partialPath_, ec);
}

std::vector<std::size_t>
ShardStore::repair()
{
    // Discard a previous owner's rename staging files (unique .tmp.*
    // names, so live peers of other shards are never touched) and, with
    // exportDataset, a .jsonl whose .csv was deleted by hand.
    const fs::path dir = fs::path(jsonlPath_).parent_path();
    for (const auto &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.compare(0, stem_.size() + 1, stem_ + ".") == 0 &&
            name.find(".tmp") != std::string::npos)
            fs::remove(entry.path());
    }
    if (fs::exists(jsonlPath_) && !finalsExist())
        fs::remove(jsonlPath_);

    frames_.assign(hi_ - lo_, Frame{});
    partialFd_ = openLog(partialPath_);
    const std::string ctx = "shard partial " + partialPath_;
    const std::string remedy = " — delete the partial log to re-run it";
    std::vector<std::size_t> durable;
    const std::uint64_t valid = scanFrames(
        partialFd_, partialPath_,
        [&](const ScannedFrame &f, std::string_view payload) {
            // Only range and seed are checked here; records are parsed
            // whole once, when the finals are read back.
            const std::string line = headLine(payload, ctx);
            const std::size_t config = jsonio::uintField(line, "config", ctx);
            if (config != f.config)
                throw std::runtime_error(
                    ctx + ": frame of config " + std::to_string(f.config) +
                    " holds config " + std::to_string(config) + remedy);
            validate(config, jsonio::uintField(line, "seed", ctx), ctx,
                     remedy);
            Frame &slot = frames_[config - lo_];
            if (slot.size != 0)
                return;  // keep-first: a double-execution duplicate
            slot = Frame{f.offset, payload.size(), f.crc};
            durable.push_back(config);
        });
    truncateLog(partialFd_, valid, partialPath_);
    return durable;
}

std::vector<AttemptRecord>
ShardStore::readLedger()
{
    std::vector<AttemptRecord> attempts;
    ledgerScanned_ = true;
    const int fd = ::open(ledgerPath_.c_str(), O_RDONLY);
    if (fd < 0) {
        if (errno != ENOENT)
            failErrno("cannot open", ledgerPath_);
        ledgerKeep_ = 0;
        return attempts;
    }
    const std::string ctx = "shard quarantine " + ledgerPath_;
    try {
        ledgerKeep_ = scanFrames(
            fd, ledgerPath_,
            [&](const ScannedFrame &, std::string_view payload) {
                AttemptRecord a =
                    parseAttemptLine(headLine(payload, ctx), ctx);
                validate(a.config, a.seed, ctx,
                         " — delete the ledger to re-run it");
                attempts.push_back(std::move(a));
            });
    } catch (...) {
        ::close(fd);
        throw;
    }
    ::close(fd);
    return attempts;
}

void
ShardStore::appendRun(const ResultRecord &record,
                      const std::string &csv_block)
{
    const std::string line = renderResultLine(record);
    const std::uint64_t crc =
        fsio::fnv1a64(csv_block, fsio::fnv1a64(line));
    const std::size_t size = line.size() + csv_block.size();
    std::string frame;
    frame.reserve(64 + size);
    appendFrameHeader(frame, record.config, size, crc);
    frame += line;
    frame += csv_block;

    std::lock_guard<std::mutex> lock(mutex_);
    if (partialFd_ < 0)
        throw std::logic_error("ShardStore::appendRun before repair()");
    if (record.config < lo_ || record.config >= hi_ ||
        frames_[record.config - lo_].size != 0)
        throw std::runtime_error(
            "shard partial " + partialPath_ +
            ": duplicate or out-of-range config " +
            std::to_string(record.config));
    fsio::writeAll(partialFd_, frame, partialPath_);
    // The fd's own offset is the end of this write even when a fenced
    // stale owner appends to the same file through another fd.
    const off_t end = ::lseek(partialFd_, 0, SEEK_CUR);
    if (end < 0)
        failErrno("cannot seek", partialPath_);
    frames_[record.config - lo_] =
        Frame{static_cast<std::uint64_t>(end) - size, size, crc};
}

void
ShardStore::appendAttempt(const AttemptRecord &attempt)
{
    const std::string line = renderAttemptLine(attempt);
    std::string frame;
    appendFrameHeader(frame, attempt.config, line.size(),
                      fsio::fnv1a64(line));
    frame += line;
    std::lock_guard<std::mutex> lock(mutex_);
    // Created on the first failure only: a clean shard leaves no ledger.
    if (ledgerFd_ < 0) {
        ledgerFd_ = openLog(ledgerPath_);
        if (ledgerScanned_)
            truncateLog(ledgerFd_, ledgerKeep_, ledgerPath_);
    }
    fsio::writeAll(ledgerFd_, frame, ledgerPath_);
}

void
ShardStore::finalise()
{
    if (partialFd_ < 0)
        throw std::logic_error("ShardStore::finalise before repair()");
    const std::string ctx = "shard partial " + partialPath_;
    std::string jsonl;
    std::string csvTmp;
    int csvFd = -1;
    try {
        if (exportDataset_) {
            csvTmp = fsio::uniqueTmpPath(csvPath_);
            csvFd = ::open(csvTmp.c_str(), O_CREAT | O_EXCL | O_WRONLY,
                           0644);
            if (csvFd < 0)
                failErrno("cannot create", csvTmp);
        }
        std::string payload;
        for (std::size_t i = lo_; i < hi_; ++i) {
            const Frame &f = frames_[i - lo_];
            if (f.size == 0)
                throw std::runtime_error(ctx + ": config " +
                                         std::to_string(i) +
                                         " has no durable record");
            payload.resize(static_cast<std::size_t>(f.size));
            // A mismatch means another owner rewrote the log under us.
            if (!readAt(partialFd_, payload.data(), payload.size(),
                        f.offset, partialPath_) ||
                fsio::fnv1a64(payload) != f.crc)
                throw std::runtime_error(ctx + ": record of config " +
                                         std::to_string(i) +
                                         " changed since it was written");
            const std::size_t split = payload.find('\n') + 1;
            jsonl.append(payload, 0, split);
            if (csvFd >= 0 && split < payload.size())
                fsio::writeAll(csvFd,
                               std::string_view(payload).substr(split),
                               csvTmp);
        }
        if (csvFd >= 0) {
            // fsync before the rename, so it never publishes a file
            // whose data blocks a power loss could still drop.
            if (::fsync(csvFd) != 0)
                failErrno("fsync failed on", csvTmp);
            ::close(csvFd);
            csvFd = -1;
            fs::rename(csvTmp, csvPath_);
            csvTmp.clear();
        }
        fsio::atomicWriteFile(jsonlPath_, jsonl);
    } catch (...) {
        if (csvFd >= 0)
            ::close(csvFd);
        if (!csvTmp.empty())
            ::unlink(csvTmp.c_str());
        throw;
    }
    ::close(partialFd_);
    partialFd_ = -1;
    ::unlink(partialPath_.c_str());  // ENOENT fine: a peer cleaned up
}

} // namespace archgym
