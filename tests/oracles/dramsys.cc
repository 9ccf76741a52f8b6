#include "oracles/oracles.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace archgym::oracle {

using namespace dram;

namespace {

constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();
constexpr std::size_t kReorderWindow = 8;
constexpr std::size_t kWriteDrainWatermark = 12;

std::uint32_t
log2u(std::uint32_t v)
{
    std::uint32_t bits = 0;
    while ((1u << bits) < v)
        ++bits;
    return bits;
}

} // namespace

ReferenceDramController::ReferenceDramController(const MemSpec &spec,
                               const ControllerConfig &config)
    : spec_(spec), config_(config), device_(spec)
{
    // Row : Rank : Bank : Column : ByteOffset (LSB), so that sequential
    // streams sweep columns within a row and neighbouring rows land in
    // the same bank only after touching every bank (bank parallelism).
    const std::uint32_t offsetBits = log2u(spec_.accessBytes());
    const std::uint32_t columnBits =
        log2u(spec_.columnsPerRow * spec_.bytesPerColumn /
              spec_.accessBytes());
    const std::uint32_t bankBits = log2u(spec_.banksPerRank);
    const std::uint32_t rankBits = log2u(spec_.ranks);

    columnShift_ = offsetBits;
    bankShift_ = columnShift_ + columnBits;
    rankShift_ = bankShift_ + bankBits;
    rowShift_ = rankShift_ + rankBits;
    columnMask_ = (1u << columnBits) - 1;
    bankMask_ = (1u << bankBits) - 1;
    rankMask_ = rankBits ? (1u << rankBits) - 1 : 0;
    rowMask_ = spec_.rowsPerBank - 1;
}

DramAddress
ReferenceDramController::decode(std::uint64_t address) const
{
    DramAddress loc;
    loc.column = static_cast<std::uint32_t>(address >> columnShift_) &
                 columnMask_;
    loc.bank = static_cast<std::uint32_t>(address >> bankShift_) &
               bankMask_;
    loc.rank = rankMask_
                   ? static_cast<std::uint32_t>(address >> rankShift_) &
                         rankMask_
                   : 0;
    loc.row = static_cast<std::uint32_t>(address >> rowShift_) & rowMask_;
    return loc;
}

std::size_t
ReferenceDramController::queueIndexFor(const MemoryRequest &req) const
{
    switch (config_.schedulerBuffer) {
      case BufferOrg::Bankwise:
        return req.loc.flatBank(spec_.banksPerRank);
      case BufferOrg::ReadWrite:
        return req.isWrite ? 1 : 0;
      case BufferOrg::Shared:
      default:
        return 0;
    }
}

bool
ReferenceDramController::queueHasSpace(std::size_t queue_index) const
{
    return buffers_.queues[queue_index].size() <
           buffers_.capacityPerQueue;
}

void
ReferenceDramController::admitInto(std::size_t request_index, std::uint64_t now)
{
    MemoryRequest &req = requests_[request_index];
    req.admitCycle = std::max(now, req.arrivalCycle);
    buffers_.queues[queueIndexFor(req)].push_back(request_index);
    ++activeTransactions_;
    if (!req.isWrite && config_.respQueue == RespQueuePolicy::Fifo)
        respFifo_.push_back(request_index);
}

void
ReferenceDramController::admit(std::uint64_t now)
{
    auto canAdmit = [&](std::size_t idx) {
        return activeTransactions_ < config_.maxActiveTransactions &&
               queueHasSpace(queueIndexFor(requests_[idx]));
    };

    switch (config_.arbiter) {
      case ArbiterPolicy::Simple:
        // Head-only, at most one admission per scheduling round.
        if (arrivalIndex_ < requests_.size() &&
            requests_[arrivalIndex_].arrivalCycle <= now &&
            canAdmit(arrivalIndex_)) {
            admitInto(arrivalIndex_, now);
            ++arrivalIndex_;
        }
        break;
      case ArbiterPolicy::Fifo:
        // In-order admission while the head fits.
        while (arrivalIndex_ < requests_.size() &&
               requests_[arrivalIndex_].arrivalCycle <= now &&
               canAdmit(arrivalIndex_)) {
            admitInto(arrivalIndex_, now);
            ++arrivalIndex_;
        }
        break;
      case ArbiterPolicy::Reorder: {
        // Out-of-order admission within a lookahead window: requests
        // blocked on a full bank queue do not stall younger requests.
        std::size_t scanned = 0;
        for (std::size_t i = arrivalIndex_;
             i < requests_.size() && scanned < kReorderWindow;
             ++i, ++scanned) {
            if (requests_[i].arrivalCycle > now)
                break;
            if (requests_[i].admitCycle != 0 ||
                requests_[i].completionCycle != 0) {
                continue;  // already admitted out of order
            }
            if (canAdmit(i)) {
                // Mark admission by a non-zero admitCycle; requests at
                // cycle 0 are bumped to 1 to keep the marker valid.
                admitInto(i, std::max<std::uint64_t>(now, 1));
            }
        }
        // Advance past the contiguous admitted prefix.
        while (arrivalIndex_ < requests_.size() &&
               requests_[arrivalIndex_].admitCycle != 0) {
            ++arrivalIndex_;
        }
        break;
      }
    }
}

std::size_t
ReferenceDramController::totalQueued() const
{
    std::size_t n = 0;
    for (const auto &q : buffers_.queues)
        n += q.size();
    return n;
}

std::size_t
ReferenceDramController::queuedOfKind(bool is_write) const
{
    std::size_t n = 0;
    for (const auto &q : buffers_.queues)
        for (std::size_t idx : q)
            if (requests_[idx].isWrite == is_write)
                ++n;
    return n;
}

bool
ReferenceDramController::pendingRowHitInQueues(std::uint32_t flat_bank,
                                      std::uint32_t row) const
{
    for (const auto &q : buffers_.queues) {
        for (std::size_t idx : q) {
            const MemoryRequest &r = requests_[idx];
            if (r.loc.flatBank(spec_.banksPerRank) == flat_bank &&
                r.loc.row == row) {
                return true;
            }
        }
    }
    return false;
}

std::size_t
ReferenceDramController::schedule(std::uint64_t now)
{
    (void)now;
    if (totalQueued() == 0)
        return kNpos;

    // FrFcFsGrp: decide which group (reads or writes) is being drained.
    bool restrictKind = false;
    bool wantWrite = false;
    if (config_.scheduler == SchedulerPolicy::FrFcFsGrp) {
        const std::size_t reads = queuedOfKind(false);
        const std::size_t writes = queuedOfKind(true);
        if (writeGroupActive_) {
            if (writes == 0)
                writeGroupActive_ = false;
        } else {
            if (reads == 0 || writes >= kWriteDrainWatermark)
                writeGroupActive_ = true;
        }
        restrictKind = (writeGroupActive_ ? writes : reads) > 0;
        wantWrite = writeGroupActive_;
    }

    const bool preferHits =
        config_.scheduler != SchedulerPolicy::Fifo;

    std::size_t bestHit = kNpos, bestAny = kNpos;
    auto older = [&](std::size_t a, std::size_t b) {
        if (b == kNpos)
            return true;
        const MemoryRequest &ra = requests_[a];
        const MemoryRequest &rb = requests_[b];
        if (ra.admitCycle != rb.admitCycle)
            return ra.admitCycle < rb.admitCycle;
        return ra.id < rb.id;
    };

    for (const auto &q : buffers_.queues) {
        for (std::size_t idx : q) {
            const MemoryRequest &r = requests_[idx];
            if (restrictKind && r.isWrite != wantWrite)
                continue;
            const std::uint32_t bank =
                r.loc.flatBank(spec_.banksPerRank);
            if (preferHits && device_.rowOpen(bank) &&
                device_.openRow(bank) == r.loc.row) {
                if (older(idx, bestHit))
                    bestHit = idx;
            }
            if (older(idx, bestAny))
                bestAny = idx;
        }
    }
    if (preferHits && bestHit != kNpos)
        return bestHit;
    return bestAny;
}

void
ReferenceDramController::resolveReadCompletion(std::size_t request_index)
{
    MemoryRequest &req = requests_[request_index];
    if (config_.respQueue == RespQueuePolicy::Reorder) {
        req.completionCycle = req.dataCycle;
        ++resolvedCount_;
        retireHeap_.emplace_back(req.completionCycle, request_index);
        std::push_heap(retireHeap_.begin(), retireHeap_.end(),
                       std::greater<>());
        return;
    }
    drainRespFifo();
}

void
ReferenceDramController::drainRespFifo()
{
    while (respFifoHead_ < respFifo_.size()) {
        const std::size_t idx = respFifo_[respFifoHead_];
        MemoryRequest &req = requests_[idx];
        if (req.dataCycle == 0)
            break;  // head not yet serviced: younger responses blocked
        req.completionCycle = std::max(req.dataCycle, lastRespRelease_);
        lastRespRelease_ = req.completionCycle;
        ++resolvedCount_;
        retireHeap_.emplace_back(req.completionCycle, idx);
        std::push_heap(retireHeap_.begin(), retireHeap_.end(),
                       std::greater<>());
        ++respFifoHead_;
    }
}

void
ReferenceDramController::retire(std::uint64_t now)
{
    while (!retireHeap_.empty() && retireHeap_.front().first <= now) {
        std::pop_heap(retireHeap_.begin(), retireHeap_.end(),
                      std::greater<>());
        retireHeap_.pop_back();
        assert(activeTransactions_ > 0);
        --activeTransactions_;
    }
}

void
ReferenceDramController::accrueRefreshDebt(std::uint64_t now)
{
    while (now >= nextRefreshDue_) {
        ++refreshOwed_;
        nextRefreshDue_ += spec_.timing.tREFI;
    }
}

bool
ReferenceDramController::refreshForced() const
{
    return refreshOwed_ >
           static_cast<std::int64_t>(config_.refreshMaxPostponed);
}

std::uint64_t
ReferenceDramController::performRefresh(std::uint64_t now)
{
    // All banks must be precharged before an all-bank refresh.
    for (std::uint32_t b = 0; b < spec_.totalBanks(); ++b) {
        if (device_.rowOpen(b)) {
            const std::uint64_t t =
                std::max(now, device_.earliestPrecharge(b));
            device_.issuePrecharge(b, t);
        }
    }
    const std::uint64_t start =
        std::max(now, device_.earliestRefresh());
    const std::uint64_t done = device_.issueRefresh(start);
    --refreshOwed_;
    refreshBusyUntil_ = done;
    return done;
}

std::uint64_t
ReferenceDramController::service(std::size_t request_index, std::uint64_t now)
{
    MemoryRequest &req = requests_[request_index];
    const std::uint32_t bank = req.loc.flatBank(spec_.banksPerRank);
    const std::uint32_t row = req.loc.row;

    // Remove from its scheduler queue.
    auto &queue = buffers_.queues[queueIndexFor(req)];
    queue.erase(std::find(queue.begin(), queue.end(), request_index));

    std::uint64_t firstIssue = std::numeric_limits<std::uint64_t>::max();

    const bool hit = device_.rowOpen(bank) &&
                     device_.openRow(bank) == row;
    if (hit) {
        ++rowHits_;
    } else {
        ++rowMisses_;
        if (device_.rowOpen(bank)) {
            const std::uint64_t tPre =
                std::max(now, device_.earliestPrecharge(bank));
            device_.issuePrecharge(bank, tPre);
            firstIssue = std::min(firstIssue, tPre);
        }
        const std::uint64_t tAct =
            std::max(now, device_.earliestActivate(bank));
        device_.issueActivate(bank, row, tAct);
        firstIssue = std::min(firstIssue, tAct);
    }

    std::uint64_t tCol, dataEnd;
    if (req.isWrite) {
        tCol = std::max(now, device_.earliestWrite(bank));
        dataEnd = device_.issueWrite(bank, tCol);
    } else {
        tCol = std::max(now, device_.earliestRead(bank));
        dataEnd = device_.issueRead(bank, tCol);
    }
    firstIssue = std::min(firstIssue, tCol);
    req.dataCycle = dataEnd;

    // Row-buffer management after the column access.
    bool doPrecharge = false;
    switch (config_.pagePolicy) {
      case PagePolicy::Open:
        break;
      case PagePolicy::Closed:
        doPrecharge = true;
        break;
      case PagePolicy::OpenAdaptive:
        // Keep the row open unless a queued conflict is waiting on this
        // bank with a different row.
        for (const auto &q : buffers_.queues) {
            for (std::size_t idx : q) {
                const MemoryRequest &r = requests_[idx];
                if (r.loc.flatBank(spec_.banksPerRank) == bank &&
                    r.loc.row != row) {
                    doPrecharge = true;
                    break;
                }
            }
            if (doPrecharge)
                break;
        }
        break;
      case PagePolicy::ClosedAdaptive:
        // Close unless another queued request hits this very row.
        doPrecharge = !pendingRowHitInQueues(bank, row);
        break;
    }
    if (doPrecharge && device_.rowOpen(bank)) {
        const std::uint64_t tPre =
            std::max(tCol, device_.earliestPrecharge(bank));
        device_.issuePrecharge(bank, tPre);
    }

    // Completion semantics.
    if (req.isWrite) {
        req.completionCycle = dataEnd;
        ++resolvedCount_;
        retireHeap_.emplace_back(req.completionCycle, request_index);
        std::push_heap(retireHeap_.begin(), retireHeap_.end(),
                       std::greater<>());
    } else {
        resolveReadCompletion(request_index);
    }
    return firstIssue;
}

SimResult
ReferenceDramController::run(std::vector<MemoryRequest> trace)
{
    // Reset per-run state.
    device_ = DramDevice(spec_);
    requests_ = std::move(trace);
    buffers_ = QueueSet{};
    arrivalIndex_ = 0;
    activeTransactions_ = 0;
    respFifo_.clear();
    respFifoHead_ = 0;
    lastRespRelease_ = 0;
    retireHeap_.clear();
    resolvedCount_ = 0;
    refreshOwed_ = 0;
    nextRefreshDue_ = spec_.timing.tREFI;
    refreshBusyUntil_ = 0;
    forcedRefreshes_ = 0;
    writeGroupActive_ = false;
    rowHits_ = rowMisses_ = 0;

    const std::uint32_t banks = spec_.totalBanks();
    switch (config_.schedulerBuffer) {
      case BufferOrg::Bankwise:
        buffers_.queues.resize(banks);
        buffers_.capacityPerQueue = config_.requestBufferSize;
        break;
      case BufferOrg::ReadWrite:
        buffers_.queues.resize(2);
        buffers_.capacityPerQueue = std::max<std::size_t>(
            1, static_cast<std::size_t>(config_.requestBufferSize) *
                   banks / 2);
        break;
      case BufferOrg::Shared:
        buffers_.queues.resize(1);
        buffers_.capacityPerQueue =
            static_cast<std::size_t>(config_.requestBufferSize) * banks;
        break;
    }

    for (auto &r : requests_) {
        r.loc = decode(r.address);
        r.admitCycle = 0;
        r.dataCycle = 0;
        r.completionCycle = 0;
    }

    std::uint64_t now = 0;
    const std::size_t total = requests_.size();
    while (resolvedCount_ < total) {
        retire(now);
        accrueRefreshDebt(now);
        admit(now);

        if (refreshForced()) {
            now = performRefresh(now);
            ++forcedRefreshes_;
            continue;
        }

        const std::size_t pick = schedule(now);
        if (pick != kNpos) {
            const std::uint64_t firstIssue = service(pick, now);
            now = std::max(now + 1, firstIssue + 1);
            continue;
        }

        // Idle: pull refreshes in early when the bus has slack.
        const bool arrivalsSoon =
            arrivalIndex_ < total &&
            requests_[arrivalIndex_].arrivalCycle <=
                now + spec_.timing.tRFC;
        if (!arrivalsSoon && activeTransactions_ == 0 &&
            refreshOwed_ >
                -static_cast<std::int64_t>(config_.refreshMaxPulledin)) {
            now = performRefresh(now);
            continue;
        }

        // Advance to the next event.
        std::uint64_t next = std::numeric_limits<std::uint64_t>::max();
        if (arrivalIndex_ < total) {
            next = std::min(next,
                            std::max(requests_[arrivalIndex_].arrivalCycle,
                                     now + 1));
        }
        if (!retireHeap_.empty()) {
            next = std::min(next,
                            std::max(retireHeap_.front().first, now + 1));
        }
        next = std::min(next, std::max(nextRefreshDue_, now + 1));
        if (next == std::numeric_limits<std::uint64_t>::max())
            next = now + 1;
        now = next;
    }

    // Aggregate results.
    SimResult result;
    result.requests = requests_.size();
    double latencySum = 0.0, readLatencySum = 0.0;
    std::uint64_t lastCompletion = 0;
    for (const auto &r : requests_) {
        const double latencyNs =
            static_cast<double>(r.completionCycle - r.arrivalCycle) *
            spec_.clockNs;
        latencySum += latencyNs;
        result.maxLatencyNs = std::max(result.maxLatencyNs, latencyNs);
        if (r.isWrite) {
            ++result.writes;
        } else {
            ++result.reads;
            readLatencySum += latencyNs;
        }
        lastCompletion = std::max(lastCompletion, r.completionCycle);
    }
    result.avgLatencyNs =
        latencySum / static_cast<double>(result.requests);
    result.avgReadLatencyNs =
        result.reads ? readLatencySum / static_cast<double>(result.reads)
                     : 0.0;
    result.totalCycles = std::max(lastCompletion, refreshBusyUntil_);
    result.totalTimeNs =
        static_cast<double>(result.totalCycles) * spec_.clockNs;
    const double bytes = static_cast<double>(result.requests) *
                         spec_.accessBytes();
    result.bandwidthGBps =
        result.totalTimeNs > 0.0 ? bytes / result.totalTimeNs : 0.0;
    result.rowHits = rowHits_;
    result.rowMisses = rowMisses_;
    result.refreshes = device_.counts().refreshes;
    result.forcedRefreshes = forcedRefreshes_;
    result.power = computePower(spec_, device_.counts(),
                                result.totalCycles,
                                device_.openCycles(result.totalCycles),
                                controllerPowerMw(config_));
    return result;
}

ReferenceStackProfiler::ReferenceStackProfiler(std::uint64_t line_bytes,
                                               std::uint64_t max_distance)
    : lineBytes_(line_bytes), maxDistance_(max_distance),
      histogram_(max_distance, 0)
{
    requireProfilerArgs(line_bytes, max_distance);
}

void
ReferenceStackProfiler::observe(std::uint64_t address, bool is_write)
{
    const std::uint64_t line = address / lineBytes_;
    const auto it = std::find(stack_.begin(), stack_.end(), line);
    if (it == stack_.end()) {
        ++cold_;
    } else {
        const std::size_t depth =
            static_cast<std::size_t>(it - stack_.begin());
        if (depth >= maxDistance_)
            ++overflow_;
        else
            ++histogram_[depth];
        stack_.erase(it);
    }
    stack_.insert(stack_.begin(), line);
    ++total_;
    writes_ += is_write;
}

void
ReferenceStackProfiler::observe(const MemoryRequest &r)
{
    if (hasArrival_ && r.arrivalCycle >= lastArrival_)
        gapSum_ += r.arrivalCycle - lastArrival_;
    lastArrival_ = r.arrivalCycle;
    hasArrival_ = true;
    observe(r.address, r.isWrite);
}

StackDistanceCdf
ReferenceStackProfiler::cdf() const
{
    StackDistanceCdf out;
    out.lineBytes = lineBytes_;
    out.maxDistance = maxDistance_;
    out.totalAccesses = total_;
    out.coldAccesses = cold_;
    out.overflowAccesses = overflow_;
    out.writeFraction =
        total_ ? static_cast<double>(writes_) / static_cast<double>(total_)
               : 0.0;
    out.meanGapCycles =
        total_ > 1 ? static_cast<double>(gapSum_) /
                         static_cast<double>(total_ - 1)
                   : 0.0;
    out.histogram = histogram_;
    return out;
}

} // namespace archgym::oracle
