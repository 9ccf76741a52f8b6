/**
 * @file
 * The on-disk store of one shard of a sharded sweep directory (see
 * runSweepSharded in core/driver.h): every path, record format and
 * durability rule of a shard's files lives here.
 *
 *     shard_NNNN.jsonl            final results, one line per config
 *     shard_NNNN.csv              final trajectories (exportDataset)
 *     shard_NNNN.partial.log      run-granular durability log
 *     shard_NNNN.quarantine.log   attempt ledger of failing configs
 *     shard_NNNN.lease            owner lease (core/lease.h)
 *
 * Both logs are sequences of crc-framed records:
 *
 *     #@run <config> <payload bytes> <fnv1a64 of payload>\n<payload>
 *
 * A partial-log payload is one configuration's final-format result
 * line (or quarantine gap line) followed by its CSV trajectory block,
 * which is empty without exportDataset; the result line never holds a
 * raw newline (jsonio::escape), so the first '\n' splits the two. A
 * ledger payload is one attempt line. Each record is written with one
 * O_APPEND write and is the only unit of durability: a validating scan
 * stops at the first torn or corrupt frame, and reopening a log
 * truncates it there so new records continue after the last intact
 * one. When a config has several records (a double-execution race
 * between a fenced owner and its thief), the first one wins.
 *
 * Finalising copies the first record of every config, in config order,
 * from the partial log into unique tmp files, re-checking each crc,
 * then renames the CSV and then the .jsonl into place; the .jsonl is
 * the shard's completion marker. Fresh and repaired runs therefore
 * reach the finals through the same crc-checked bytes.
 */

#ifndef ARCHGYM_CORE_SHARD_STORE_H
#define ARCHGYM_CORE_SHARD_STORE_H

#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "core/param_space.h"

namespace archgym {

/** One final-format result line: a finished run or a gap record. */
struct ResultRecord
{
    std::size_t config = 0;
    std::uint64_t seed = 0;
    double bestReward = -std::numeric_limits<double>::infinity();
    std::size_t bestSampleIndex = 0;
    std::size_t samplesUsed = 0;
    Action bestAction;
    std::string hyper;
    // Gap records of quarantined configurations only.
    bool quarantined = false;
    std::size_t attempts = 0;
    std::string failureClass;
    std::string error;

    bool operator==(const ResultRecord &) const = default;
};

/** One failed attempt recorded in the quarantine ledger. */
struct AttemptRecord
{
    std::size_t config = 0;
    std::uint64_t seed = 0;
    std::size_t attempt = 0;
    std::string failureClass;
    std::string error;
    std::string worker;

    bool operator==(const AttemptRecord &) const = default;
};

/**
 * Store of shard `shard`, configs [lo, hi), of the sweep in
 * `directory`. Every record read back is validated: its config must lie
 * in [lo, hi) and its seed must be sweepConfigSeed(base_seed, config);
 * anything else throws std::runtime_error naming the file.
 *
 * appendRun()/appendAttempt() are thread-safe. The destructor only
 * closes the logs (crash semantics: a later owner repairs from them).
 */
class ShardStore
{
  public:
    ShardStore(const std::string &directory, std::size_t shard,
               std::size_t lo, std::size_t hi, std::uint64_t base_seed,
               bool export_dataset);
    ~ShardStore();

    ShardStore(const ShardStore &) = delete;
    ShardStore &operator=(const ShardStore &) = delete;

    /** The finals exist: the shard is complete. */
    bool finalsExist() const;

    /** Parse the final .jsonl, one record per config in order. */
    std::vector<ResultRecord> readFinals() const;

    /** Delete the partial log of a shard whose finals exist. */
    void removePartial() const;

    /**
     * Claim the shard's files for this owner: delete stale tmp files
     * and an orphaned .jsonl, scan the partial log (checking each
     * record's range and seed), truncate its torn tail and open it for
     * appending. Returns the configs a previous owner made durable, in
     * log order.
     */
    std::vector<std::size_t> repair();

    /** Scan the quarantine ledger (valid prefix, file order). */
    std::vector<AttemptRecord> readLedger();

    /** Persist one config's result and CSV block; throws on a config
     *  outside the shard or one that already has a record. */
    void appendRun(const ResultRecord &record, const std::string &csv_block);

    /** Persist one failed attempt to the ledger. */
    void appendAttempt(const AttemptRecord &attempt);

    /**
     * Copy every config's record into the finals (fsync'ed, CSV renamed
     * before the .jsonl) and delete the partial log. Throws when a
     * config has no record or a record no longer matches its crc.
     */
    void finalise();

  private:
    /** Where one config's record payload sits in the partial log. */
    struct Frame
    {
        std::uint64_t offset = 0;
        std::uint64_t size = 0; ///< 0 = no record yet
        std::uint64_t crc = 0;
    };

    /** The one range and seed check of every record read back. */
    void validate(std::size_t config, std::uint64_t seed,
                  const std::string &context,
                  const std::string &remedy) const;

    std::string stem_;
    std::string jsonlPath_, csvPath_, partialPath_, ledgerPath_;
    std::size_t lo_, hi_;
    std::uint64_t baseSeed_;
    bool exportDataset_;

    std::mutex mutex_;
    int partialFd_ = -1;
    int ledgerFd_ = -1;
    std::uint64_t ledgerKeep_ = 0;
    bool ledgerScanned_ = false;
    std::vector<Frame> frames_; ///< by config - lo
};

} // namespace archgym

#endif // ARCHGYM_CORE_SHARD_STORE_H
