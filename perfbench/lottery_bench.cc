/**
 * @file
 * Lottery benchmark: runs one workload (perfbench/workloads.cc) as
 * repeated closed batches for a fixed time and prints its metrics.
 *
 *   lottery_bench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--work-dir DIR] [--configs N] [--git-sha SHA]
 *                 [--src-digest HEX]
 *
 * --trace 0 times untraced repetitions and prints the end-to-end
 * metrics (medians over repetitions). --trace 1 alternates untraced
 * and traced repetitions and prints the per-layer metrics of the traced
 * ones plus the tracing overhead. Either way the last batch is then
 * checked for correctness outside the timed section. The last line of
 * standard output is one JSON object: correct, attempted, failed and
 * metrics. perfbench/README.md defines every metric.
 */

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/jsonio.h"
#include "core/worker_pool.h"
#include "tracing.h"
#include "workloads.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

constexpr double kMaxRunSeconds = 150.0;  // leave room for the check
constexpr int kProbesPerCycle = 40;
constexpr std::chrono::milliseconds kProbePause{20};

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir = ".bench_build/perfbench/work";
    std::size_t configs = 0;  ///< 0 = the workload's own size
    std::string gitSha = "unknown";
    std::string srcDigest = "unknown";
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + flag);
        const std::string v = argv[++i];
        if (flag == "--workload") {
            a.workload = v;
            haveWorkload = true;
        } else if (flag == "--seed") {
            a.seed = std::stoull(v);
        } else if (flag == "--seconds") {
            a.seconds = std::stod(v);
        } else if (flag == "--trace") {
            a.trace = std::stoi(v) != 0;
        } else if (flag == "--work-dir") {
            a.workDir = v;
        } else if (flag == "--configs") {
            a.configs = std::stoull(v);
        } else if (flag == "--git-sha") {
            a.gitSha = v;
        } else if (flag == "--src-digest") {
            a.srcDigest = v;
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
    }
    if (!haveWorkload)
        throw std::invalid_argument("--workload is required");
    return a;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

struct IoCounters
{
    double wchar = 0;
    double syscw = 0;
};

IoCounters
readIo()
{
    IoCounters c;
    std::ifstream in("/proc/self/io");
    std::string key;
    double value = 0;
    while (in >> key >> value) {
        if (key == "wchar:")
            c.wchar = value;
        else if (key == "syscw:")
            c.syscw = value;
    }
    return c;
}

/** CPU time, in seconds, that the shared worker pool's threads (named
 *  archgym-wN) have run: schedstat's run time where the kernel keeps
 *  it, else utime + stime from stat. */
double
poolCpuSeconds()
{
    double seconds = 0;
    for (const auto &task : fs::directory_iterator("/proc/self/task")) {
        std::string name;
        std::getline(std::ifstream(task.path() / "comm"), name);
        if (name.rfind("archgym-w", 0) != 0)
            continue;
        double runNs = 0;
        if (std::ifstream(task.path() / "schedstat") >> runNs) {
            seconds += runNs * 1e-9;
            continue;
        }
        std::string stat;
        std::getline(std::ifstream(task.path() / "stat"), stat);
        const auto close = stat.rfind(')');
        if (close == std::string::npos)
            continue;
        // Fields after the command: state is field 3, utime 14, stime 15.
        std::istringstream fields(stat.substr(close + 2));
        std::string field;
        double ticks = 0;
        for (int f = 3; f <= 15 && fields >> field; ++f)
            if (f >= 14)
                ticks += std::stod(field);
        seconds += ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
    }
    return seconds;
}

void
directoryUsage(const std::string &dir, double &bytes, double &files)
{
    bytes = files = 0;
    for (const auto &e : fs::recursive_directory_iterator(dir))
        if (e.is_regular_file()) {
            bytes += static_cast<double>(e.file_size());
            files += 1;
        }
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

std::string
filesystemType(const std::string &dir)
{
    struct statfs s;
    if (::statfs(dir.c_str(), &s) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(s.f_type)) {
      case 0xEF53: return "ext4";
      case 0x01021994: return "tmpfs";
      case 0x794c7630: return "overlayfs";
      case 0x58465342: return "xfs";
      case 0x9123683E: return "btrfs";
      case 0x6969: return "nfs";
      default: {
          char buf[32];
          std::snprintf(buf, sizeof buf, "0x%lx",
                        static_cast<unsigned long>(s.f_type));
          return buf;
      }
    }
}

/** Write back everything dirty on the filesystem holding `dir`, so a
 *  batch does not pay for the previous one's deferred writeback. */
void
flushFilesystem(const std::string &dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return;
    ::syncfs(fd);
    ::close(fd);
}

/** One timed batch. */
struct Repetition
{
    bool traced = false;
    double wallS = 0;
    double configsPerS = 0;
    double dirBytes = 0, dirFiles = 0, wchar = 0, syscw = 0;
    std::map<std::string, double> layers;  ///< traced only
};

struct MetricDef
{
    const char *name;
    const char *unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"configs_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"engine.share", "frac"},
    {"engine.residual_us_per_config", "us"},
    {"engine.residual_ms_per_shard", "ms"},
    {"engine.shards_run", "count"},
    {"engine.shard_gap_ms", "ms"},
    {"engine.shard_gap_growth", "ratio"},
    {"store.bytes_per_config", "B"},
    {"store.files", "count"},
    {"store.write_bytes_per_config", "B"},
    {"store.write_calls_per_config", "count"},
    {"pool.busy_frac", "frac"},
    {"envs.share", "frac"},
    {"envs.step_us_per_sample", "us"},
    {"envs.samples", "count"},
    {"envs.mean_batch", "count"},
    {"envs.setup_s", "s"},
    {"agents.share", "frac"},
    {"agents.propose_us_per_sample", "us"},
    {"agents.observe_us_per_sample", "us"},
    {"proxy.share", "frac"},
    {"proxy.stage_s", "s"},
    {"proxy.train_rows", "count"},
    {"proxy.evaluations", "count"},
    {"run.p50_ms", "ms"},
    {"run.p99_ms", "ms"},
    {"trace.overhead_frac", "frac"},
};

int
runBenchmark(const Args &args)
{
    WorkloadSpec spec = workloadSpec(args.workload);
    if (args.configs != 0)
        spec.configs = args.configs;
    const Inputs inputs = makeInputs(spec, args.seed);

    // Every batch writes a fresh directory under root; they are only
    // removed at the end, because deleting hundreds of megabytes slows
    // the disk's next writes for seconds after.
    const fs::path root = fs::absolute(args.workDir) / spec.name;
    fs::remove_all(root);
    fs::create_directories(root);
    flushFilesystem(root.string());
    const std::string fsType = filesystemType(root.string());
    std::size_t batches = 0;
    const auto freshDir = [&] {
        return (root / ("batch" + std::to_string(batches++))).string();
    };

    Recorder rec;
    // Untraced batches run the plain factory and builder; the wrapped
    // ones serve the set-up probes and the traced batches.
    const archgym::EnvFactory tracedFactory =
        wrapEnvFactory(inputs.envFactory, rec);
    const archgym::AgentBuilder tracedBuilder =
        wrapAgentBuilder(inputs.builder, rec);
    archgym::WorkerPool::shared();  // start the pool before timing

    std::vector<Repetition> reps;
    BatchOutcome last;
    std::size_t attempted = 0, quarantined = 0;
    // Set-up probes: the workload up to its first simulator sample.
    std::vector<double> setupProbes;
    const auto probeSetup = [&] {
        const std::string dir = freshDir();
        // Each probe starts as a lottery does: from a flushed filesystem
        // and an idle process, not straight after another set-up.
        // Back-to-back probes ran warm (0.7 ms on bo-cohort-timeloop
        // against 1.5 ms after a pause) and spread twice as wide.
        flushFilesystem(root.string());
        std::this_thread::sleep_for(kProbePause);
        rec.beginRepetition(false, true);
        const std::uint64_t t0 = rec.now();
        try {
            runBatch(spec, inputs, tracedFactory, inputs.builder, dir);
        } catch (const SetupProbeStop &) {
        }
        std::uint64_t first = 0;
        if (!rec.firstSample(first))
            throw std::runtime_error("set-up probe ran no sample");
        setupProbes.push_back(static_cast<double>(first - t0) * 1e-9);
    };

    const auto runRepetition = [&](bool traced) {
        const std::string dir = freshDir();
        rec.beginRepetition(traced);
        const IoCounters io0 = readIo();
        const double pool0 = poolCpuSeconds();
        const std::uint64_t t0 = rec.now();
        BatchOutcome out =
            traced ? runBatch(spec, inputs, tracedFactory, tracedBuilder,
                              dir)
                   : runBatch(spec, inputs, inputs.envFactory,
                              inputs.builder, dir);
        const std::uint64_t t1 = rec.now();
        const double pool1 = poolCpuSeconds();
        const IoCounters io1 = readIo();

        Repetition r;
        r.traced = traced;
        r.wallS = static_cast<double>(t1 - t0) * 1e-9;
        r.configsPerS = static_cast<double>(out.decided) / r.wallS;
        r.wchar = io1.wchar - io0.wchar;
        r.syscw = io1.syscw - io0.syscw;
        directoryUsage(dir, r.dirBytes, r.dirFiles);
        if (traced) {
            r.layers = layerMetrics(spec, inputs, out, rec, t0, t1);
            r.layers["pool.busy_frac"] =
                (pool1 - pool0) /
                (r.wallS *
                 static_cast<double>(archgym::WorkerPool::shared().size()));
        }
        attempted += out.decided;
        for (const auto &s : out.sweeps)
            quarantined += s.runsQuarantined;
        reps.push_back(std::move(r));
        last = std::move(out);
    };

    const auto start = std::chrono::steady_clock::now();
    const auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    // At least minCycles batches, then stop when another would overrun
    // the requested seconds.
    const std::size_t minCycles = args.trace ? 2 : 3;
    for (std::size_t cycles = 1;; ++cycles) {
        const double before = elapsed();
        for (int p = 0; p < kProbesPerCycle; ++p)
            probeSetup();
        if (args.trace) {
            flushFilesystem(root.string());
            runRepetition(false);
        }
        flushFilesystem(root.string());
        runRepetition(args.trace);
        const double projected = 2 * elapsed() - before;
        if ((cycles >= minCycles && projected > args.seconds) ||
            projected > kMaxRunSeconds)
            break;
    }
    const double peakRssMb = [] {
        struct rusage ru;
        ::getrusage(RUSAGE_SELF, &ru);
        return static_cast<double>(ru.ru_maxrss) / 1024.0;
    }();
    if (args.trace)
        rec.writeSpans((fs::path(args.workDir) /
                        (spec.name + ".spans")).string());

    const CheckOutcome check = checkBatch(spec, inputs, last);
    const std::size_t failed =
        std::min(attempted, quarantined + check.failedConfigs(spec.samples));
    const bool correct = check.ok() && failed == 0;

    std::vector<double> cps, cpsTraced, bytes, files, wchar, syscw;
    std::map<std::string, std::vector<double>> layers;
    const double simulated = static_cast<double>(last.simulatedConfigs);
    for (const auto &r : reps) {
        (r.traced ? cpsTraced : cps).push_back(r.configsPerS);
        bytes.push_back(r.dirBytes / simulated);
        files.push_back(r.dirFiles);
        wchar.push_back(r.wchar / simulated);
        syscw.push_back(r.syscw / simulated);
        for (const auto &[k, v] : r.layers)
            layers[k].push_back(v);
    }

    std::map<std::string, double> values;
    if (!args.trace) {
        values["configs_per_s"] = median(cps);
        values["setup_s"] = median(setupProbes);
        values["peak_rss_mb"] = peakRssMb;
    } else {
        for (const auto &[k, v] : layers)
            values[k] = median(v);
        values["store.bytes_per_config"] = median(bytes);
        values["store.files"] = median(files);
        values["store.write_bytes_per_config"] = median(wchar);
        values["store.write_calls_per_config"] = median(syscw);
        values["trace.overhead_frac"] =
            1.0 - median(cpsTraced) / median(cps);
    }
    const auto &defs = args.trace ? kPerLayer : kEndToEnd;

    // Run metadata, the human-readable summary, then the result line.
    struct utsname un;
    ::uname(&un);
    std::string meta = "{\"meta\":{";
    const auto field = [&meta](const char *key, const std::string &value,
                               bool quoted) {
        if (meta.back() != '{')
            meta += ',';
        meta += '"';
        meta += key;
        meta += "\":";
        meta += quoted ? '"' + archgym::jsonio::escape(value) + '"' : value;
    };
    field("workload", spec.name, true);
    field("seed", std::to_string(args.seed), false);
    field("trace", args.trace ? "1" : "0", false);
    field("seconds", num(args.seconds), false);
    field("configs", std::to_string(spec.configs), false);
    field("repetitions", std::to_string(reps.size()), false);
    field("nproc", std::to_string(std::thread::hardware_concurrency()),
          false);
    field("cpu", cpuModel(), true);
    field("kernel", un.release, true);
    field("compiler", PERFBENCH_COMPILER, true);
    field("flags", PERFBENCH_FLAGS, true);
    field("git_sha", args.gitSha, true);
    field("src_digest", args.srcDigest, true);
    field("sweep_fs", fsType, true);
    meta += "}}";
    std::printf("%s\n", meta.c_str());
    std::sort(setupProbes.begin(), setupProbes.end());
    std::printf("# set-up probes: %zu, quartiles %.6f %.6f %.6f s\n",
                setupProbes.size(), percentile(setupProbes, 0.25),
                median(setupProbes), percentile(setupProbes, 0.75));
    for (const auto &r : reps)
        std::printf("# rep %s wall %.4f s  configs/s %.1f\n",
                    r.traced ? "traced  " : "untraced", r.wallS,
                    r.configsPerS);
    for (const auto &e : check.errors)
        std::printf("# check FAILED: %s\n", e.c_str());
    std::printf("# check: %zu configs re-run in memory, %zu mismatched; "
                "export %zu/%zu transitions\n",
                check.checked, check.mismatched, check.transitionsFound,
                check.transitionsExpected);
    std::printf("%-34s %.6g frac\n", "failed_frac",
                static_cast<double>(failed) /
                    static_cast<double>(std::max<std::size_t>(1, attempted)));
    std::string metrics;
    for (const auto &d : defs) {
        const double v = values.count(d.name) ? values[d.name] : 0.0;
        std::printf("%-34s %.6g %s\n", d.name, v, d.unit);
        if (!metrics.empty())
            metrics += ",";
        metrics += '"';
        metrics += d.name;
        metrics += "\":{\"value\":";
        metrics += num(v);
        metrics += ",\"unit\":\"";
        metrics += d.unit;
        metrics += "\"}";
    }
    const std::string result =
        std::string("{\"correct\":") + (correct ? "true" : "false") +
        ",\"attempted\":" + std::to_string(attempted) +
        ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{" +
        metrics + "}}";

    const fs::path resultsDir = fs::path(args.workDir) / "results";
    fs::create_directories(resultsDir);
    std::ofstream(resultsDir / (spec.name + "-seed" +
                                std::to_string(args.seed) + "-trace" +
                                (args.trace ? "1" : "0") + ".json"))
        << meta << "\n" << result << "\n";
    fs::remove_all(root);
    flushFilesystem(args.workDir);

    std::printf("%s\n", result.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runBenchmark(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "lottery_bench: %s\n", e.what());
        return 2;
    }
}
