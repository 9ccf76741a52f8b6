#include "trajectory.h"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <istream>
#include <numeric>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/jsonio.h"

namespace archgym {

void
TrajectoryLog::writeCsv(std::ostream &os, const ParamSpace &space,
                        const std::vector<std::string> &metric_names) const
{
    os << "# env=" << jsonio::escape(envName_) << "\n";
    os << "# agent=" << jsonio::escape(agentName_) << "\n";
    os << "# hyperparams=" << jsonio::escape(hyperParams_) << "\n";
    os << "# action_dims=" << space.size() << "\n";
    os << space.headerCsv();
    for (const auto &m : metric_names)
        os << "," << m;
    os << ",reward\n";
    std::string line;
    for (const auto &t : transitions_) {
        line.clear();
        bool first = true;
        for (double a : t.action) {
            if (!first)
                line.push_back(',');
            jsonio::appendDouble(line, a);
            first = false;
        }
        for (double m : t.observation) {
            line.push_back(',');
            jsonio::appendDouble(line, m);
        }
        line.push_back(',');
        jsonio::appendDouble(line, t.reward);
        line.push_back('\n');
        os << line;
    }
}

namespace {

/** Value of a "# key=value" comment line, if the line has that key. */
std::optional<std::string>
commentValue(const std::string &line, const std::string &key)
{
    const std::string prefix = "# " + key + "=";
    if (line.rfind(prefix, 0) != 0)
        return std::nullopt;
    return line.substr(prefix.size());
}

/** Decode a header value writeCsv escaped with jsonio::escape. */
std::string
unescapeHeader(const std::string &value, std::size_t line_number)
{
    const std::string quoted = '"' + value + '"';
    std::size_t pos = 0;
    std::string out;
    if (!jsonio::readString(quoted, pos, out) || pos != quoted.size())
        throw std::runtime_error("trajectory CSV line " +
                                 std::to_string(line_number) +
                                 ": bad escape in '" + value + "'");
    return out;
}

/** Parse one full CSV cell as a double; the whole cell must consume. */
double
parseCell(const std::string &cell, std::size_t line_number)
{
    double value = 0.0;
    const char *begin = cell.data();
    const char *end = begin + cell.size();
    const auto res = std::from_chars(begin, end, value);
    if (res.ec != std::errc{} || res.ptr != end)
        throw std::runtime_error("trajectory CSV line " +
                                 std::to_string(line_number) +
                                 ": non-numeric cell '" + cell + "'");
    return value;
}

/** In-flight state of one CSV trajectory block. */
struct BlockState
{
    std::string env, agent, hp;
    std::size_t actionDims = 0;
    std::size_t columns = 0;
    bool headerSeen = false;
    std::vector<std::vector<double>> rows;
    bool any = false;  ///< block has produced at least one line

    TrajectoryLog finalize(std::size_t line_number) const
    {
        TrajectoryLog log(env, agent, hp);
        if (rows.empty())
            return log;
        // writeCsv stamps the action/observation split into the header;
        // for foreign CSVs without the hint, fall back to assuming
        // three trailing metric columns plus the reward.
        const std::size_t total = rows.front().size();
        std::size_t dims = actionDims;
        if (actionDims >= total && actionDims != 0)
            throw std::runtime_error(
                "trajectory CSV line " + std::to_string(line_number) +
                ": action_dims=" + std::to_string(actionDims) +
                " not smaller than column count " + std::to_string(total));
        if (dims == 0)
            dims = total > 4 ? total - 4 : total - 1;
        for (const auto &row : rows) {
            Transition t;
            t.action.assign(row.begin(),
                            row.begin() +
                                static_cast<std::ptrdiff_t>(dims));
            t.observation.assign(
                row.begin() + static_cast<std::ptrdiff_t>(dims),
                row.end() - 1);
            t.reward = row.back();
            log.append(std::move(t));
        }
        return log;
    }
};

} // namespace

std::vector<TrajectoryLog>
TrajectoryLog::readCsvAll(std::istream &is)
{
    std::vector<TrajectoryLog> logs;
    BlockState block;
    std::string line;
    std::size_t lineNumber = 0;

    while (std::getline(is, line)) {
        ++lineNumber;
        // Tolerate CRLF files: getline leaves the '\r', which would
        // otherwise poison the last cell of every row.
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        if (line[0] == '#') {
            if (auto v = commentValue(line, "env")) {
                // A fresh `# env=` after this block's header row starts
                // the next trajectory of a multi-block (shard) CSV.
                if (block.headerSeen) {
                    logs.push_back(block.finalize(lineNumber));
                    block = BlockState{};
                }
                block.env = unescapeHeader(*v, lineNumber);
                block.any = true;
            } else if (auto a = commentValue(line, "agent")) {
                block.agent = unescapeHeader(*a, lineNumber);
                block.any = true;
            } else if (auto h = commentValue(line, "hyperparams")) {
                block.hp = unescapeHeader(*h, lineNumber);
                block.any = true;
            } else if (auto d = commentValue(line, "action_dims")) {
                std::size_t dims = 0;
                const auto res = std::from_chars(
                    d->data(), d->data() + d->size(), dims);
                if (res.ec != std::errc{} ||
                    res.ptr != d->data() + d->size())
                    throw std::runtime_error(
                        "trajectory CSV line " +
                        std::to_string(lineNumber) +
                        ": bad action_dims '" + *d + "'");
                block.actionDims = dims;
                block.any = true;
            }
            continue;
        }
        if (!block.headerSeen) {
            // Header: param names, metric names, then "reward". Only the
            // column count is needed here; action_dims splits the row.
            block.headerSeen = true;
            block.any = true;
            block.columns = static_cast<std::size_t>(std::count(
                                line.begin(), line.end(), ',')) +
                            1;
            continue;
        }
        std::vector<double> row;
        row.reserve(block.columns);
        std::stringstream ss(line);
        std::string cell;
        while (std::getline(ss, cell, ','))
            row.push_back(parseCell(cell, lineNumber));
        if (row.size() != block.columns)
            throw std::runtime_error(
                "trajectory CSV line " + std::to_string(lineNumber) +
                ": expected " + std::to_string(block.columns) +
                " cells (from header), got " +
                std::to_string(row.size()));
        block.any = true;
        block.rows.push_back(std::move(row));
    }
    if (block.any)
        logs.push_back(block.finalize(lineNumber + 1));
    return logs;
}

TrajectoryLog
TrajectoryLog::readCsv(std::istream &is)
{
    const auto logs = readCsvAll(is);
    return logs.empty() ? TrajectoryLog() : logs.front();
}

std::size_t
Dataset::transitionCount() const
{
    std::size_t n = 0;
    for (const auto &log : logs_)
        n += log.size();
    return n;
}

std::vector<std::string>
Dataset::agentNames() const
{
    std::set<std::string> names;
    for (const auto &log : logs_)
        names.insert(log.agentName());
    return {names.begin(), names.end()};
}

std::vector<Transition>
Dataset::flatten() const
{
    std::vector<Transition> out;
    out.reserve(transitionCount());
    for (const auto &log : logs_)
        for (const auto &t : log.transitions())
            out.push_back(t);
    return out;
}

std::vector<Transition>
Dataset::flattenAgent(const std::string &agent) const
{
    std::vector<Transition> out;
    for (const auto &log : logs_) {
        if (log.agentName() != agent)
            continue;
        for (const auto &t : log.transitions())
            out.push_back(t);
    }
    return out;
}

std::vector<Transition>
Dataset::drawFrom(const std::vector<Transition> &pool, std::size_t n,
                  Rng &rng)
{
    std::vector<Transition> out;
    out.reserve(n);
    if (pool.empty())
        return out;
    if (n <= pool.size()) {
        // Sample without replacement via index shuffle prefix.
        std::vector<std::size_t> idx(pool.size());
        std::iota(idx.begin(), idx.end(), 0);
        rng.shuffle(idx);
        for (std::size_t i = 0; i < n; ++i)
            out.push_back(pool[idx[i]]);
    } else {
        for (std::size_t i = 0; i < n; ++i)
            out.push_back(pool[rng.below(pool.size())]);
    }
    return out;
}

std::vector<Transition>
Dataset::sample(std::size_t n, Rng &rng) const
{
    return drawFrom(flatten(), n, rng);
}

void
Dataset::saveDirectory(const std::string &directory,
                       const ParamSpace &space,
                       const std::vector<std::string> &metric_names) const
{
    namespace fs = std::filesystem;
    fs::create_directories(directory);
    for (std::size_t i = 0; i < logs_.size(); ++i) {
        std::ostringstream name;
        name << std::setw(3) << std::setfill('0') << i << "_"
             << logs_[i].agentName() << ".csv";
        std::ofstream out(fs::path(directory) / name.str());
        logs_[i].writeCsv(out, space, metric_names);
    }
}

namespace {

void
loadDirectoryInto(Dataset &dataset, const std::filesystem::path &directory)
{
    namespace fs = std::filesystem;
    // Sort entries by path before loading: raw directory-iteration
    // order is filesystem- and creation-order-dependent, which would
    // make the same seeded sample() draw different transitions on
    // different machines.
    std::vector<fs::path> files, subdirs;
    for (const auto &entry : fs::directory_iterator(directory)) {
        if (entry.is_directory())
            subdirs.push_back(entry.path());
        else if (entry.path().extension() == ".csv")
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    std::sort(subdirs.begin(), subdirs.end());
    for (const auto &file : files) {
        std::ifstream in(file);
        if (!in)
            throw std::runtime_error("Dataset::loadDirectory: cannot "
                                     "open " + file.string());
        try {
            for (auto &log : TrajectoryLog::readCsvAll(in))
                dataset.add(std::move(log));
        } catch (const std::exception &e) {
            // Parse errors carry offsets within the stream; re-anchor
            // them to the file so a corrupt shard CSV is identifiable.
            throw std::runtime_error("Dataset::loadDirectory: " +
                                     file.string() + ": " + e.what());
        }
    }
    for (const auto &sub : subdirs)
        loadDirectoryInto(dataset, sub);
}

} // namespace

Dataset
Dataset::loadDirectory(const std::string &directory)
{
    Dataset dataset;
    loadDirectoryInto(dataset, directory);
    return dataset;
}

std::vector<Transition>
Dataset::sampleDiverse(std::size_t n, const std::vector<std::string> &agents,
                       Rng &rng) const
{
    std::vector<Transition> out;
    if (agents.empty())
        return out;
    const std::size_t share = n / agents.size();
    for (std::size_t i = 0; i < agents.size(); ++i) {
        // The last agent absorbs the rounding remainder.
        const std::size_t want =
            (i + 1 == agents.size()) ? n - out.size() : share;
        auto pool = flattenAgent(agents[i]);
        auto drawn = drawFrom(pool, want, rng);
        out.insert(out.end(), drawn.begin(), drawn.end());
    }
    return out;
}

} // namespace archgym
