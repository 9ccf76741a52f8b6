#include "tracing.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include <unistd.h>

namespace perfbench {

using archgym::Action;
using archgym::Agent;
using archgym::Environment;
using archgym::Metrics;
using archgym::ParamSpace;
using archgym::StepResult;

namespace {

/** Process-wide, so a thread's cached buffer can never belong to an
 *  earlier repetition or to another Recorder. */
std::atomic<std::uint64_t> g_generation{0};
thread_local std::uint64_t t_generation = 0;
thread_local ThreadSpans *t_spans = nullptr;

class TimedEnvironment final : public Environment
{
  public:
    TimedEnvironment(std::unique_ptr<Environment> inner, Recorder &rec)
        : inner_(std::move(inner)), rec_(rec)
    {}

    const std::string &name() const override { return inner_->name(); }
    const ParamSpace &actionSpace() const override
    {
        return inner_->actionSpace();
    }
    const std::vector<std::string> &metricNames() const override
    {
        return inner_->metricNames();
    }
    void reset() override { inner_->reset(); }

    StepResult step(const Action &action) override
    {
        const std::uint64_t t0 = rec_.now();
        rec_.noteSample(t0);
        if (rec_.stopAtFirstSample())
            throw SetupProbeStop{};
        if (!rec_.tracing())
            return inner_->step(action);
        StepResult r = inner_->step(action);
        rec_.call(SpanKind::Step, t0, rec_.now(), 1);
        return r;
    }

    std::vector<StepResult>
    stepBatch(const std::vector<Action> &actions) override
    {
        const std::uint64_t t0 = rec_.now();
        rec_.noteSample(t0);
        if (rec_.stopAtFirstSample())
            throw SetupProbeStop{};
        if (!rec_.tracing())
            return inner_->stepBatch(actions);
        std::vector<StepResult> r = inner_->stepBatch(actions);
        rec_.call(SpanKind::Step, t0, rec_.now(), actions.size());
        return r;
    }

  private:
    std::unique_ptr<Environment> inner_;
    Recorder &rec_;
};

class TimedAgent final : public Agent
{
  public:
    TimedAgent(std::unique_ptr<Agent> inner, Recorder &rec,
               std::uint64_t built_at, std::uint64_t seed)
        : Agent(inner->name(), inner->space(), inner->hyperParams()),
          inner_(std::move(inner)), rec_(rec), builtAt_(built_at),
          seed_(seed)
    {}

    TimedAgent(const TimedAgent &) = delete;
    TimedAgent &operator=(const TimedAgent &) = delete;

    ~TimedAgent() override
    {
        inner_.reset();
        rec_.run(builtAt_, rec_.now(), seed_);
    }

    Action selectAction() override
    {
        const std::uint64_t t0 = rec_.now();
        Action a = inner_->selectAction();
        rec_.call(SpanKind::Propose, t0, rec_.now());
        return a;
    }

    void observe(const Action &action, const Metrics &metrics,
                 double reward) override
    {
        const std::uint64_t t0 = rec_.now();
        inner_->observe(action, metrics, reward);
        rec_.call(SpanKind::Observe, t0, rec_.now());
    }

    std::vector<Action> selectActionBatch(std::size_t max_actions) override
    {
        const std::uint64_t t0 = rec_.now();
        std::vector<Action> a = inner_->selectActionBatch(max_actions);
        rec_.call(SpanKind::Propose, t0, rec_.now());
        return a;
    }

    void observeBatch(const std::vector<Action> &actions,
                      const std::vector<StepResult> &results) override
    {
        const std::uint64_t t0 = rec_.now();
        inner_->observeBatch(actions, results);
        rec_.call(SpanKind::Observe, t0, rec_.now());
    }

    void reset() override { inner_->reset(); }

  private:
    std::unique_ptr<Agent> inner_;
    Recorder &rec_;
    std::uint64_t builtAt_;
    std::uint64_t seed_;
};

} // namespace

void
Recorder::beginRepetition(bool tracing, bool stop_at_first_sample)
{
    tracing_ = tracing;
    stopAtFirstSample_ = stop_at_first_sample;
    generation_ = ++g_generation;
    threads_.clear();
    firstSample_.store(0, std::memory_order_relaxed);
    epoch_ = std::chrono::steady_clock::now();
}

bool
Recorder::firstSample(std::uint64_t &t) const
{
    const std::uint64_t v = firstSample_.load(std::memory_order_relaxed);
    if (v == 0)
        return false;
    t = v - 1;
    return true;
}

ThreadSpans &
Recorder::local()
{
    if (t_generation != generation_) {
        auto spans = std::make_unique<ThreadSpans>();
        t_spans = spans.get();
        t_generation = generation_;
        std::lock_guard<std::mutex> lock(threadsMutex_);
        threads_.push_back(std::move(spans));
    }
    return *t_spans;
}

void
Recorder::call(SpanKind kind, std::uint64_t start, std::uint64_t end,
               std::size_t count)
{
    if (!tracing_)
        return;
    CallSpan s;
    s.start = start;
    s.dur = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(end - start, UINT32_MAX));
    s.kind = kind;
    s.count = static_cast<std::uint16_t>(
        std::min<std::size_t>(count, UINT16_MAX));
    local().calls.push_back(s);
}

void
Recorder::run(std::uint64_t start, std::uint64_t end, std::uint64_t seed)
{
    if (!tracing_)
        return;
    local().runs.push_back(RunSpan{start, end, seed});
}

void
Recorder::writeSpans(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        throw std::runtime_error("cannot write " + path);
    bool ok = true;
    const auto put = [&](const void *p, std::size_t n) {
        if (n != 0 && std::fwrite(p, 1, n, f) != n)
            ok = false;
    };
    const std::uint64_t threads = threads_.size();
    put("AGSPANS1", 8);
    put(&threads, sizeof threads);
    for (const auto &t : threads_) {
        const std::uint64_t nc = t->calls.size(), nr = t->runs.size();
        put(&nc, sizeof nc);
        put(&nr, sizeof nr);
        put(t->calls.data(), nc * sizeof(CallSpan));
        put(t->runs.data(), nr * sizeof(RunSpan));
    }
    ok = std::fflush(f) == 0 && ok;
    ok = ::fdatasync(::fileno(f)) == 0 && ok;
    ok = std::fclose(f) == 0 && ok;
    if (!ok)
        throw std::runtime_error("short write to " + path);
}

archgym::EnvFactory
wrapEnvFactory(archgym::EnvFactory inner, Recorder &recorder)
{
    return [inner = std::move(inner), &recorder] {
        const std::uint64_t t0 = recorder.now();
        std::unique_ptr<Environment> env = inner();
        recorder.call(SpanKind::EnvSetup, t0, recorder.now());
        return std::unique_ptr<Environment>(
            std::make_unique<TimedEnvironment>(std::move(env), recorder));
    };
}

archgym::AgentBuilder
wrapAgentBuilder(archgym::AgentBuilder inner, Recorder &recorder)
{
    return [inner = std::move(inner), &recorder](
               const ParamSpace &space, const archgym::HyperParams &hp,
               std::uint64_t seed) {
        const std::uint64_t t0 = recorder.now();
        std::unique_ptr<Agent> agent = inner(space, hp, seed);
        return std::unique_ptr<Agent>(std::make_unique<TimedAgent>(
            std::move(agent), recorder, t0, seed));
    };
}

} // namespace perfbench
