#include "open_loop.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <numeric>
#include <span>
#include <thread>

#include "common/timer.h"
#include "perf.h"

namespace graphite::perf {

TargetSampler::TargetSampler(const CsrGraph &graph, double zipfExponent)
    : ranked_(graph.numVertices())
{
    std::iota(ranked_.begin(), ranked_.end(), VertexId{0});
    if (zipfExponent <= 0.0)
        return;
    std::stable_sort(ranked_.begin(), ranked_.end(),
                     [&graph](VertexId a, VertexId b) {
                         return graph.degree(a) > graph.degree(b);
                     });
    cdf_.resize(ranked_.size());
    double total = 0.0;
    for (std::size_t i = 0; i < cdf_.size(); ++i) {
        total += std::pow(static_cast<double>(i + 1), -zipfExponent);
        cdf_[i] = total;
    }
}

VertexId
TargetSampler::draw(Rng &rng) const
{
    if (cdf_.empty())
        return ranked_[rng.uniformInt(ranked_.size())];
    const double z = rng.uniform() * cdf_.back();
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), z) - cdf_.begin());
    return ranked_[std::min(rank, ranked_.size() - 1)];
}

namespace {

/** CPUs the process may run on, read before any thread is pinned. */
const std::vector<int> &
allowedCpus()
{
    static const std::vector<int> cpus = [] {
        std::vector<int> out;
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) == 0) {
            for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
                if (CPU_ISSET(cpu, &set))
                    out.push_back(cpu);
            }
        }
        return out;
    }();
    return cpus;
}

void
setAffinity(std::span<const int> cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int cpu : cpus)
        CPU_SET(cpu, &set);
    pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/** The producer's CPU for the duration of a step. */
class ProducerPin
{
  public:
    ProducerPin() { pinThread(ServingRole::Producer); }
    ProducerPin(const ProducerPin &) = delete;
    ProducerPin &operator=(const ProducerPin &) = delete;
    ~ProducerPin() { setAffinity(allowedCpus()); }
};

double
cpuSeconds(clockid_t clock)
{
    timespec now{};
    clock_gettime(clock, &now);
    return static_cast<double>(now.tv_sec) +
           static_cast<double>(now.tv_nsec) * 1e-9;
}

/** The server's consumer thread; closing the queue ends it. */
class ConsumerThread
{
  public:
    explicit ConsumerThread(serve::InferenceServer &server)
        : server_(server), thread_([this, &server] {
              pinThread(ServingRole::Consumer);
              server.run();
              finalCpuSeconds_ = cpuSeconds(CLOCK_THREAD_CPUTIME_ID);
          })
    {
    }

    ConsumerThread(const ConsumerThread &) = delete;
    ConsumerThread &operator=(const ConsumerThread &) = delete;

    ~ConsumerThread() { stop(); }

    void
    stop()
    {
        server_.queue().close();
        if (thread_.joinable())
            thread_.join();
    }

    /** CPU seconds the running consumer has used so far. */
    double
    cpuSecondsSoFar()
    {
        clockid_t clock;
        pthread_getcpuclockid(thread_.native_handle(), &clock);
        return cpuSeconds(clock);
    }

    /** CPU seconds the consumer used in all; valid after stop(). */
    double finalCpuSeconds() const { return finalCpuSeconds_; }

  private:
    serve::InferenceServer &server_;
    /** Written by the thread as it ends; joining publishes it. */
    double finalCpuSeconds_ = 0.0;
    std::thread thread_;
};

} // namespace

void
pinThread(ServingRole role)
{
    const std::vector<int> &cpus = allowedCpus();
    const auto index = static_cast<std::size_t>(role);
    if (index < cpus.size() && cpus.size() >= 3)
        setAffinity(std::span<const int>(&cpus[index], 1));
}

void
waitUntil(std::uint64_t dueNs)
{
    // Spin through the last 2 ms and sleep only through longer gaps: on
    // a virtualised host a sleeping thread can wake hundreds of
    // microseconds late, which would let the generator, not the server,
    // set the latency tail.
    constexpr std::uint64_t kSpinNs = 2'000'000;
    for (;;) {
        const std::uint64_t now = serve::monotonicNanos();
        if (now >= dueNs)
            return;
        if (dueNs - now > kSpinNs) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(dueNs - now - kSpinNs));
        } else {
            __builtin_ia32_pause();
        }
    }
}

StepResult
runOpenLoop(serve::InferenceServer &server, const TargetSampler &targets,
            const Traffic &traffic)
{
    const double totalSeconds = traffic.warmupSeconds + traffic.seconds;
    const auto capacity =
        static_cast<std::size_t>(traffic.rate * totalSeconds * 1.25) + 1024;
    DenseMatrix replies(capacity, server.outFeatures());
    std::vector<double> latency(capacity, -1.0);
    std::vector<VertexId> vertices(capacity, 0);
    std::vector<double> lagUs;
    std::vector<double> depth;
    lagUs.reserve(capacity);
    depth.reserve(capacity);

    Rng rng(traffic.seed);
    const double meanGapNs = 1e9 / traffic.rate;
    std::size_t next = 0; // request index, also its id
    std::uint64_t accepted = 0;
    const std::uint64_t servedAtStart = server.stats().requestsServed;

    // Poisson arrivals for `seconds`, each pushed at (never before) its
    // due time and stamped with it.
    const auto segment = [&](double seconds, bool measured) {
        std::uint64_t due = serve::monotonicNanos();
        const std::uint64_t end =
            due + static_cast<std::uint64_t>(seconds * 1e9);
        for (;;) {
            due += static_cast<std::uint64_t>(-std::log(1.0 - rng.uniform()) *
                                              meanGapNs);
            if (due >= end || next == capacity)
                return;
            serve::InferenceRequest req;
            req.id = next;
            req.vertex = targets.draw(rng);
            req.enqueueNs = due;
            req.out = replies.row(next);
            req.latencyUs = &latency[next];
            vertices[next] = req.vertex;
            waitUntil(due);
            if (measured) {
                lagUs.push_back(
                    static_cast<double>(serve::monotonicNanos() - due) *
                    1e-3);
            }
            accepted += server.queue().push(req) ? 1 : 0;
            if (measured)
                depth.push_back(static_cast<double>(server.queue().size()));
            ++next;
        }
    };

    StepResult result;
    result.rate = traffic.rate;
    serve::ServeStats before;
    std::size_t firstMeasured = 0;
    double busySeconds = 0.0;
    {
        const ProducerPin pin;
        ConsumerThread consumer(server);
        segment(traffic.warmupSeconds, false);
        // Let the warm-up tail drain so the measured latencies and the
        // stats deltas start from an idle server.
        while (server.stats().requestsServed < servedAtStart + accepted)
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        firstMeasured = next;
        before = server.stats();
        const double cpuAtStart = consumer.cpuSecondsSoFar();
        if (traffic.onStart)
            traffic.onStart();
        Timer timer;
        segment(traffic.seconds, true);
        result.seconds = timer.seconds();
        if (traffic.onStop)
            traffic.onStop();
        consumer.stop(); // drains the queue: every accepted reply lands
        busySeconds = consumer.finalCpuSeconds() - cpuAtStart;
    }
    const serve::ServeStats after = server.stats();

    result.sent = next - firstMeasured;
    result.replies.resize(result.sent, server.outFeatures());
    std::vector<double> served;
    for (std::size_t i = firstMeasured; i < next; ++i) {
        result.ids.push_back(i);
        result.vertices.push_back(vertices[i]);
        result.latencyUs.push_back(latency[i]);
        std::copy_n(replies.row(i), server.outFeatures(),
                    result.replies.row(i - firstMeasured));
        if (latency[i] >= 0.0)
            served.push_back(latency[i]);
    }
    result.ok = served.size();
    result.dropped = result.sent - result.ok;
    result.p50Us = quantile(served, 0.50);
    result.p99Us = quantile(std::move(served), 0.99);
    result.genLagP99Us = quantile(std::move(lagUs), 0.99);
    result.queueDepthP99 = quantile(std::move(depth), 0.99);

    const double requests =
        static_cast<double>(after.requestsServed - before.requestsServed);
    const double batches =
        static_cast<double>(after.batchesServed - before.batchesServed);
    const double hits =
        static_cast<double>(after.cache.hits - before.cache.hits);
    const double misses =
        static_cast<double>(after.cache.misses - before.cache.misses);
    result.batchMean = batches > 0.0 ? requests / batches : 0.0;
    result.cacheHitRate = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
    result.bytesPerRequest =
        requests > 0.0
            ? static_cast<double>(after.bytesGathered - before.bytesGathered) /
                  requests
            : 0.0;
    result.invalidations =
        after.cache.invalidations - before.cache.invalidations;
    result.repliesPerBusySecond =
        busySeconds > 0.0 ? requests / busySeconds : 0.0;
    return result;
}

double
saturatedGoodput(serve::InferenceServer &server, const TargetSampler &targets,
                 double seconds, std::uint64_t seed)
{
    const std::size_t depth = 2 * server.config().maxBatch;
    Rng rng(seed);
    std::uint64_t id = 0;
    const auto feed = [&](double forSeconds) {
        const std::uint64_t end =
            serve::monotonicNanos() +
            static_cast<std::uint64_t>(forSeconds * 1e9);
        while (serve::monotonicNanos() < end) {
            if (server.queue().size() >= depth) {
                __builtin_ia32_pause();
                continue;
            }
            serve::InferenceRequest req;
            req.id = id++;
            req.vertex = targets.draw(rng);
            req.enqueueNs = serve::monotonicNanos();
            server.queue().push(req);
        }
    };
    const ProducerPin pin;
    ConsumerThread consumer(server);
    feed(0.25);
    const std::uint64_t before = server.stats().requestsServed;
    Timer timer;
    feed(seconds);
    const std::uint64_t served = server.stats().requestsServed - before;
    const double elapsed = timer.seconds();
    consumer.stop();
    return static_cast<double>(served) / elapsed;
}

serve::ServeConfig
servingConfig(const CsrGraph &graph)
{
    serve::ServeConfig config;
    config.fanouts = {10, 10};
    config.maxBatch = 64;
    config.latencyBudgetUs = 100;
    config.hotCacheCapacity = 4096;
    config.hotCacheMinDegree =
        serve::churnFreeDegreeThreshold(graph, config.hotCacheCapacity);
    return config;
}

void
reportServing(const StepResult &step, Report &report)
{
    report.metric("serve.p99_us", step.p99Us, "us");
    report.metric("serve.batch_mean", step.batchMean, "count");
    report.metric("serve.queue_depth_p99", step.queueDepthP99, "count");
    report.metric("serve.cache_hit_rate", step.cacheHitRate, "frac");
    report.metric("serve.bytes_per_req", step.bytesPerRequest, "B");
    report.metric("serve.invalidations",
                  static_cast<double>(step.invalidations), "count");
    report.metric("serve.sent", static_cast<double>(step.sent), "count");
    report.metric("serve.ok", static_cast<double>(step.ok), "count");
    report.metric("serve.failed", static_cast<double>(step.dropped),
                  "count");
    report.metric("serve.gen_lag_p99_us", step.genLagP99Us, "us");
}

} // namespace graphite::perf
