/**
 * @file
 * The two serving workloads, over one R-MAT scale-16 graph (average
 * degree 16, width 256) and a two-layer SAGE-mean model served with
 * fan-outs {10, 10}, batches of 64 and a 100 us budget, behind a
 * 4,096-row hot cache (open_loop.cpp's servingConfig).
 *
 * serve-zipf: open-loop Poisson arrivals with Zipf 0.9 popularity over
 * degree rank — hub-heavy traffic, where the sampler scans every
 * neighbour of a hub and the hot cache replaces hub gathers. One step
 * at the 5,000 req/s reference rate.
 *
 * serve-churn: the same server through a DeltaCsr overlay, uniform
 * traffic at the reference rate, and one writer thread offering one edge
 * insert per read request (5,000 per second) through insertEdge, asking
 * for a compaction every 8,192 accepted inserts — writes beside reads:
 * invalidation, overlay gathers and compaction stalls. Uniform targets
 * rarely seed on a hub, so sampler and hot-cache gains should show
 * little here.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>

#include "graph/delta_csr.h"
#include "graph/generators.h"
#include "open_loop.h"
#include "perf.h"

namespace graphite::perf {

namespace {

constexpr unsigned kScale = 16;
constexpr std::size_t kWidth = 256;
constexpr std::size_t kClasses = 16;
constexpr double kReferenceRate = 5000.0;
/**
 * serve-churn's edge inserts offered per read request. 1:1 is the mix
 * the repo's own churn benchmark offers and sustains (bench/churn_load's
 * defaults and scripts/churn_smoke.sh offer equal insert and request
 * rates; it sustains about 15k inserts/s beside 14.6k req/s). No public
 * source gives a read:write ratio for GNN serving, so the ratio is an
 * assumption carried over from there.
 */
constexpr double kInsertsPerRequest = 1.0;
constexpr EdgeId kCompactEvery = 8192;
/** Overlay budget: compaction every 8,192 inserts never nears it. */
constexpr EdgeId kDeltaBudget = EdgeId{1} << 20;

struct Served
{
    CsrGraph graph;
    std::unique_ptr<GnnModel> model;
    /** serve-churn only: the overlay the server serves. */
    std::unique_ptr<DeltaCsr> overlay;
    std::unique_ptr<serve::InferenceServer> server;
    double buildSeconds = 0.0;
    /** Steps repeated because the generator fell behind (serveStep). */
    int invalidSteps = 0;

    std::vector<GnnLayer *>
    layers()
    {
        return {&model->layer(0), &model->layer(1)};
    }

    /**
     * Replace the server with a fresh, warmed-up one (a server serves
     * one open-loop step), over a fresh overlay of the graph for churn.
     */
    void
    openServer(const DenseMatrix &features, bool churn)
    {
        server.reset();
        overlay.reset();
        if (churn) {
            overlay = std::make_unique<DeltaCsr>(CsrGraph(graph),
                                                 kDeltaBudget);
            server = std::make_unique<serve::InferenceServer>(
                *overlay, features, layers(), servingConfig(graph));
        } else {
            server = std::make_unique<serve::InferenceServer>(
                graph, features, layers(), servingConfig(graph));
        }
        server->warmup();
    }
};

std::unique_ptr<Served>
setUp(const GraphBuilder &edges, const DenseMatrix &features, bool churn,
      std::uint64_t seed, double &seconds)
{
    GraphBuilder pending = edges; // input replay, not set-up work
    auto state = std::make_unique<Served>();
    Timer timer;
    state->graph = pending.build();
    state->buildSeconds = timer.seconds();
    GnnModelConfig config;
    config.kind = GnnKind::Sage;
    config.featureWidths = {kWidth, kWidth, kClasses};
    config.seed = seed;
    state->model = std::make_unique<GnnModel>(state->graph, config);
    state->openServer(features, churn);
    seconds = timer.seconds();
    return state;
}

/** What serve-churn's edge writer did during one measured segment. */
struct Inserts
{
    std::uint64_t attempted = 0;
    std::uint64_t accepted = 0;
    /** Refused for a full delta pool (duplicates are not failures). */
    std::uint64_t refused = 0;
    /** Time spent inside insertEdge, compaction stalls included. */
    double busySeconds = 0.0;
};

/**
 * serve-churn's edge writer: uniformly random edges offered to
 * insertEdge at kInsertsPerRequest times the request rate (catching up
 * after a stall, like the request generator), with a compaction request
 * every 8,192 accepted inserts. A writer calling back to back instead
 * grows the graph several-fold within one run, so serving would never
 * be measured in a steady state; at the paced rate the graph grows
 * about 5% per 10 s, and the write path's capacity is read from the
 * time spent inside insertEdge.
 */
class Inserter
{
  public:
    Inserter(serve::InferenceServer &server, std::uint64_t seed)
        : server_(server), seed_(seed)
    {
    }

    Inserter(const Inserter &) = delete;
    Inserter &operator=(const Inserter &) = delete;

    ~Inserter() { stop(); }

    void start() { thread_ = std::thread([this] { loop(); }); }

    void
    stop()
    {
        stop_.store(true, std::memory_order_relaxed);
        if (thread_.joinable())
            thread_.join();
    }

    /** Valid after stop(). */
    const Inserts &counts() const { return counts_; }

  private:
    void
    loop()
    {
        pinThread(ServingRole::Writer);
        Rng rng(seed_);
        const VertexId n = server_.graph().numVertices();
        const auto gapNs = static_cast<std::uint64_t>(
            1e9 / (kInsertsPerRequest * kReferenceRate));
        std::uint64_t busyNs = 0;
        for (std::uint64_t due = serve::monotonicNanos() + gapNs;
             !stop_.load(std::memory_order_relaxed); due += gapNs) {
            waitUntil(due);
            const auto src = static_cast<VertexId>(rng.uniformInt(n));
            // Uniform over the other n - 1 vertices: never a self-loop.
            auto dst = static_cast<VertexId>(rng.uniformInt(n - 1));
            dst += dst >= src ? 1 : 0;
            ++counts_.attempted;
            const std::uint64_t begin = serve::monotonicNanos();
            const DeltaCsr::AddEdge result = server_.insertEdge(src, dst);
            busyNs += serve::monotonicNanos() - begin;
            if (result == DeltaCsr::AddEdge::Added &&
                ++counts_.accepted % kCompactEvery == 0)
                server_.requestCompaction();
            if (result == DeltaCsr::AddEdge::PoolFull) {
                ++counts_.refused;
                server_.requestCompaction();
            }
        }
        counts_.busySeconds = static_cast<double>(busyNs) * 1e-9;
    }

    serve::InferenceServer &server_;
    std::uint64_t seed_;
    std::atomic<bool> stop_{false};
    Inserts counts_;
    std::thread thread_;
};

/**
 * A step whose generator ran this late (p99 of push time minus due
 * time) measured a stalled host rather than the server: the producer
 * alone keeps it within a few microseconds. Such a step is run again on
 * a fresh server, at most kMaxRetries times.
 */
constexpr double kMaxLagUs = 100.0;
constexpr int kMaxRetries = 2;

/**
 * One open-loop step on the state's current server; for serve-churn the
 * edge writer runs exactly during the measured segment.
 */
StepResult
serveStep(Served &state, const DenseMatrix &features,
          const TargetSampler &targets, Traffic traffic, bool churn,
          Inserts &inserts)
{
    for (int attempt = 0;; ++attempt) {
        if (attempt > 0)
            state.openServer(features, churn);
        Inserter inserter(*state.server,
                          traffic.seed ^ 0x9e3779b97f4a7c15ull);
        if (churn) {
            traffic.onStart = [&] { inserter.start(); };
            traffic.onStop = [&] { inserter.stop(); };
        }
        StepResult step = runOpenLoop(*state.server, targets, traffic);
        inserts = inserter.counts();
        if (step.genLagP99Us <= kMaxLagUs || attempt == kMaxRetries)
            return step;
        ++state.invalidSteps;
        std::printf("step at %.0f req/s invalid: generator lag p99 %.1f us; "
                    "repeating it\n",
                    step.rate, step.genLagP99Us);
    }
}

void
printStep(const char *label, const StepResult &step)
{
    std::printf("%-10s %7.0f req/s: sent %6llu dropped %4llu  p50 %8.1f us "
                "p99 %8.1f us  lag p99 %6.1f us  depth p99 %5.0f  batch "
                "%5.1f  hit %5.3f  %7.0f replies per busy s\n",
                label, step.rate, static_cast<unsigned long long>(step.sent),
                static_cast<unsigned long long>(step.dropped), step.p50Us,
                step.p99Us, step.genLagP99Us, step.queueDepthP99,
                step.batchMean, step.cacheHitRate, step.repliesPerBusySecond);
}

/** Bitwise: sampled replies equal the hub-exact replay of their ids. */
bool
repliesMatchReplay(serve::InferenceServer &server, const StepResult &step,
                   std::size_t samples, std::uint64_t seed)
{
    std::vector<Feature> replay(server.outFeatures());
    Rng rng(seed);
    std::size_t checked = 0;
    for (std::size_t tries = 0; checked < samples && tries < 16 * samples;
         ++tries) {
        const std::size_t i = rng.uniformInt(step.sent);
        if (step.latencyUs[i] < 0.0)
            continue; // dropped: nothing was served
        server.serveOneHubExact(step.ids[i], step.vertices[i], replay.data());
        if (std::memcmp(replay.data(), step.replies.row(i),
                        replay.size() * sizeof(Feature)) != 0)
            return false;
        ++checked;
    }
    return checked == samples;
}

/**
 * Mean relative L2 gap between replies served under churn and their
 * hub-exact replay on a fresh server over the final compacted graph.
 */
double
staleness(Served &state, const DenseMatrix &features,
          const StepResult &step, std::size_t samples)
{
    const CsrGraph compacted = state.overlay->compacted();
    serve::ServeConfig config = servingConfig(compacted);
    config.hotCacheCapacity = 0;
    // Mirror the churn server's admission so hub-exact gating agrees.
    config.hotCacheMinDegree = state.server->hotDegreeThreshold();
    serve::InferenceServer oracle(compacted, features, state.layers(),
                                  config);
    std::vector<Feature> fresh(oracle.outFeatures());
    double total = 0.0;
    std::size_t count = 0;
    const std::size_t stride = std::max<std::size_t>(1, step.sent / samples);
    for (std::size_t i = 0; i < step.sent && count < samples; i += stride) {
        if (step.latencyUs[i] < 0.0)
            continue;
        oracle.serveOneHubExact(step.ids[i], step.vertices[i], fresh.data());
        double gap = 0.0;
        double norm = 0.0;
        for (std::size_t c = 0; c < fresh.size(); ++c) {
            const double d = static_cast<double>(step.replies.at(i, c)) -
                             static_cast<double>(fresh[c]);
            gap += d * d;
            norm += static_cast<double>(fresh[c]) * fresh[c];
        }
        total += norm > 0.0 ? std::sqrt(gap / norm) : std::sqrt(gap);
        ++count;
    }
    return count > 0 ? total / static_cast<double>(count) : 0.0;
}

/** Bitwise: after compaction, the overlay server equals a frozen one. */
bool
compactedMatchesFrozen(Served &state, const DenseMatrix &features,
                       std::size_t samples, std::uint64_t seed)
{
    state.server->compactNow();
    if (state.overlay->deltaEdges() != 0)
        return false;
    serve::InferenceServer frozen(state.overlay->base(), features,
                                  state.layers(),
                                  servingConfig(state.overlay->base()));
    std::vector<Feature> a(frozen.outFeatures());
    std::vector<Feature> b(frozen.outFeatures());
    Rng rng(seed);
    for (std::size_t s = 0; s < samples; ++s) {
        const auto v = static_cast<VertexId>(
            rng.uniformInt(state.overlay->numVertices()));
        state.server->serveOne(s, v, a.data());
        frozen.serveOne(s, v, b.data());
        if (std::memcmp(a.data(), b.data(), a.size() * sizeof(Feature)) != 0)
            return false;
    }
    return true;
}

void
runServing(const RunArgs &args, const Ceilings &ceilings, Report &report,
           bool churn)
{
    Timer inputTimer;
    RmatParams rmat;
    rmat.scale = kScale;
    rmat.avgDegree = 16.0;
    rmat.seed = args.seed;
    GraphBuilder edges(VertexId{1} << kScale);
    appendRmatEdges(edges, rmat);
    DenseMatrix features(VertexId{1} << kScale, kWidth);
    features.fillUniform(-1.0f, 1.0f, args.seed + 1);
    std::printf("inputs: R-MAT scale %u, %llu edge entries, generated in "
                "%.2f s\n",
                kScale,
                static_cast<unsigned long long>(edges.numPendingEdges()),
                inputTimer.seconds());

    std::vector<double> setupSeconds;
    auto state = repeatSetUp(args.trace, setupSeconds, [&](double &seconds) {
        return setUp(edges, features, churn, args.seed, seconds);
    });
    std::printf("graph: %u vertices, %llu edges, hot-cache threshold "
                "degree %llu; set-up %.3f s (median of %zu)\n",
                state->graph.numVertices(),
                static_cast<unsigned long long>(state->graph.numEdges()),
                static_cast<unsigned long long>(
                    state->server->hotDegreeThreshold()),
                median(setupSeconds), setupSeconds.size());

    const double zipf = churn ? 0.0 : 0.9;
    const TargetSampler targets(state->graph, zipf);
    Traffic traffic;
    traffic.rate = kReferenceRate;
    traffic.warmupSeconds = 1.0;
    traffic.seed = args.seed;
    Inserts inserts;
    StepResult reference;
    std::unique_ptr<LayerTrace> trace;
    if (args.trace) {
        // An untraced then a traced reference step, each on a fresh
        // server: the p50 difference is the tracing overhead.
        traffic.seconds = args.seconds / 4.0;
        const StepResult untraced =
            serveStep(*state, features, targets, traffic, churn, inserts);
        state->openServer(features, churn);
        trace = std::make_unique<LayerTrace>();
        const PhaseStats phase = trace->run("serve.reference", [&] {
            reference =
                serveStep(*state, features, targets, traffic, churn, inserts);
        });
        printStep("untraced", untraced);
        printStep("traced", reference);
        report.metric("trace.overhead_frac",
                      reference.p50Us / untraced.p50Us - 1.0, "frac");
        // Serving gathers through its own loop, not the kernels.
        report.metric("kernels.bytes_gathered",
                      static_cast<double>(phase.work.kernelBytes), "B");
        report.metric("tensor.flops", static_cast<double>(phase.work.flops),
                      "count");
        report.metric("graph.delta_edges",
                      static_cast<double>(inserts.accepted), "count");
        reportServing(reference, report);
    } else {
        traffic.seconds = args.seconds;
        reference =
            serveStep(*state, features, targets, traffic, churn, inserts);
        const double rss = peakRssMb();
        printStep("reference", reference);
        report.metric("setup_s", median(setupSeconds), "s");
        report.metric("peak_rss_mb", rss, "MB");
        report.metric("p50_ms", reference.p50Us * 1e-3, "ms");
        report.detail("reference_p99_us", reference.p99Us, "us");
        report.detail("reference_gen_lag_p99_us", reference.genLagP99Us,
                      "us");
    }
    report.attempted += reference.sent + inserts.attempted;
    report.failed += reference.dropped + inserts.refused;
    report.detail("invalid_steps", state->invalidSteps, "count");

    if (churn) {
        std::printf("inserts: %llu accepted of %llu, %.3f s inside "
                    "insertEdge, %llu compactions\n",
                    static_cast<unsigned long long>(inserts.accepted),
                    static_cast<unsigned long long>(inserts.attempted),
                    inserts.busySeconds,
                    static_cast<unsigned long long>(
                        state->server->stats().compactions));
        if (!args.trace) {
            report.metric("capacity_per_s",
                          static_cast<double>(inserts.accepted) /
                              inserts.busySeconds,
                          "1/s");
        }
        const double stale = staleness(*state, features, reference, 512);
        report.detail("staleness_rel_l2", stale, "frac");
        report.check("serve-churn: staleness rel L2 <= 1.0", stale <= 1.0);
        report.check("serve-churn: compacted overlay == frozen, 64 bitwise",
                     compactedMatchesFrozen(*state, features, 64,
                                            args.seed + 7));
    } else {
        report.check("serve-zipf: 256 replies == hub-exact replay, bitwise",
                     repliesMatchReplay(*state->server, reference, 256,
                                        args.seed + 7));
        if (!args.trace) {
            // Replies per consumer-busy second: goodput at the reference
            // load only reads the offered rate, and saturation goodput
            // spread too widely between runs to carry a bound (README.md).
            report.metric("capacity_per_s", reference.repliesPerBusySecond,
                          "1/s");
            report.detail("reference_goodput_per_s",
                          static_cast<double>(reference.ok) /
                              reference.seconds,
                          "1/s");
        }
    }

    if (trace) {
        SweepInputs in;
        in.graph = &state->graph;
        in.features = &features;
        in.model = state->model.get();
        in.tech = TechniqueConfig::basic();
        in.zipf = zipf;
        in.seed = args.seed;
        in.buildSeconds = state->buildSeconds;
        in.serves = true;
        sweepLayers(in, ceilings, *trace, report);
        trace->print(ceilings);
        report.layersJson = trace->tableJson(ceilings);
    }
}

} // namespace

void
runServeZipf(const RunArgs &args, const Ceilings &ceilings, Report &report)
{
    runServing(args, ceilings, report, false);
}

void
runServeChurn(const RunArgs &args, const Ceilings &ceilings, Report &report)
{
    runServing(args, ceilings, report, true);
}

} // namespace graphite::perf
