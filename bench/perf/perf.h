/**
 * @file
 * Shared plumbing of graphite_perf, the repo benchmark (README.md): run
 * arguments, the report every workload fills, the host ceilings and
 * fingerprint, and the traced run's per-layer table.
 *
 * Every number here is measured from outside the library: the bench
 * times calls into public functions and reads the existing obs
 * counters; nothing under src/ knows the benchmark exists.
 */

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "gnn/gnn_model.h"
#include "obs/trace.h"
#include "tensor/dense_matrix.h"

namespace graphite::perf {

/** Command line of one benchmark process (one workload). */
struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Length of the measured phase, seconds. */
    double seconds = 10.0;
    /** Traced run: report per-layer metrics instead of end-to-end. */
    bool trace = false;
    /** Directory the run's JSON file and chrome trace go to. */
    std::string outDir = ".";
};

/** Host ceilings the *_frac_* metrics divide by (traced runs only). */
struct Ceilings
{
    double streamGbps = 0.0;
    double gemmGflops = 0.0;
    std::uint64_t llcBytes = 0;
    /** Bytes of each of the three triad arrays. */
    std::uint64_t streamArrayBytes = 0;
};

/**
 * STREAM triad a = b + s*c on the global pool (three arrays, each at
 * least 4x the LLC, warm-up passes first; best timed pass) and the
 * best rate of the prepacked GEMM on a cache-resident shape.
 */
Ceilings measureCeilings();

/** CPU model, nproc, pool threads, LLC bytes, build type, bf16-native. */
std::string fingerprintJson();

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** What one run reports. */
struct Report
{
    /** Printed on the result line (end-to-end or per-layer set). */
    std::vector<Metric> metrics;
    /** Written to the run's JSON file only. */
    std::vector<Metric> details;
    std::vector<std::string> failedChecks;
    std::vector<std::string> passedChecks;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Traced runs: the per-layer table (LayerTrace::tableJson). */
    std::string layersJson;

    void
    metric(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    void
    detail(std::string name, double value, std::string unit)
    {
        details.push_back({std::move(name), value, std::move(unit)});
    }

    /** An output check is one attempted operation; failing fails it. */
    void check(const std::string &what, bool ok);

    bool correct() const { return failedChecks.empty(); }
};

/** Nearest-rank quantile (serve::exactPercentile), 0 for no samples. */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** ||a - b||_F / ||b||_F over the logical elements. */
double relFrobenius(const DenseMatrix &a, const DenseMatrix &b);

/** Process peak resident set so far (getrusage), MB. */
double peakRssMb();

/**
 * Set the workload up with @p setUp(seconds) — once for a traced run,
 * else at least three times and for at least two seconds in all (at most
 * ten times), so the median of @p seconds (setup_s) is steady — and
 * keep the last state. Each set-up replaces the previous one.
 */
template <typename SetUp>
auto
repeatSetUp(bool once, std::vector<double> &seconds, SetUp &&setUp)
{
    decltype(setUp(std::declval<double &>())) state;
    double total = 0.0;
    do {
        state.reset();
        double elapsed = 0.0;
        state = setUp(elapsed);
        seconds.push_back(elapsed);
        total += elapsed;
    } while (!once && (seconds.size() < 3 ||
                       (total < 2.0 && seconds.size() < 10)));
    return state;
}

/** Bytes and flops the library's obs counters recorded. */
struct Work
{
    /** agg.bytes_gathered + fused.bytes_gathered. */
    std::uint64_t kernelBytes = 0;
    /** serve.bytes_gathered (the serving path's own gathers). */
    std::uint64_t serveBytes = 0;
    /** agg.flops + fused.flops + gemm.flops. */
    std::uint64_t flops = 0;

    std::uint64_t bytes() const { return kernelBytes + serveBytes; }

    Work
    operator-(const Work &earlier) const
    {
        return {kernelBytes - earlier.kernelBytes,
                serveBytes - earlier.serveBytes, flops - earlier.flops};
    }

    Work &
    operator+=(const Work &more)
    {
        kernelBytes += more.kernelBytes;
        serveBytes += more.serveBytes;
        flops += more.flops;
        return *this;
    }
};

/** One timed call into a layer. */
struct PhaseStats
{
    double seconds = 0.0;
    Work work;
};

/**
 * The traced run's per-layer table. Constructing it enables the trace
 * recorder and the metrics registry; run() wraps one public call in an
 * obs span and snapshots the gather-byte and flop counters around it.
 * Phases nest: a phase's self time is its time minus its child phases'.
 */
class LayerTrace
{
  public:
    LayerTrace();

    template <typename Fn>
    PhaseStats
    run(const char *name, Fn &&fn)
    {
        open();
        const Work before = counted();
        Timer timer;
        {
            obs::TraceSpan span(name);
            fn();
        }
        PhaseStats stats;
        stats.seconds = timer.seconds();
        stats.work = counted() - before;
        close(name, stats);
        return stats;
    }

    /** Counter totals right now (the registry is enabled). */
    static Work counted();

    /** Turn the trace recorder and the metrics registry on or off. */
    static void setRecording(bool on);

    /** The table as JSON, or printed; rates against @p ceilings. @{ */
    std::string tableJson(const Ceilings &ceilings) const;
    void print(const Ceilings &ceilings) const;
    /** @} */

  private:
    struct Row
    {
        std::string name;
        std::uint64_t calls = 0;
        double seconds = 0.0;
        double childSeconds = 0.0;
        Work work;
    };

    void open() { childSeconds_.push_back(0.0); }
    void close(const char *name, const PhaseStats &stats);

    std::vector<Row> rows_;
    std::vector<double> childSeconds_;
};

/**
 * The two-layer model and inputs the layer sweep probes, borrowed from
 * the workload.
 */
struct SweepInputs
{
    const CsrGraph *graph = nullptr;
    const DenseMatrix *features = nullptr;
    GnnModel *model = nullptr;
    TechniqueConfig tech;
    /** Zipf exponent of the sampling/serving probe stream. */
    double zipf = 0.0;
    std::uint64_t seed = 1;
    /** GraphBuilder::build seconds of the workload's set-up. */
    double buildSeconds = 0.0;
    /**
     * The workload trains: it reports the gnn.*_share metrics from its
     * own epochs, and the sweep puts the simulator's layer-1
     * aggregation next to the measured one. Otherwise the sweep reports
     * the shares for inference, as the bench-driven layer forwards
     * against GnnModel::inference.
     */
    bool trains = false;
    /**
     * The workload serves: it reports the serve.* step metrics from its
     * own run. Otherwise the sweep serves a short uniform segment.
     */
    bool serves = false;
};

/**
 * Time public calls of every layer on the workload's own inputs and
 * report the per-layer metrics the workload's main operation does not
 * (README.md lists which come from where).
 */
void sweepLayers(const SweepInputs &in, const Ceilings &ceilings,
                 LayerTrace &trace, Report &report);

/** The four workloads (train.cpp, infer.cpp, serve.cpp). @{ */
void runTrain(const RunArgs &args, const Ceilings &ceilings, Report &report);
void runInfer(const RunArgs &args, const Ceilings &ceilings, Report &report);
void runServeZipf(const RunArgs &args, const Ceilings &ceilings,
                  Report &report);
void runServeChurn(const RunArgs &args, const Ceilings &ceilings,
                   Report &report);
/** @} */

} // namespace graphite::perf
