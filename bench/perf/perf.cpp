#include "perf.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>

#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "serve/load_gen.h"
#include "tensor/gemm.h"

namespace graphite::perf {

void
Report::check(const std::string &what, bool ok)
{
    ++attempted;
    if (ok) {
        passedChecks.push_back(what);
    } else {
        ++failed;
        failedChecks.push_back(what);
    }
    std::printf("check %-44s %s\n", what.c_str(), ok ? "ok" : "FAILED");
}

double
quantile(std::vector<double> values, double q)
{
    return serve::exactPercentile(values, q);
}

double
relFrobenius(const DenseMatrix &a, const DenseMatrix &b)
{
    double diff = 0.0;
    double norm = 0.0;
    for (std::size_t r = 0; r < b.rows(); ++r) {
        for (std::size_t c = 0; c < b.cols(); ++c) {
            const double x = a.at(r, c);
            const double y = b.at(r, c);
            diff += (x - y) * (x - y);
            norm += y * y;
        }
    }
    return norm > 0.0 ? std::sqrt(diff / norm) : std::sqrt(diff);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

namespace {

std::uint64_t
llcBytes()
{
    const long bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
    return bytes > 0 ? static_cast<std::uint64_t>(bytes) : 0;
}

double
streamTriadGbps(std::size_t n)
{
    // Uninitialised on purpose: the pool's first touch places the pages.
    std::unique_ptr<double[]> a(new double[n]);
    std::unique_ptr<double[]> b(new double[n]);
    std::unique_ptr<double[]> c(new double[n]);
    constexpr std::size_t kChunk = std::size_t{1} << 20;
    parallelFor(0, n, kChunk, [&](std::size_t lo, std::size_t hi,
                                  std::size_t) {
        for (std::size_t i = lo; i < hi; ++i) {
            a[i] = 0.0;
            b[i] = 1.0;
            c[i] = 2.0;
        }
    });
    constexpr double kScalar = 3.0;
    const auto triad = [&] {
        parallelFor(0, n, kChunk, [&](std::size_t lo, std::size_t hi,
                                      std::size_t) {
            double *__restrict out = a.get();
            const double *__restrict x = b.get();
            const double *__restrict y = c.get();
#pragma omp simd
            for (std::size_t i = lo; i < hi; ++i)
                out[i] = x[i] + kScalar * y[i];
        });
    };
    // The first passes over fresh pages run at a fraction of the
    // sustained rate, so warm up before taking the best timed pass.
    for (int pass = 0; pass < 3; ++pass)
        triad();
    double best = 0.0;
    for (int pass = 0; pass < 5; ++pass) {
        Timer timer;
        triad();
        best = std::max(best, 3.0 * static_cast<double>(n * sizeof(double)) /
                                  timer.seconds() * 1e-9);
    }
    if (a[n / 2] != 1.0 + kScalar * 2.0)
        std::fprintf(stderr, "stream triad produced a wrong value\n");
    return best;
}

double
gemmPeakGflops()
{
    // 2048x256 . 256x256: A, B and C together stay within the per-core
    // L2 slices of the pool, so the micro-kernel, not memory, sets the
    // rate.
    constexpr std::size_t kM = 2048;
    constexpr std::size_t kK = 256;
    constexpr std::size_t kN = 256;
    DenseMatrix a(kM, kK);
    DenseMatrix b(kK, kN);
    DenseMatrix c(kM, kN);
    a.fillUniform(-1.0f, 1.0f, 1);
    b.fillUniform(-1.0f, 1.0f, 2);
    const GemmPlan plan(GemmMode::NN, b);
    for (int rep = 0; rep < 10; ++rep)
        gemm(GemmMode::NN, a, plan, c);
    double best = 0.0;
    for (int rep = 0; rep < 100; ++rep) {
        Timer timer;
        gemm(GemmMode::NN, a, plan, c);
        best = std::max(best, 2.0 * kM * kK * kN / timer.seconds() * 1e-9);
    }
    return best;
}

std::string
cpuModel()
{
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos && colon + 2 <= line.size())
                return line.substr(colon + 2);
        }
    }
    return "unknown";
}

} // namespace

Ceilings
measureCeilings()
{
    Ceilings ceilings;
    ceilings.llcBytes = llcBytes();
    const std::uint64_t arrayBytes =
        std::max<std::uint64_t>(4 * ceilings.llcBytes, std::uint64_t{1}
                                                           << 28);
    const std::size_t n = arrayBytes / sizeof(double);
    ceilings.streamArrayBytes = n * sizeof(double);
    ceilings.streamGbps = streamTriadGbps(n);
    ceilings.gemmGflops = gemmPeakGflops();
    std::printf("ceilings: stream triad %.2f GB/s (3 x %.0f MiB arrays, "
                "LLC %.0f MiB), gemm %.1f GFLOP/s\n",
                ceilings.streamGbps,
                static_cast<double>(ceilings.streamArrayBytes) / 1048576.0,
                static_cast<double>(ceilings.llcBytes) / 1048576.0,
                ceilings.gemmGflops);
    return ceilings;
}

std::string
fingerprintJson()
{
    std::string cpu = cpuModel();
    std::replace(cpu.begin(), cpu.end(), '"', '\'');
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"cpu\": \"%s\", \"nproc\": %ld, \"pool_threads\": %zu, "
                  "\"llc_bytes\": %llu, \"build_type\": \"%s\", "
                  "\"bf16_native\": %s}",
                  cpu.c_str(), sysconf(_SC_NPROCESSORS_ONLN),
                  ThreadPool::global().numThreads(),
                  static_cast<unsigned long long>(llcBytes()),
                  GRAPHITE_PERF_BUILD_TYPE,
                  bf16GemmIsNative() ? "true" : "false");
    return buf;
}

LayerTrace::LayerTrace()
{
    setRecording(true);
}

void
LayerTrace::setRecording(bool on)
{
    obs::TraceRecorder::global().setEnabled(on);
    obs::MetricsRegistry::global().setEnabled(on);
}

Work
LayerTrace::counted()
{
    obs::MetricsRegistry &metrics = obs::MetricsRegistry::global();
    Work work;
    for (const char *name : {"agg.bytes_gathered", "fused.bytes_gathered"})
        work.kernelBytes += metrics.counter(name).value();
    work.serveBytes = metrics.counter("serve.bytes_gathered").value();
    for (const char *name : {"agg.flops", "fused.flops", "gemm.flops"})
        work.flops += metrics.counter(name).value();
    return work;
}

void
LayerTrace::close(const char *name, const PhaseStats &stats)
{
    const double children = childSeconds_.back();
    childSeconds_.pop_back();
    if (!childSeconds_.empty())
        childSeconds_.back() += stats.seconds;
    auto row = std::find_if(rows_.begin(), rows_.end(),
                            [&](const Row &r) { return r.name == name; });
    if (row == rows_.end()) {
        rows_.emplace_back();
        rows_.back().name = name;
        row = rows_.end() - 1;
    }
    ++row->calls;
    row->seconds += stats.seconds;
    row->childSeconds += children;
    row->work += stats.work;
}

namespace {

/** Rates of one table row against the ceilings. */
struct RowRates
{
    double gbps;
    double gflops;
    double pctStream;
    double pctGemm;
};

RowRates
rowRates(double seconds, const Work &work, const Ceilings &ceilings)
{
    RowRates r{};
    if (seconds > 0.0) {
        r.gbps = static_cast<double>(work.bytes()) / seconds * 1e-9;
        r.gflops = static_cast<double>(work.flops) / seconds * 1e-9;
    }
    if (ceilings.streamGbps > 0.0)
        r.pctStream = 100.0 * r.gbps / ceilings.streamGbps;
    if (ceilings.gemmGflops > 0.0)
        r.pctGemm = 100.0 * r.gflops / ceilings.gemmGflops;
    return r;
}

} // namespace

std::string
LayerTrace::tableJson(const Ceilings &ceilings) const
{
    std::string json = "[";
    char buf[512];
    for (std::size_t i = 0; i < rows_.size(); ++i) {
        const Row &row = rows_[i];
        const RowRates r = rowRates(row.seconds, row.work, ceilings);
        std::snprintf(
            buf, sizeof(buf),
            "%s\n    {\"phase\": \"%s\", \"calls\": %llu, \"seconds\": %.6f, "
            "\"self_seconds\": %.6f, \"bytes_computed\": %llu, "
            "\"flops\": %llu, \"gbps\": %.3f, \"gflops\": %.3f, "
            "\"pct_stream\": %.2f, \"pct_gemm_peak\": %.2f}",
            i == 0 ? "" : ",", row.name.c_str(),
            static_cast<unsigned long long>(row.calls), row.seconds,
            row.seconds - row.childSeconds,
            static_cast<unsigned long long>(row.work.bytes()),
            static_cast<unsigned long long>(row.work.flops), r.gbps,
            r.gflops, r.pctStream, r.pctGemm);
        json += buf;
    }
    return json + "\n  ]";
}

void
LayerTrace::print(const Ceilings &ceilings) const
{
    std::printf("\n%-28s %6s %10s %10s %10s %8s %8s %7s %7s\n", "phase",
                "calls", "total s", "self s", "MB", "GB/s", "GFLOP/s",
                "%strm", "%gemm");
    for (const Row &row : rows_) {
        const RowRates r = rowRates(row.seconds, row.work, ceilings);
        std::printf("%-28s %6llu %10.4f %10.4f %10.1f %8.2f %8.2f %7.1f "
                    "%7.1f\n",
                    row.name.c_str(),
                    static_cast<unsigned long long>(row.calls), row.seconds,
                    row.seconds - row.childSeconds,
                    static_cast<double>(row.work.bytes()) / 1e6, r.gbps,
                    r.gflops, r.pctStream, r.pctGemm);
    }
    std::printf("(bytes are computed from the obs gather counters, not "
                "measured DRAM traffic)\n\n");
}

} // namespace graphite::perf
