/**
 * @file
 * graphite_perf: runs one workload of the repo benchmark (README.md) in
 * this process, writes the run's JSON file (and, traced, its chrome
 * trace) to --out-dir, and prints as its last stdout line
 * {"correct", "attempted", "failed", "metrics"} — the end-to-end
 * metrics, or with --trace 1 the per-layer ones. Exits non-zero when an
 * output check fails.
 */

#include <cstdio>
#include <string>

#include "common/logging.h"
#include "common/options.h"
#include "perf.h"

using namespace graphite;
using namespace graphite::perf;

namespace {

struct Workload
{
    const char *name;
    void (*run)(const RunArgs &, const Ceilings &, Report &);
};

constexpr Workload kWorkloads[] = {
    {"train-products-gcn", runTrain},
    {"infer-papers-sage", runInfer},
    {"serve-zipf", runServeZipf},
    {"serve-churn", runServeChurn},
};

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string json = "{";
    char buf[256];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", metrics[i].name.c_str(),
                      metrics[i].value, metrics[i].unit.c_str());
        json += buf;
    }
    return json + "}";
}

std::string
namesJson(const std::vector<std::string> &names)
{
    std::string json = "[";
    for (std::size_t i = 0; i < names.size(); ++i)
        json += (i == 0 ? "\"" : ", \"") + names[i] + "\"";
    return json + "]";
}

} // namespace

int
main(int argc, char **argv)
{
    Options options("graphite_perf: one workload of the repo benchmark "
                    "(bench/perf/README.md)");
    options.add("workload", "",
                "train-products-gcn | infer-papers-sage | serve-zipf | "
                "serve-churn");
    options.add("seed", "1", "seed the workload's inputs are made from");
    options.add("seconds", "10", "length of the measured phase");
    options.add("trace", "0", "1 = traced run reporting per-layer metrics");
    options.add("out-dir", ".", "directory for the run's JSON and trace");
    options.parse(argc, argv);

    RunArgs args;
    args.workload = options.getString("workload");
    args.seed = static_cast<std::uint64_t>(options.getInt("seed"));
    args.seconds = options.getDouble("seconds");
    args.trace = options.getInt("trace") != 0;
    args.outDir = options.getString("out-dir");
    const Workload *workload = nullptr;
    for (const Workload &w : kWorkloads) {
        if (args.workload == w.name)
            workload = &w;
    }
    if (workload == nullptr)
        fatal("unknown --workload '%s'", args.workload.c_str());
    if (args.seconds <= 0.0)
        fatal("--seconds must be positive");

    const std::string fingerprint = fingerprintJson();
    std::printf("graphite_perf %s seed %llu seconds %g trace %d\n"
                "fingerprint %s\n",
                workload->name, static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace ? 1 : 0, fingerprint.c_str());
    const Ceilings ceilings = args.trace ? measureCeilings() : Ceilings{};
    Report report;
    workload->run(args, ceilings, report);

    const std::string stem = args.outDir + "/" + workload->name + "-seed" +
                             std::to_string(args.seed) +
                             (args.trace ? "-trace" : "");
    if (args.trace &&
        !obs::TraceRecorder::global().writeChromeJson(stem + ".chrome.json"))
        fatal("cannot write %s.chrome.json", stem.c_str());
    const std::string metrics = metricsJson(report.metrics);
    std::FILE *file = std::fopen((stem + ".json").c_str(), "w");
    if (file == nullptr)
        fatal("cannot write %s.json", stem.c_str());
    std::fprintf(file,
                 "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n"
                 "  \"seconds\": %g,\n  \"trace\": %d,\n"
                 "  \"fingerprint\": %s,\n  \"correct\": %s,\n"
                 "  \"attempted\": %llu,\n  \"failed\": %llu,\n"
                 "  \"metrics\": %s,\n  \"details\": %s,\n"
                 "  \"checks_passed\": %s,\n  \"checks_failed\": %s,\n"
                 "  \"layers\": %s\n}\n",
                 workload->name, static_cast<unsigned long long>(args.seed),
                 args.seconds, args.trace ? 1 : 0, fingerprint.c_str(),
                 report.correct() ? "true" : "false",
                 static_cast<unsigned long long>(report.attempted),
                 static_cast<unsigned long long>(report.failed),
                 metrics.c_str(), metricsJson(report.details).c_str(),
                 namesJson(report.passedChecks).c_str(),
                 namesJson(report.failedChecks).c_str(),
                 report.layersJson.empty() ? "[]"
                                           : report.layersJson.c_str());
    std::fclose(file);

    for (const Metric &m : report.metrics)
        std::printf("%-32s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("wrote %s.json\n", stem.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                report.correct() ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed),
                metrics.c_str());
    return report.correct() ? 0 : 1;
}
