/**
 * @file
 * infer-papers-sage: full-batch SAGE inference on a papers-like
 * clustered R-MAT at scale 20 (1,048,576 vertices, the generator
 * parameters of makeDataset(Papers) built directly), widths 256-256-16,
 * TechniqueConfig::withFusion() in fp32. The 1 GiB feature table is
 * several times the LLC: the paper's DRAM-bound regime. Forward only,
 * with no compression, locality or backward, so gains in those paths
 * must show no change here.
 */

#include <algorithm>
#include <cstdio>
#include <memory>

#include "graph/datasets.h"
#include "graph/generators.h"
#include "perf.h"

namespace graphite::perf {

namespace {

constexpr unsigned kScale = 20;
constexpr std::size_t kWidth = 256;
constexpr std::size_t kClasses = 16;
constexpr int kMinPasses = 3;

/** The papers analogue's edges at scale 20 (makeDataset's recipe). */
GraphBuilder
papersEdges(std::uint64_t seed)
{
    const DatasetSpec spec = datasetSpec(DatasetId::Papers);
    RmatParams rmat;
    rmat.scale = kScale;
    rmat.avgDegree = spec.avgDegree * 0.6;
    rmat.a = spec.rmatA;
    rmat.b = (1.0 - spec.rmatA) / 3.0;
    rmat.c = rmat.b;
    rmat.seed = seed;
    CommunityParams overlay;
    overlay.numVertices = VertexId{1} << kScale;
    overlay.communitySize = 64;
    overlay.hubsPerCommunity = 1;
    overlay.intraDegree = std::max<VertexId>(
        1, static_cast<VertexId>(spec.avgDegree * 0.4 / 2.0) - 1);
    overlay.interDegree = 0;
    overlay.seed = seed + 17;
    GraphBuilder edges(overlay.numVertices);
    appendRmatEdges(edges, rmat);
    appendCommunityEdges(edges, overlay);
    return edges;
}

struct Inference
{
    CsrGraph graph;
    std::unique_ptr<GnnModel> model;
    double buildSeconds = 0.0;
};

std::unique_ptr<Inference>
setUp(const GraphBuilder &edges, const DenseMatrix &features,
      std::uint64_t seed, double &seconds)
{
    GraphBuilder pending = edges; // input replay, not set-up work
    auto state = std::make_unique<Inference>();
    Timer timer;
    state->graph = pending.build();
    state->buildSeconds = timer.seconds();
    GnnModelConfig config;
    config.kind = GnnKind::Sage;
    config.featureWidths = {kWidth, kWidth, kClasses};
    config.seed = seed;
    state->model = std::make_unique<GnnModel>(state->graph, config);
    state->model->inference(features, TechniqueConfig::withFusion());
    seconds = timer.seconds();
    return state;
}

} // namespace

void
runInfer(const RunArgs &args, const Ceilings &ceilings, Report &report)
{
    const TechniqueConfig tech = TechniqueConfig::withFusion();
    Timer inputTimer;
    const GraphBuilder edges = papersEdges(args.seed);
    DenseMatrix features(VertexId{1} << kScale, kWidth);
    features.fillUniform(-1.0f, 1.0f, args.seed + 1);
    std::printf("inputs: papers analogue, %llu edge entries, generated in "
                "%.2f s\n",
                static_cast<unsigned long long>(edges.numPendingEdges()),
                inputTimer.seconds());

    std::vector<double> setupSeconds;
    auto state = repeatSetUp(args.trace, setupSeconds, [&](double &seconds) {
        return setUp(edges, features, args.seed, seconds);
    });
    GnnModel &model = *state->model;
    const DenseMatrix *logits = nullptr; // the last fused pass's output
    std::printf("graph: %u vertices, %llu edges; set-up %.3f s (median "
                "of %zu)\n",
                state->graph.numVertices(),
                static_cast<unsigned long long>(state->graph.numEdges()),
                median(setupSeconds), setupSeconds.size());

    if (args.trace) {
        constexpr int kRounds = 2;
        std::vector<double> untraced;
        std::vector<double> traced;
        Work passWork;
        LayerTrace trace;
        for (int round = 0; round < kRounds; ++round) {
            LayerTrace::setRecording(false);
            Timer timer;
            logits = &model.inference(features, tech);
            untraced.push_back(timer.seconds());
            LayerTrace::setRecording(true);
            const PhaseStats pass = trace.run("infer.pass", [&] {
                logits = &model.inference(features, tech);
            });
            traced.push_back(pass.seconds);
            passWork = pass.work;
        }
        report.metric("trace.overhead_frac",
                      median(traced) / median(untraced) - 1.0,
                      "frac");
        report.metric("kernels.bytes_gathered",
                      static_cast<double>(passWork.kernelBytes), "B");
        report.metric("tensor.flops", static_cast<double>(passWork.flops),
                      "count");
        report.metric("graph.delta_edges", 0.0, "count");
        SweepInputs in;
        in.graph = &state->graph;
        in.features = &features;
        in.model = &model;
        in.tech = tech;
        in.seed = args.seed;
        in.buildSeconds = state->buildSeconds;
        sweepLayers(in, ceilings, trace, report);
        trace.print(ceilings);
        report.layersJson = trace.tableJson(ceilings);
        report.attempted += kRounds;
    } else {
        std::vector<double> passes;
        Timer measured;
        while (measured.seconds() < args.seconds ||
               passes.size() < kMinPasses) {
            Timer timer;
            logits = &model.inference(features, tech);
            passes.push_back(timer.seconds());
        }
        double total = 0.0;
        for (const double s : passes)
            total += s;
        const double rss = peakRssMb();
        std::printf("passes: %zu timed, median %.4f s\n", passes.size(),
                    median(passes));
        report.metric("setup_s", median(setupSeconds), "s");
        report.metric("peak_rss_mb", rss, "MB");
        report.metric("p50_ms", median(passes) * 1e3, "ms");
        report.metric("capacity_per_s",
                      static_cast<double>(state->graph.numVertices()) *
                          static_cast<double>(passes.size()) / total,
                      "1/s");
        report.detail("passes", static_cast<double>(passes.size()), "count");
        report.attempted += passes.size();
    }

    // Oracle from the same build: fused inference against basic.
    const DenseMatrix fused = *logits; // basic reuses the model's buffers
    const DenseMatrix &basic =
        model.inference(features, TechniqueConfig::basic());
    const double gap = relFrobenius(fused, basic);
    report.detail("logits_rel_frobenius_vs_basic", gap, "frac");
    report.check("infer: fused logits within 1e-4 of basic", gap <= 1e-4);
}

} // namespace graphite::perf
