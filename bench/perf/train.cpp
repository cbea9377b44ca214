/**
 * @file
 * train-products-gcn: full-batch GCN training on the products analogue
 * at blueprint scale (131,072 vertices, planted communities), widths
 * 128-256-16, TechniqueConfig::combinedLocality() in fp32. The hidden
 * activations (134 MB) are the order of the LLC on a clustered graph,
 * the regime where the Alg.-3 locality order, compression and the fused
 * backward do most of the work; no other workload runs them.
 */

#include <cmath>
#include <cstdio>
#include <memory>

#include "gnn/trainer.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "perf.h"
#include "tensor/row_ops.h"

namespace graphite::perf {

namespace {

constexpr std::size_t kClasses = 16;
constexpr std::size_t kInputWidth = 128;
constexpr std::size_t kHiddenWidth = 256;
constexpr int kWarmupEpochs = 2;
constexpr int kMinEpochs = 5;
constexpr float kLearningRate = 0.05f;

/** The products analogue's edges, as makeDataset(Products) plants them. */
GraphBuilder
productsEdges(std::uint64_t seed)
{
    const DatasetSpec spec = datasetSpec(DatasetId::Products);
    CommunityParams community;
    community.numVertices = VertexId{1} << spec.scaleLog2;
    community.communitySize = 64;
    community.intraDegree = static_cast<VertexId>(spec.avgDegree * 0.85);
    community.interDegree = static_cast<VertexId>(spec.avgDegree * 0.15) + 1;
    community.seed = seed;
    GraphBuilder edges(community.numVertices);
    appendCommunityEdges(edges, community);
    return edges;
}

/** Everything set-up builds; the last set-up is the one measured. */
struct Trained
{
    CsrGraph graph;
    std::unique_ptr<GnnModel> model;
    std::unique_ptr<Trainer> trainer;
    double buildSeconds = 0.0;
    std::vector<double> losses;
};

std::unique_ptr<Trained>
setUp(const GraphBuilder &edges, const SyntheticTask &task,
      std::uint64_t seed, double &seconds)
{
    GraphBuilder pending = edges; // input replay, not set-up work
    auto state = std::make_unique<Trained>();
    Timer timer;
    state->graph = pending.build();
    state->buildSeconds = timer.seconds();
    GnnModelConfig modelConfig;
    modelConfig.kind = GnnKind::Gcn;
    modelConfig.featureWidths = {kInputWidth, kHiddenWidth, kClasses};
    modelConfig.seed = seed;
    state->model = std::make_unique<GnnModel>(state->graph, modelConfig);
    TrainerConfig trainerConfig;
    trainerConfig.learningRate = kLearningRate;
    trainerConfig.tech = TechniqueConfig::combinedLocality();
    state->trainer = std::make_unique<Trainer>(*state->model, task.features,
                                               task.labels, trainerConfig);
    for (int epoch = 0; epoch < kWarmupEpochs; ++epoch)
        state->losses.push_back(state->trainer->trainEpoch().loss);
    seconds = timer.seconds();
    return state;
}

/** Seconds of one Trainer::trainEpoch, recording its loss. */
double
timedEpoch(Trained &state)
{
    Timer timer;
    const EpochStats stats = state.trainer->trainEpoch();
    const double seconds = timer.seconds();
    state.losses.push_back(stats.loss);
    return seconds;
}

/**
 * Per-layer run: traced against untraced epochs (the overhead), the
 * trainer's phases driven one by one, then the layer sweep.
 */
void
traceTraining(Trained &state, const SyntheticTask &task,
              const RunArgs &args, const Ceilings &ceilings, Report &report)
{
    constexpr int kRounds = 4;
    GnnModel &model = *state.model;
    const TechniqueConfig tech = TechniqueConfig::combinedLocality();
    std::vector<double> untraced;
    std::vector<double> traced;
    std::vector<double> forward, loss, backward, sgd;
    DenseMatrix lossGrad;
    Work epochWork;
    LayerTrace trace;
    for (int round = 0; round < kRounds; ++round) {
        LayerTrace::setRecording(false);
        untraced.push_back(timedEpoch(state));
        LayerTrace::setRecording(true);
        const PhaseStats epoch =
            trace.run("train.epoch", [&] { timedEpoch(state); });
        traced.push_back(epoch.seconds);
        epochWork = epoch.work;
        // The trainer's order, one public call per phase.
        trace.run("gnn.step", [&] {
            const DenseMatrix *logits = nullptr;
            forward.push_back(trace.run("gnn.forward", [&] {
                logits = &model.trainForward(task.features, tech);
            }).seconds);
            lossGrad.reshape(logits->rows(), logits->cols());
            loss.push_back(trace.run("gnn.loss", [&] {
                softmaxCrossEntropy(*logits, task.labels, lossGrad);
            }).seconds);
            backward.push_back(trace.run("gnn.backward", [&] {
                model.trainBackward(lossGrad, tech);
            }).seconds);
            sgd.push_back(trace.run("gnn.sgd", [&] {
                model.sgdStep(kLearningRate);
            }).seconds);
        });
    }
    const double epoch = median(untraced);
    const double shares[] = {median(forward) / epoch,
                             median(loss) / epoch,
                             median(backward) / epoch,
                             median(sgd) / epoch};
    report.metric("gnn.forward_share", shares[0], "frac");
    report.metric("gnn.loss_share", shares[1], "frac");
    report.metric("gnn.backward_share", shares[2], "frac");
    report.metric("gnn.sgd_share", shares[3], "frac");
    report.metric("gnn.phase_sum_ratio",
                  shares[0] + shares[1] + shares[2] + shares[3], "frac");
    report.metric("trace.overhead_frac", median(traced) / epoch - 1.0,
                  "frac");
    report.metric("kernels.bytes_gathered",
                  static_cast<double>(epochWork.kernelBytes), "B");
    report.metric("tensor.flops", static_cast<double>(epochWork.flops),
                  "count");
    report.metric("graph.delta_edges", 0.0, "count");

    SweepInputs in;
    in.graph = &state.graph;
    in.features = &task.features;
    in.model = &model;
    in.tech = tech;
    in.seed = args.seed;
    in.buildSeconds = state.buildSeconds;
    in.trains = true;
    sweepLayers(in, ceilings, trace, report);
    trace.print(ceilings);
    report.layersJson = trace.tableJson(ceilings);
    report.attempted += kRounds;
}

} // namespace

void
runTrain(const RunArgs &args, const Ceilings &ceilings, Report &report)
{
    Timer inputTimer;
    const GraphBuilder edges = productsEdges(args.seed);
    const SyntheticTask task = makeSyntheticTask(
        GraphBuilder(edges).build(), kClasses, kInputWidth, 0.5, args.seed);
    std::printf("inputs: products analogue, %llu edge entries, generated "
                "in %.2f s\n",
                static_cast<unsigned long long>(edges.numPendingEdges()),
                inputTimer.seconds());

    std::vector<double> setupSeconds;
    auto state = repeatSetUp(args.trace, setupSeconds, [&](double &seconds) {
        return setUp(edges, task, args.seed, seconds);
    });
    const double firstLoss = state->losses.front();
    std::printf("graph: %u vertices, %llu edges; set-up %.3f s (median "
                "of %zu)\n",
                state->graph.numVertices(),
                static_cast<unsigned long long>(state->graph.numEdges()),
                median(setupSeconds), setupSeconds.size());

    if (args.trace) {
        traceTraining(*state, task, args, ceilings, report);
    } else {
        std::vector<double> epochs;
        Timer measured;
        while (measured.seconds() < args.seconds ||
               epochs.size() < kMinEpochs)
            epochs.push_back(timedEpoch(*state));
        double total = 0.0;
        for (const double s : epochs)
            total += s;
        const double rss = peakRssMb();
        std::printf("epochs: %zu timed, median %.4f s, loss %.4f -> %.4f\n",
                    epochs.size(), median(epochs), firstLoss,
                    state->losses.back());
        report.metric("setup_s", median(setupSeconds), "s");
        report.metric("peak_rss_mb", rss, "MB");
        report.metric("p50_ms", median(epochs) * 1e3, "ms");
        report.metric("capacity_per_s",
                      static_cast<double>(state->graph.numVertices()) *
                          static_cast<double>(epochs.size()) / total,
                      "1/s");
        report.detail("epochs", static_cast<double>(epochs.size()), "count");
        report.attempted += epochs.size();
    }

    bool finite = true;
    for (const double loss : state->losses)
        finite = finite && std::isfinite(loss);
    report.check("train: loss stays finite", finite);
    report.check("train: loss falls", state->losses.back() < firstLoss);
    // Oracle from the same build: the workload's techniques must not
    // change the math of the trained model.
    const DenseMatrix workloadLogits = state->model->inference(
        task.features, TechniqueConfig::combinedLocality());
    const DenseMatrix &basicLogits =
        state->model->inference(task.features, TechniqueConfig::basic());
    const double gap = relFrobenius(workloadLogits, basicLogits);
    report.detail("logits_rel_frobenius_vs_basic", gap, "frac");
    report.check("train: c-locality logits within 1e-4 of basic",
                 gap <= 1e-4);
}

} // namespace graphite::perf
