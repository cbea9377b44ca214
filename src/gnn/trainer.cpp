#include "gnn/trainer.h"

#include <stdexcept>
#include <string>

#include "common/assert.h"
#include "common/rng.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/row_ops.h"

namespace graphite {

namespace {

/** TrainerConfig::checkNumerics sweep: throw if @p m holds NaN/Inf. */
void
requireFinite(const DenseMatrix &m, const char *what)
{
    const std::size_t bad = m.countNonFinite();
    if (bad != 0) {
        throw std::runtime_error(
            std::string("trainer numerics check: ") + what + " has " +
            std::to_string(bad) + " non-finite element(s)");
    }
}

} // namespace

Trainer::Trainer(GnnModel &model, const DenseMatrix &inputFeatures,
                 std::vector<std::int32_t> labels, TrainerConfig config)
    : model_(model), inputFeatures_(inputFeatures),
      labels_(std::move(labels)), config_(config)
{
    const std::size_t n = model.graph().numVertices();
    const std::size_t width = model.layer(0).inFeatures();
    const std::size_t classes =
        model.layer(model.numLayers() - 1).outFeatures();
    if (inputFeatures.rows() != n || inputFeatures.cols() != width) {
        fatal("Trainer: features are %zu x %zu, the model needs %zu "
              "vertices x %zu input features",
              inputFeatures.rows(), inputFeatures.cols(), n, width);
    }
    if (labels_.size() != n)
        fatal("Trainer: %zu labels for %zu vertices", labels_.size(), n);
    for (std::size_t v = 0; v < n; ++v) {
        const std::int32_t label = labels_[v];
        if (label < 0 || static_cast<std::size_t>(label) >= classes) {
            fatal("Trainer: label %d of vertex %zu is outside [0, %zu)",
                  label, v, classes);
        }
    }
    const auto checkMask = [n](const std::vector<std::uint8_t> &mask,
                               const char *name) {
        if (!mask.empty() && mask.size() != n) {
            fatal("Trainer: %s has %zu entries for %zu vertices", name,
                  mask.size(), n);
        }
    };
    checkMask(config_.trainMask, "trainMask");
    checkMask(config_.evalMask, "evalMask");
}

std::pair<std::vector<std::uint8_t>, std::vector<std::uint8_t>>
makeSplitMasks(std::size_t numVertices, double trainFraction,
               double evalFraction, std::uint64_t seed)
{
    GRAPHITE_ASSERT(trainFraction + evalFraction <= 1.0,
                    "split fractions exceed 1");
    Rng rng(seed);
    std::vector<std::uint8_t> train(numVertices, 0);
    std::vector<std::uint8_t> eval(numVertices, 0);
    for (std::size_t v = 0; v < numVertices; ++v) {
        const double draw = rng.uniform();
        if (draw < trainFraction)
            train[v] = 1;
        else if (draw < trainFraction + evalFraction)
            eval[v] = 1;
    }
    return {std::move(train), std::move(eval)};
}

EpochStats
Trainer::trainEpoch()
{
    GRAPHITE_TRACE_SPAN("epoch");
    Timer timer;
    // checkNumerics sweeps are validation, not training: time them
    // separately so stats.seconds stays comparable whether or not the
    // sweep is enabled (it used to be silently folded in).
    double numericsSeconds = 0.0;
    const auto sweep = [&](const DenseMatrix &m, const char *what) {
        GRAPHITE_TRACE_SPAN("epoch.numerics");
        Timer sweepTimer;
        requireFinite(m, what);
        numericsSeconds += sweepTimer.seconds();
    };

    const DenseMatrix *logits = nullptr;
    {
        GRAPHITE_TRACE_SPAN("epoch.forward");
        logits = &model_.trainForward(inputFeatures_, config_.tech);
    }
    if (config_.checkNumerics)
        sweep(*logits, "forward logits");
    lossGradScratch_.reshape(logits->rows(), logits->cols());
    EpochStats stats;
    {
        GRAPHITE_TRACE_SPAN("epoch.loss");
        stats.loss = softmaxCrossEntropy(*logits, labels_, lossGradScratch_,
                                         config_.trainMask);
        stats.trainAccuracy = accuracy(*logits, labels_, config_.trainMask);
    }
    if (config_.checkNumerics)
        sweep(lossGradScratch_, "loss gradient");
    {
        GRAPHITE_TRACE_SPAN("epoch.backward");
        model_.trainBackward(lossGradScratch_, config_.tech);
    }
    {
        GRAPHITE_TRACE_SPAN("epoch.sgd");
        model_.sgdStep(config_.learningRate);
    }
    stats.numericsSeconds = numericsSeconds;
    stats.seconds = timer.seconds() - numericsSeconds;
    if (numericsSeconds > 0.0) {
        static obs::Counter &numericsNs =
            obs::MetricsRegistry::global().counter("trainer.numerics_ns");
        numericsNs.add(static_cast<std::uint64_t>(numericsSeconds * 1e9));
    }
    return stats;
}

std::vector<EpochStats>
Trainer::train()
{
    std::vector<EpochStats> history;
    history.reserve(config_.epochs);
    for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch)
        history.push_back(trainEpoch());
    return history;
}

double
Trainer::evaluate() const
{
    const DenseMatrix &logits =
        model_.inference(inputFeatures_, config_.tech);
    return accuracy(logits, labels_, config_.evalMask);
}

SyntheticTask
makeSyntheticTask(const CsrGraph &graph, std::size_t numClasses,
                  std::size_t featureWidth, double noise,
                  std::uint64_t seed)
{
    GRAPHITE_ASSERT(numClasses >= 2, "need at least two classes");
    GRAPHITE_ASSERT(featureWidth >= numClasses,
                    "feature width must cover the class indicators");
    const VertexId n = graph.numVertices();
    Rng rng(seed);

    // Seed random labels, then smooth with a few majority-vote rounds so
    // labels correlate with structure (and are thus learnable by a GNN).
    std::vector<std::int32_t> labels(n);
    for (VertexId v = 0; v < n; ++v)
        labels[v] = static_cast<std::int32_t>(rng.uniformInt(numClasses));
    std::vector<std::int32_t> next(n);
    std::vector<std::uint32_t> votes(numClasses);
    for (int round = 0; round < 3; ++round) {
        for (VertexId v = 0; v < n; ++v) {
            std::fill(votes.begin(), votes.end(), 0);
            votes[static_cast<std::size_t>(labels[v])] += 2;
            for (VertexId u : graph.neighbors(v))
                ++votes[static_cast<std::size_t>(labels[u])];
            std::size_t best = 0;
            for (std::size_t c = 1; c < numClasses; ++c) {
                if (votes[c] > votes[best])
                    best = c;
            }
            next[v] = static_cast<std::int32_t>(best);
        }
        labels.swap(next);
    }

    SyntheticTask task;
    task.labels = std::move(labels);
    task.features = DenseMatrix(n, featureWidth);
    for (VertexId v = 0; v < n; ++v) {
        Feature *row = task.features.row(v);
        for (std::size_t c = 0; c < featureWidth; ++c) {
            row[c] = static_cast<Feature>(
                noise * (2.0 * rng.uniform() - 1.0));
        }
        // Class-indicator bump so the task is separable.
        row[static_cast<std::size_t>(task.labels[v])] += 1.0f;
    }
    return task;
}

} // namespace graphite
