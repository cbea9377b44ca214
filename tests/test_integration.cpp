/**
 * @file
 * End-to-end integration tests: full training runs exercising every
 * technique combination on the dataset analogues, cross-checking the
 * functional DMA path inside a training loop, and verifying the whole
 * pipeline (generate -> reorder -> train -> evaluate) hangs together.
 */

#include <gtest/gtest.h>

#include "dma/pipelined_runner.h"
#include "gnn/trainer.h"
#include "graph/datasets.h"
#include "graph/reorder.h"
#include "kernels/fused_layer.h"

namespace graphite {
namespace {

class TrainWithTechniques : public testing::TestWithParam<int>
{
  protected:
    TechniqueConfig
    tech() const
    {
        switch (GetParam()) {
          case 0: return TechniqueConfig::basic();
          case 1: return TechniqueConfig::withFusion();
          case 2: return TechniqueConfig::withCompression();
          case 3: return TechniqueConfig::combined();
          default: return TechniqueConfig::combinedLocality();
        }
    }
};

TEST_P(TrainWithTechniques, ConvergesOnProductsAnalogue)
{
    Dataset dataset = makeDataset(DatasetId::Products, /*scaleShift=*/8);
    SyntheticTask task =
        makeSyntheticTask(dataset.graph, 4, 16, 0.3, 101);

    GnnModelConfig config;
    config.kind = GnnKind::Sage;
    config.featureWidths = {16, 32, 4};
    config.dropoutRate = 0.2;
    GnnModel model(dataset.graph, config);

    TrainerConfig tc;
    tc.epochs = 10;
    tc.learningRate = 0.3f;
    tc.tech = tech();
    Trainer trainer(model, task.features, task.labels, tc);
    auto history = trainer.train();
    EXPECT_LT(history.back().loss, history.front().loss);
    EXPECT_GT(history.back().trainAccuracy, 0.4);
}

INSTANTIATE_TEST_SUITE_P(Techniques, TrainWithTechniques,
                         testing::Values(0, 1, 2, 3, 4));

TEST(Integration, GcnTrainingOnAllDatasetAnalogues)
{
    for (DatasetId id : allDatasets()) {
        Dataset dataset = makeDataset(id, /*scaleShift=*/9);
        SyntheticTask task =
            makeSyntheticTask(dataset.graph, 3, 8, 0.3, 103);
        GnnModelConfig config;
        config.kind = GnnKind::Gcn;
        config.featureWidths = {8, 16, 3};
        config.dropoutRate = 0.0;
        GnnModel model(dataset.graph, config);
        TrainerConfig tc;
        tc.epochs = 6;
        tc.learningRate = 0.3f;
        Trainer trainer(model, task.features, task.labels, tc);
        auto history = trainer.train();
        EXPECT_LT(history.back().loss, history.front().loss)
            << datasetSpec(id).name;
    }
}

TEST(Integration, DmaLayerInsideTrainingForwardMatchesSoftware)
{
    // Swap the first layer's forward aggregation+update with the
    // functional DMA pipeline and check the logits agree with the
    // software path — the hardware must be arithmetically transparent.
    Dataset dataset = makeDataset(DatasetId::Wikipedia, /*scaleShift=*/9);
    const CsrGraph &g = dataset.graph;
    AggregationSpec spec = gcnSpec(g);

    DenseMatrix input(g.numVertices(), 64);
    input.fillUniform(-1.0f, 1.0f, 104);
    DenseMatrix weights(64, 32);
    weights.fillUniform(-0.2f, 0.2f, 105);
    std::vector<Feature> bias(32, 0.01f);
    const UpdateOp update{&weights, bias, true};

    DenseMatrix aggSw(g.numVertices(), 64);
    DenseMatrix outSw(g.numVertices(), 32);
    fusedLayer(g, input, spec, update, outSw, {&aggSw});

    DenseMatrix aggHw(g.numVertices(), 64);
    DenseMatrix outHw(g.numVertices(), 32);
    dma::pipelinedDmaLayer(g, input, spec, update, aggHw, outHw);

    EXPECT_LT(outSw.maxAbsDiff(outHw), 1e-4);
    EXPECT_LT(aggSw.maxAbsDiff(aggHw), 1e-4);
}

TEST(Integration, LocalityOrderImprovesReuseOnProductsAnalogue)
{
    // The Section 7.2.4 claim at test scale: the locality order beats a
    // random order on the reuse-distance proxy for the high-degree
    // products analogue.
    Dataset dataset = makeDataset(DatasetId::Products, /*scaleShift=*/5);
    const CsrGraph &g = dataset.graph;
    const double loc = averageReuseDistance(g, localityOrder(g), 1 << 14);
    const double rnd = averageReuseDistance(g, randomOrder(g, 7), 1 << 14);
    EXPECT_LT(loc, rnd * 0.9);
}

TEST(Integration, InferenceIsDeterministicAcrossRuns)
{
    Dataset dataset = makeDataset(DatasetId::Papers, /*scaleShift=*/10);
    GnnModelConfig config;
    config.featureWidths = {32, 32, 4};
    config.dropoutRate = 0.5; // must not affect inference
    GnnModel model(dataset.graph, config);
    DenseMatrix features(dataset.graph.numVertices(), 32);
    features.fillUniform(-1.0f, 1.0f, 106);
    const DenseMatrix a =
        model.inference(features, TechniqueConfig::combined());
    const DenseMatrix b =
        model.inference(features, TechniqueConfig::combined());
    EXPECT_DOUBLE_EQ(a.maxAbsDiff(b), 0.0);
}

} // namespace
} // namespace graphite
