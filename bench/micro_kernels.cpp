/**
 * @file
 * Native micro-benchmarks (google-benchmark) of the Graphite kernels
 * on this host: aggregation variants, mask compression, GEMM, the
 * fused layer and the locality reordering. These measure the real
 * AVX-512 implementations — the figure benches measure the simulated
 * 28-core machine instead (this host has a single hardware thread).
 */

#include <benchmark/benchmark.h>

#include "baselines/baseline_layers.h"
#include "compress/compressed_matrix.h"
#include "dma/pipelined_runner.h"
#include "gnn/gnn_layer.h"
#include "graph/generators.h"
#include "graph/reorder.h"
#include "kernels/fused_layer.h"
#include "tensor/gemm.h"
#include "tensor/row_ops.h"
#include "tensor/spmm.h"

namespace {

using namespace graphite;

/** Shared medium graph + features for the aggregation benches. */
struct AggFixture
{
    CsrGraph graph;
    AggregationSpec spec;
    DenseMatrix features;
    DenseMatrix output;

    explicit
    AggFixture(std::size_t f)
    {
        RmatParams params;
        params.scale = 13;
        params.avgDegree = 16.0;
        graph = generateRmat(params);
        spec = gcnSpec(graph);
        features = DenseMatrix(graph.numVertices(), f);
        features.fillUniform(-1.0f, 1.0f, 1);
        output = DenseMatrix(graph.numVertices(), f);
    }

    double
    gatheredBytes() const
    {
        return static_cast<double>(graph.numEdges() +
                                   graph.numVertices()) *
               features.rowBytes();
    }
};

void
BM_AggregateBasic(benchmark::State &state)
{
    AggFixture fx(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        aggregate(fx.graph, fx.features, fx.output, fx.spec);
        benchmark::DoNotOptimize(fx.output.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(fx.gatheredBytes() *
                                  state.iterations()));
}
BENCHMARK(BM_AggregateBasic)->Arg(64)->Arg(128)->Arg(256);

void
BM_AggregateDistGnn(benchmark::State &state)
{
    AggFixture fx(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        distgnnAggregate(fx.graph, fx.features, fx.output, fx.spec);
        benchmark::DoNotOptimize(fx.output.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(fx.gatheredBytes() *
                                  state.iterations()));
}
BENCHMARK(BM_AggregateDistGnn)->Arg(256);

void
BM_AggregateCompressed(benchmark::State &state)
{
    AggFixture fx(256);
    const double sparsity = static_cast<double>(state.range(0)) / 100.0;
    fx.features.sparsify(sparsity, 2);
    CompressedMatrix packed(fx.graph.numVertices(), 256);
    packed.compressFrom(fx.features);
    for (auto _ : state) {
        aggregate(fx.graph, packed, fx.output, fx.spec);
        benchmark::DoNotOptimize(fx.output.data());
    }
}
BENCHMARK(BM_AggregateCompressed)->Arg(10)->Arg(50)->Arg(90);

void
BM_AggregateLocalityOrder(benchmark::State &state)
{
    AggFixture fx(256);
    ProcessingOrder order = localityOrder(fx.graph);
    for (auto _ : state) {
        aggregate(fx.graph, fx.features, fx.output, fx.spec, order);
        benchmark::DoNotOptimize(fx.output.data());
    }
}
BENCHMARK(BM_AggregateLocalityOrder);

void
BM_FusedLayerInference(benchmark::State &state)
{
    AggFixture fx(256);
    DenseMatrix weights(256, 256);
    weights.fillUniform(-0.1f, 0.1f, 3);
    std::vector<Feature> bias(256, 0.01f);
    const UpdateOp update{&weights, bias, true};
    DenseMatrix out(fx.graph.numVertices(), 256);
    for (auto _ : state) {
        fusedLayer(fx.graph, fx.features, fx.spec, update, out);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_FusedLayerInference);

void
BM_UnfusedLayer(benchmark::State &state)
{
    AggFixture fx(256);
    DenseMatrix weights(256, 256);
    weights.fillUniform(-0.1f, 0.1f, 3);
    std::vector<Feature> bias(256, 0.01f);
    const UpdateOp update{&weights, bias, true};
    DenseMatrix agg(fx.graph.numVertices(), 256);
    DenseMatrix out(fx.graph.numVertices(), 256);
    for (auto _ : state) {
        unfusedLayer(fx.graph, fx.features, fx.spec, update, agg, out);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_UnfusedLayer);

/**
 * Backward-pass fixture: a gradient matrix standing in for dz, the
 * transposed graph + remapped factors, and W prepacked in NT mode —
 * the operands of dh_prev = Aggᵀ(dz·Wᵀ).
 */
struct BackwardFixture
{
    AggFixture fx{256};
    CsrGraph transposed;
    AggregationSpec tSpec;
    DenseMatrix weights{256, 256};
    GemmPlan planNT;
    DenseMatrix gradIn;

    BackwardFixture()
        : transposed(fx.graph.transposed()),
          tSpec(transposeSpec(fx.graph, fx.spec, transposed)),
          gradIn(fx.graph.numVertices(), 256)
    {
        weights.fillUniform(-0.1f, 0.1f, 11);
        planNT.pack(GemmMode::NT, weights);
    }
};

void
BM_BackwardUnfused(benchmark::State &state)
{
    BackwardFixture bw;
    DenseMatrix dAgg(bw.fx.graph.numVertices(), 256);
    for (auto _ : state) {
        gemm(GemmMode::NT, bw.fx.features, bw.planNT, dAgg);
        aggregate(bw.transposed, dAgg, bw.gradIn, bw.tSpec);
        benchmark::DoNotOptimize(bw.gradIn.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(bw.fx.gatheredBytes() *
                                  state.iterations()));
}
BENCHMARK(BM_BackwardUnfused);

void
BM_BackwardFused(benchmark::State &state)
{
    BackwardFixture bw;
    for (auto _ : state) {
        fusedLayerBackward(bw.transposed, bw.fx.features, bw.tSpec,
                           bw.planNT, bw.gradIn);
        benchmark::DoNotOptimize(bw.gradIn.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(bw.fx.gatheredBytes() *
                                  state.iterations()));
}
BENCHMARK(BM_BackwardFused);

void
BM_BiasGradColumnSum(benchmark::State &state)
{
    AggFixture fx(static_cast<std::size_t>(state.range(0)));
    std::vector<Feature> sums(fx.features.cols());
    std::vector<Feature> scratch;
    for (auto _ : state) {
        columnSum(fx.features, sums, scratch);
        benchmark::DoNotOptimize(sums.data());
    }
    state.SetBytesProcessed(
        state.iterations() *
        static_cast<std::int64_t>(fx.features.rows() *
                                  fx.features.rowBytes()));
}
BENCHMARK(BM_BiasGradColumnSum)->Arg(64)->Arg(256);

/**
 * The training backward's ReLU′ with the dropout survivor scale over a
 * layer-0-sized dz (131072 x 256, 128 MiB): reads the activation and
 * reads and writes dz, so bytes/s shows a fall back to scalar code.
 */
void
BM_ReluBackward(benchmark::State &state)
{
    DenseMatrix activated(131072, 256);
    activated.fillUniform(-1.0f, 1.0f, 4);
    DenseMatrix grad(131072, 256);
    grad.fillUniform(-1.0f, 1.0f, 5);
    // Alternating 2 and 1/2 keeps the scaled survivors exact and bounded.
    float scale = 2.0f;
    for (auto _ : state) {
        reluBackward(activated, grad, scale);
        scale = 1.0f / scale;
        benchmark::DoNotOptimize(grad.data());
    }
    state.SetBytesProcessed(
        state.iterations() *
        static_cast<std::int64_t>(3 * grad.rows() * grad.rowBytes()));
}
BENCHMARK(BM_ReluBackward);

void
BM_DmaPipelinedLayer(benchmark::State &state)
{
    AggFixture fx(256);
    DenseMatrix weights(256, 256);
    weights.fillUniform(-0.1f, 0.1f, 3);
    std::vector<Feature> bias(256, 0.01f);
    const UpdateOp update{&weights, bias, true};
    DenseMatrix agg(fx.graph.numVertices(), 256);
    DenseMatrix out(fx.graph.numVertices(), 256);
    for (auto _ : state) {
        dma::pipelinedDmaLayer(fx.graph, fx.features, fx.spec, update,
                               agg, out);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_DmaPipelinedLayer);

void
BM_CompressRows(benchmark::State &state)
{
    DenseMatrix dense(4096, 256);
    dense.fillUniform(0.5f, 1.5f, 4);
    dense.sparsify(static_cast<double>(state.range(0)) / 100.0, 5);
    CompressedMatrix packed(4096, 256);
    for (auto _ : state) {
        packed.compressFrom(dense);
        benchmark::DoNotOptimize(packed.values(0));
    }
    state.SetBytesProcessed(state.iterations() * 4096 * 256 * 4);
}
BENCHMARK(BM_CompressRows)->Arg(10)->Arg(50)->Arg(90);

void
BM_DecompressRows(benchmark::State &state)
{
    DenseMatrix dense(4096, 256);
    dense.fillUniform(0.5f, 1.5f, 6);
    dense.sparsify(0.5, 7);
    CompressedMatrix packed(4096, 256);
    packed.compressFrom(dense);
    DenseMatrix restored(4096, 256);
    for (auto _ : state) {
        packed.decompressTo(restored);
        benchmark::DoNotOptimize(restored.data());
    }
    state.SetBytesProcessed(state.iterations() * 4096 * 256 * 4);
}
BENCHMARK(BM_DecompressRows);

void
BM_Gemm(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    DenseMatrix a(n, 256);
    DenseMatrix b(256, 256);
    DenseMatrix c(n, 256);
    a.fillUniform(-1.0f, 1.0f, 8);
    b.fillUniform(-1.0f, 1.0f, 9);
    for (auto _ : state) {
        gemm(GemmMode::NN, a, b, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n) * 256 * 256 *
                            2);
}
BENCHMARK(BM_Gemm)->Arg(1024)->Arg(8192);

/**
 * GFLOP/s-reporting GEMM benchmark over explicit (mode, M, N, K)
 * shapes: the acceptance shape 4096x256x256 plus the Table 3 per-layer
 * update shapes (|V|=32768 RMAT-scale-15-ish M with the datasets'
 * feature widths) and the backward-pass TN/NT forms those layers run.
 */
void
BM_GemmShapes(benchmark::State &state)
{
    const auto mode = static_cast<GemmMode>(state.range(0));
    const auto m = static_cast<std::size_t>(state.range(1));
    const auto n = static_cast<std::size_t>(state.range(2));
    const auto k = static_cast<std::size_t>(state.range(3));
    DenseMatrix a;
    DenseMatrix b;
    switch (mode) {
      case GemmMode::NN:
        a = DenseMatrix(m, k);
        b = DenseMatrix(k, n);
        break;
      case GemmMode::NT:
        a = DenseMatrix(m, k);
        b = DenseMatrix(n, k);
        break;
      case GemmMode::TN:
        a = DenseMatrix(k, m);
        b = DenseMatrix(k, n);
        break;
    }
    a.fillUniform(-1.0f, 1.0f, 8);
    b.fillUniform(-1.0f, 1.0f, 9);
    DenseMatrix c(m, n);
    for (auto _ : state) {
        gemm(mode, a, b, c);
        benchmark::DoNotOptimize(c.data());
    }
    const double flops = 2.0 * static_cast<double>(m) *
                         static_cast<double>(n) *
                         static_cast<double>(k) *
                         static_cast<double>(state.iterations());
    state.counters["GFLOP/s"] =
        benchmark::Counter(flops * 1e-9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmShapes)
    // Acceptance shape: 4096 x 256 x 256 NN.
    ->Args({0, 4096, 256, 256})
    // Table 3 layer-1 update shapes: M = |V|, K = input width, N = 128.
    ->Args({0, 32768, 128, 50})
    ->Args({0, 32768, 128, 64})
    ->Args({0, 32768, 256, 128})
    // Backward dX (NT: dY * W^T) and dW (TN: X^T * dY, short-M wide-N).
    ->Args({1, 4096, 256, 256})
    ->Args({2, 256, 256, 4096});

/**
 * Same acceptance shape through a prepacked GemmPlan — isolates the
 * micro-kernel rate from the per-call B pack, the regime the layer
 * weight cache runs in every epoch.
 */
void
BM_GemmPrepacked(benchmark::State &state)
{
    const auto m = static_cast<std::size_t>(state.range(0));
    const std::size_t n = 256;
    const std::size_t k = 256;
    DenseMatrix a(m, k);
    DenseMatrix b(k, n);
    a.fillUniform(-1.0f, 1.0f, 8);
    b.fillUniform(-1.0f, 1.0f, 9);
    GemmPlan plan;
    plan.pack(GemmMode::NN, b);
    DenseMatrix c(m, n);
    for (auto _ : state) {
        gemm(GemmMode::NN, a, plan, c);
        benchmark::DoNotOptimize(c.data());
    }
    const double flops = 2.0 * static_cast<double>(m) * 256.0 * 256.0 *
                         static_cast<double>(state.iterations());
    state.counters["GFLOP/s"] =
        benchmark::Counter(flops * 1e-9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmPrepacked)->Arg(4096)->Arg(32768);

/**
 * Prepacked bf16 GEMM, acceptance shape, fp32 A rounded at the A pack.
 * Arg(1) forces the emulated widening kernel so both dispatch targets
 * get a number on any host; Arg(0) uses whatever the cpuid dispatch
 * picks (vdpbf16ps where available). Compare against BM_GemmPrepacked
 * for the fp32 baseline at the same shape.
 */
void
BM_GemmPrepackedBf16(benchmark::State &state)
{
    const bool forceEmulated = state.range(0) != 0;
    setBf16GemmEmulated(forceEmulated);
    const std::size_t m = 4096;
    const std::size_t n = 256;
    const std::size_t k = 256;
    DenseMatrix a(m, k);
    DenseMatrix b(k, n);
    a.fillUniform(-1.0f, 1.0f, 8);
    b.fillUniform(-1.0f, 1.0f, 9);
    GemmPlan plan;
    plan.pack(GemmMode::NN, b, Precision::Bf16);
    DenseMatrix c(m, n);
    for (auto _ : state) {
        gemm(GemmMode::NN, a, plan, c);
        benchmark::DoNotOptimize(c.data());
    }
    setBf16GemmEmulated(false);
    state.SetLabel(!forceEmulated && bf16GemmIsNative() ? "native"
                                                        : "emulated");
    const double flops = 2.0 * static_cast<double>(m) * 256.0 * 256.0 *
                         static_cast<double>(state.iterations());
    state.counters["GFLOP/s"] =
        benchmark::Counter(flops * 1e-9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmPrepackedBf16)->Arg(0)->Arg(1);

void
BM_AggregateBf16(benchmark::State &state)
{
    AggFixture fx(256);
    Bf16Matrix packed(fx.graph.numVertices(), 256);
    packed.fromDense(fx.features);
    for (auto _ : state) {
        aggregate(fx.graph, packed, fx.output, fx.spec);
        benchmark::DoNotOptimize(fx.output.data());
    }
    // Half the gathered bytes of the fp32 kernel.
    state.SetBytesProcessed(
        static_cast<std::int64_t>(fx.gatheredBytes() / 2 *
                                  state.iterations()));
}
BENCHMARK(BM_AggregateBf16);

void
BM_SpmmAggregation(benchmark::State &state)
{
    AggFixture fx(256);
    for (auto _ : state) {
        spmm(fx.graph, fx.features, fx.output, fx.spec.edgeFactors,
             fx.spec.selfFactors);
        benchmark::DoNotOptimize(fx.output.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(fx.gatheredBytes() *
                                  state.iterations()));
}
BENCHMARK(BM_SpmmAggregation);

void
BM_FusedLayerCompressed(benchmark::State &state)
{
    AggFixture fx(256);
    fx.features.sparsify(0.5, 10);
    CompressedMatrix packed(fx.graph.numVertices(), 256);
    packed.compressFrom(fx.features);
    DenseMatrix weights(256, 256);
    weights.fillUniform(-0.1f, 0.1f, 3);
    std::vector<Feature> bias(256, 0.01f);
    const UpdateOp update{&weights, bias, true};
    DenseMatrix out(fx.graph.numVertices(), 256);
    for (auto _ : state) {
        fusedLayer(fx.graph, packed, fx.spec, update, out);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_FusedLayerCompressed);

/**
 * Fused inference with bf16 activations end to end: bf16 gathers
 * (widened in registers) feeding the bf16 per-block micro-GEMM. The
 * precision counterpart of BM_FusedLayerCompressed — both halve (or
 * better) gather traffic, by different means: bf16 is a fixed 2x on
 * every row regardless of content, mask compression is data-dependent
 * (see EXPERIMENTS.md for the comparison).
 */
void
BM_FusedLayerInferenceBf16(benchmark::State &state)
{
    AggFixture fx(256);
    Bf16Matrix packed(fx.graph.numVertices(), 256);
    packed.fromDense(fx.features);
    DenseMatrix weights(256, 256);
    weights.fillUniform(-0.1f, 0.1f, 3);
    std::vector<Feature> bias(256, 0.01f);
    GemmPlan plan;
    plan.pack(GemmMode::NN, weights, Precision::Bf16);
    const UpdateOp update{&weights, bias, true, &plan, Precision::Bf16};
    DenseMatrix out(fx.graph.numVertices(), 256);
    for (auto _ : state) {
        fusedLayer(fx.graph, packed, fx.spec, update, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(fx.gatheredBytes() / 2 *
                                  state.iterations()));
}
BENCHMARK(BM_FusedLayerInferenceBf16);

void
BM_LocalityOrderConstruction(benchmark::State &state)
{
    RmatParams params;
    params.scale = 15;
    params.avgDegree = 16.0;
    CsrGraph graph = generateRmat(params);
    for (auto _ : state) {
        ProcessingOrder order = localityOrder(graph);
        benchmark::DoNotOptimize(order.data());
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(graph.numEdges()));
}
BENCHMARK(BM_LocalityOrderConstruction);

} // namespace

BENCHMARK_MAIN();
