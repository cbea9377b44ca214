/**
 * @file
 * DMA-offloaded aggregation walkthrough (paper Section 5): builds an
 * aggregation descriptor by hand, executes it on the functional engine,
 * runs the full Algorithm 5 pipeline, and then simulates the same layer
 * on the 28-core timing model to show the speedup the engine buys.
 *
 *   $ ./dma_offload
 */

#include <cstdio>

#include "dma/dma_engine.h"
#include "dma/pipelined_runner.h"
#include "graph/generators.h"
#include "kernels/fused_layer.h"
#include "sim/machine.h"
#include "sim/workloads.h"

using namespace graphite;

int
main()
{
    // --- Part 1: one descriptor, by hand (paper Figures 8 & 9) ---
    // Aggregate vertex 1's neighborhood {0, 2, 3} with GCN-style
    // factors, 4 features per vertex padded to a 32-byte block.
    alignas(64) float features[4][8] = {
        {1, 2, 3, 4}, {9, 9, 9, 9}, {10, 20, 30, 40}, {100, 200, 300, 400}};
    std::uint32_t indices[3] = {0, 2, 3};
    float factors[3] = {0.5f, 0.25f, 0.125f};
    alignas(64) float out[4] = {};
    std::uint8_t status = 0;

    dma::AggregationDescriptor desc;
    desc.redOp = dma::RedOp::Sum;
    desc.binOp = dma::BinOp::Multiply;
    desc.elementsPerBlock = 4;                                   // E
    desc.paddedBlockBytes = 32;                                  // S
    desc.numBlocks = 3;                                          // N
    desc.indexAddr = reinterpret_cast<std::uint64_t>(indices);   // IDX
    desc.inputBase = reinterpret_cast<std::uint64_t>(features);  // IN
    desc.outputAddr = reinterpret_cast<std::uint64_t>(out);      // OUT
    desc.factorAddr = reinterpret_cast<std::uint64_t>(factors);  // FACTOR
    desc.statusAddr = reinterpret_cast<std::uint64_t>(&status);  // STATUS

    dma::DmaEngine engine;
    engine.execute(desc);
    std::printf("descriptor executed, status=%u, out = "
                "[%.3f %.3f %.3f %.3f]\n",
                status, out[0], out[1], out[2], out[3]);
    // Expected: 0.5*h0 + 0.25*h2 + 0.125*h3.

    // --- Part 2: Algorithm 5 on a whole graph ---
    RmatParams params;
    params.scale = 12;
    params.avgDegree = 16.0;
    CsrGraph graph = generateRmat(params);
    AggregationSpec spec = gcnSpec(graph);
    DenseMatrix h(graph.numVertices(), 256);
    h.fillUniform(-1.0f, 1.0f, 1);
    DenseMatrix weights(256, 256);
    weights.fillUniform(-0.1f, 0.1f, 2);
    std::vector<Feature> bias(256, 0.0f);
    const UpdateOp update{&weights, bias, true};

    DenseMatrix aggSw(graph.numVertices(), 256);
    DenseMatrix outSw(graph.numVertices(), 256);
    fusedLayer(graph, h, spec, update, outSw, {&aggSw});

    DenseMatrix aggHw(graph.numVertices(), 256);
    DenseMatrix outHw(graph.numVertices(), 256);
    auto counters = dma::pipelinedDmaLayer(graph, h, spec, update,
                                           aggHw, outHw);
    std::printf("pipelined DMA layer: %llu descriptors issued "
                "(%llu blocks gathered), max |diff| vs software = "
                "%.2e\n",
                static_cast<unsigned long long>(counters.descriptors),
                static_cast<unsigned long long>(
                    counters.blocksGathered),
                outSw.maxAbsDiff(outHw));

    // --- Part 3: what the engine buys, on the timing model ---
    auto simulate = [&](sim::LayerImpl impl) {
        sim::Machine machine(sim::paperMachine(16));
        sim::LayerWorkload w;
        w.graph = &graph;
        w.fIn = 256;
        w.fOut = 256;
        w.impl = impl;
        w.writeAgg = false;
        return sim::simulateLayer(machine, w).makespan;
    };
    const Cycles fused = simulate(sim::LayerImpl::Fused);
    const Cycles dmaFused = simulate(sim::LayerImpl::DmaFused);
    std::printf("simulated 28-core layer: software fusion %llu cycles, "
                "fusion+DMA %llu cycles (%.2fx)\n",
                static_cast<unsigned long long>(fused),
                static_cast<unsigned long long>(dmaFused),
                static_cast<double>(fused) / dmaFused);
    return outSw.maxAbsDiff(outHw) < 1e-4 ? 0 : 1;
}
