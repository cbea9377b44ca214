/**
 * @file
 * GAT attention through the Graphite machinery: the attention
 * coefficients a GAT layer computes are exactly the ψ factors of the
 * paper's aggregation formalism, so the same AVX-512 aggregation
 * kernel — and the DMA engine, via its FACTOR descriptor field
 * (Figure 8) — executes an attention layer unchanged.
 *
 *   $ ./gat_attention
 */

#include <cstdio>

#include "common/timer.h"
#include "dma/pipelined_runner.h"
#include "gnn/gat_layer.h"
#include "graph/generators.h"

using namespace graphite;

int
main()
{
    RmatParams params;
    params.scale = 13;
    params.avgDegree = 14.0;
    CsrGraph graph = generateRmat(params);
    std::printf("graph: %u vertices, %llu edges\n", graph.numVertices(),
                static_cast<unsigned long long>(graph.numEdges()));

    GatLayer layer(64, 64);
    layer.initWeights(7);
    DenseMatrix h(graph.numVertices(), 64);
    h.fillUniform(-1.0f, 1.0f, 8);

    // Step 1: shared projection z = h W.
    DenseMatrix z = layer.project(h);

    // Step 2: attention coefficients as an AggregationSpec. Each
    // vertex's factors (self + neighbors) form a softmax distribution.
    Timer attnTimer;
    AggregationSpec attention = layer.attentionSpec(graph, z);
    std::printf("attention computed in %.3fs: e.g. vertex 0 keeps "
                "%.3f of itself across %llu neighbors\n",
                attnTimer.seconds(), attention.selfFactors[0],
                static_cast<unsigned long long>(graph.degree(0)));

    // Step 3a: aggregate with the standard AVX-512 kernel.
    DenseMatrix viaCore(graph.numVertices(), 64);
    aggregate(graph, z, viaCore, attention);

    // Step 3b: the identical math through the DMA engine — the host
    // supplies the data-dependent factors via the descriptor's FACTOR
    // array, the engine applies them while gathering (Section 5.2).
    DenseMatrix viaDma(graph.numVertices(), 64);
    dma::dmaAggregate(graph, z, attention, viaDma);
    std::printf("core vs DMA attention aggregation: max |diff| = "
                "%.2e\n",
                viaCore.maxAbsDiff(viaDma));

    // Full layer (adds the ELU activation).
    DenseMatrix out = layer.forward(graph, h);
    std::printf("GAT layer output: %zu x %zu\n", out.rows(), out.cols());
    return viaCore.maxAbsDiff(viaDma) < 1e-4 ? 0 : 1;
}
