/**
 * @file
 * Feature-compression walkthrough (paper Section 4.3): sparsify a
 * feature matrix the way ReLU/dropout do, compress it with the
 * mask-based scheme, and account for the DRAM traffic an aggregation
 * pass would save at each sparsity level.
 *
 *   $ ./compress_inspect
 */

#include <cstdio>

#include "compress/compressed_matrix.h"
#include "graph/generators.h"
#include "kernels/aggregation.h"

using namespace graphite;

int
main()
{
    RmatParams params;
    params.scale = 12;
    params.avgDegree = 16.0;
    CsrGraph graph = generateRmat(params);
    AggregationSpec spec = sageSpec(graph);

    std::printf("mask-based compression uses %s\n",
                compressionUsesAvx512()
                    ? "the AVX-512 vcompressps/vexpandps fast path"
                    : "the portable scalar path");
    std::printf("%-10s %14s %14s %10s %12s\n", "sparsity",
                "dense bytes", "packed bytes", "saving",
                "agg max|diff|");

    for (double sparsity : {0.1, 0.3, 0.5, 0.7, 0.9}) {
        DenseMatrix h(graph.numVertices(), 256);
        h.fillUniform(0.1f, 2.0f, 11);
        h.sparsify(sparsity, 12);

        CompressedMatrix packed(graph.numVertices(), 256);
        packed.compressFrom(h);

        // Compression must be lossless end to end: aggregate from the
        // packed form and compare against the dense kernel.
        DenseMatrix fromDense(graph.numVertices(), 256);
        DenseMatrix fromPacked(graph.numVertices(), 256);
        aggregate(graph, h, fromDense, spec);
        aggregate(graph, packed, fromPacked, spec);

        const double dense =
            static_cast<double>(packed.denseTrafficBytes());
        const double compressed =
            static_cast<double>(packed.compressedTrafficBytes());
        std::printf("%-10.0f%% %13.1fMB %13.1fMB %9.1f%% %12.2e\n",
                    sparsity * 100, dense / 1e6, compressed / 1e6,
                    (1.0 - compressed / dense) * 100.0,
                    fromDense.maxAbsDiff(fromPacked));
    }
    std::printf("\nthe mask costs 1 bit per element (3.125%% of fp32 "
                "data), so 50%% sparsity saves ~46.9%% of traffic "
                "(paper Section 4.3)\n");
    return 0;
}
