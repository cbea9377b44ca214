/**
 * @file
 * Trace generators that mirror each GNN kernel variant's memory-access
 * and compute structure for the timing simulator.
 *
 * Each generator reproduces, per core, the exact stream shape of the
 * corresponding native kernel: which lines are loaded/stored in which
 * order, where software prefetches go, how work is scheduled across
 * cores (shared dynamic chunk cursor, like OpenMP-dynamic), and how many
 * compute cycles each unit of work costs under a simple per-line /
 * MACs-per-cycle cost model.
 */

#pragma once

#include <memory>

#include "graph/csr_graph.h"
#include "graph/reorder.h"
#include "kernels/engine.h"
#include "sim/machine.h"

namespace graphite::sim {

/** Which layer implementation a simulated phase models. */
enum class LayerImpl {
    DistGnn,  ///< baseline: unfused, dynamic, no prefetch
    Mkl,      ///< SpMM+GEMM baseline: unfused, generic-kernel overhead
    Basic,    ///< Algorithm 1 + unfused GEMM update
    Fused,    ///< Algorithm 2
    DmaFused, ///< Algorithm 5 (DMA aggregation + core update)
};

/** One simulated GNN layer phase description. */
struct LayerWorkload
{
    const CsrGraph *graph = nullptr;
    /** Processing order, or null for identity (Section 4.4). */
    const ProcessingOrder *order = nullptr;
    std::size_t fIn = 256;
    std::size_t fOut = 256;
    LayerImpl impl = LayerImpl::Basic;

    /** Read input features in mask-compressed form (Section 4.3). */
    bool compressedIn = false;
    /** Write output features in mask-compressed form. */
    bool compressedOut = false;
    /** Sparsity assumed for compressed rows (uniform model). */
    double sparsity = 0.5;
    /** Materialise a^k to memory (training needs it; fused inference
     *  does not — Figure 5c). */
    bool writeAgg = true;
    /** Run the update phase (false = aggregation-only experiments). */
    bool doUpdate = true;
    /**
     * Which of the two ping-pong feature regions this layer reads
     * (0 or 1); it writes the other. Chained layers alternate so layer
     * k+1 reads the lines layer k wrote, keeping caches warm the way
     * back-to-back real layers do.
     */
    unsigned addrParity = 0;

    /**
     * Kernel shape knobs (Algorithms 1/2 constants), defaulting to the
     * engine's (kernels/engine.h); the ablation benches override them.
     * @{
     */
    std::size_t taskSize = kAggTaskVertices;
    std::size_t blockSize = kFusedBlockSize;
    std::size_t blocksPerTask = kFusedBlocksPerTask;
    std::size_t prefetchDistance = kPrefetchDistance;
    std::size_t prefetchLines = kPrefetchLines;
    /** @} */

    /** Cost model: aggregation cycles per gathered cache line. */
    double computePerLine = 2.0;
    /** Cost model: update MACs retired per cycle (2 x 16-lane FMA at
     *  ~45% sustained efficiency for the small blocked GEMMs). */
    double macsPerCycle = 14.0;
};

/** Cache lines of one feature row of @p f floats (line-aligned rows). */
std::size_t featureRowLines(std::size_t f);

/** Cache lines of one compressed feature row at @p sparsity. */
std::size_t compressedRowLines(std::size_t f, double sparsity);

/**
 * Simulate one layer phase (or aggregation-only when !doUpdate) on
 * @p machine. Unfused implementations run aggregation and update as two
 * separate machine phases and return the summed result; stats are summed
 * too. Cache contents persist across the internal phases (and across
 * calls, mirroring back-to-back layers).
 */
RunResult simulateLayer(Machine &machine, const LayerWorkload &workload,
                        const DmaParams &dmaParams = {});

/** Composite results for whole-network experiments. */
struct CompositeResult
{
    Cycles totalCycles = 0;
    RunResult aggregate;

    /** Accumulate a phase into the composite. */
    void add(const RunResult &phase);
};

/**
 * GNN layer-stack descriptions used by the figure benches: the paper's
 * two-hidden-layer setup with F_hidden = 256.
 */
struct NetworkWorkload
{
    const CsrGraph *graph = nullptr;
    const ProcessingOrder *order = nullptr;
    /** Processing order for the backward (transposed) aggregations. */
    const ProcessingOrder *transposedOrder = nullptr;
    std::size_t fInput = 256;
    std::size_t fHidden = 256;
    std::size_t numLayers = 2;
    LayerImpl impl = LayerImpl::Basic;
    bool compression = false;
    double sparsity = 0.5;
    DmaParams dma;
    /** Apply the locality order (order must then be non-null). */
    bool locality = false;
};

/** Simulate full-network inference (Figure 11a / 12a measurements). */
CompositeResult simulateInference(Machine &machine,
                                  const NetworkWorkload &net);

/**
 * Simulate one full-batch training iteration: forward (keeping a^k)
 * plus backward (transposed aggregation of feature gradients + the
 * extra GEMM, Section 7.1.1).
 */
CompositeResult simulateTraining(Machine &machine,
                                 const NetworkWorkload &net,
                                 const CsrGraph &transposedGraph);

} // namespace graphite::sim
