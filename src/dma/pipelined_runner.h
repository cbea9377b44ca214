/**
 * @file
 * Functional implementation of Algorithm 5: the pipelined fused
 * DMA-aggregation + core update. Each thread drives its own DMA engine
 * with ping-pong batches of B descriptors: while batch Q aggregates on
 * the engine, the core updates the vertices of the previously completed
 * batch Q'. Feature vectors wider than the engine's output buffer are
 * split across multiple descriptors (Section 5.2).
 *
 * The self term of N(v) ∪ {v} is realised host-side: the runner stages
 * per-descriptor index/factor arrays of [v, neighbors...] with
 * [selfFactor, edgeFactors...], matching the paper's contract that the
 * host software prepares the ψ factors.
 */

#pragma once

#include <span>

#include "dma/dma_engine.h"
#include "kernels/aggregation.h"
#include "kernels/fused_layer.h"
#include "tensor/dense_matrix.h"

namespace graphite::dma {

/** Counters aggregated over all threads' engines after a run. */
struct PipelineCounters
{
    std::uint64_t descriptors = 0;
    std::uint64_t splitDescriptors = 0;
    std::uint64_t blocksGathered = 0;
};

/**
 * Fused DMA-aggregation + update over the whole graph (training shape:
 * a^k is materialised in @p aggOut for back-propagation).
 *
 * @return counters from the per-thread engines.
 */
PipelineCounters pipelinedDmaLayer(const CsrGraph &graph,
                                   const DenseMatrix &in,
                                   const AggregationSpec &spec,
                                   const UpdateOp &update,
                                   DenseMatrix &aggOut, DenseMatrix &out,
                                   std::span<const VertexId> order = {},
                                   const EngineConfig &engine = {});

/**
 * DMA aggregation only (no update): out[v] = aggregation of v. Used by
 * the aggregation-only experiments (Table 5) and by differential tests.
 */
PipelineCounters dmaAggregate(const CsrGraph &graph, const DenseMatrix &in,
                              const AggregationSpec &spec, DenseMatrix &out,
                              std::span<const VertexId> order = {},
                              const EngineConfig &engine = {});

} // namespace graphite::dma
