/**
 * @file
 * The Graphite technique matrix: which of the paper's software
 * optimisations a run enables. The named presets mirror the
 * configurations evaluated in Figure 11 (basic / fusion / compression /
 * combined / combined+locality) plus the baselines.
 */

#pragma once

#include <string>

#include "graph/partition/partition_plan.h"
#include "kernels/aggregation.h"
#include "kernels/fused_layer.h"

namespace graphite {

/** Software-technique switches for one execution. */
struct TechniqueConfig
{
    /** Layer fusion (Section 4.2). */
    bool fusion = false;
    /** Feature compression of hidden activations (Section 4.3). */
    bool compression = false;
    /** Temporal-locality processing order (Section 4.4, training only). */
    bool locality = false;
    /**
     * Compute precision. Bf16 stores inter-layer activations as
     * bfloat16 (halving gather traffic) and runs the update GEMMs
     * through the bf16-in/fp32-accumulate micro-kernel. When
     * compression is also on, the packed (sparsity-exploiting) form
     * wins the gather path and bf16 still applies to the GEMMs — the
     * two techniques target different traffic.
     */
    Precision precision = Precision::Fp32;
    /**
     * Cache-slice partitioning: number of shards for shard-major
     * execution. 0 or 1 disables partitioning and runs today's flat
     * kernels; K >= 2 builds a PartitionPlan and carves thread-pool
     * tasks shard by shard (exact mode is bit-identical to flat
     * execution for any K).
     */
    std::size_t shards = 0;
    /** Shard assignment strategy (degree-aware greedy vs hash). */
    PartitionStrategy partition = PartitionStrategy::Greedy;
    /**
     * Delayed cross-shard aggregation (DistGNN-style): fold intra-shard
     * terms first, then gather each halo row once per shard and fold
     * the cut edges from the replica. Cuts gathered bytes on hub-heavy
     * cuts; sum reductions become fp-tolerant instead of bit-equal.
     * Only meaningful with shards >= 2.
     */
    bool delayedHalo = false;

    /** Named presets from the paper's evaluation. @{ */
    static TechniqueConfig basic();
    static TechniqueConfig withFusion();
    static TechniqueConfig withCompression();
    static TechniqueConfig combined();
    static TechniqueConfig combinedLocality();
    /** @} */

    /** Short label used in bench output ("basic", "combined", ...). */
    std::string label() const;
};

/**
 * Which GNN model. GCN and GraphSAGE are the paper's two (Table 2);
 * GIN is an extension expressible in the same ψ/⊕ formalism.
 */
enum class GnnKind { Gcn, Sage, Gin };

/** Model name for tables ("GCN" / "GraphSAGE" / "GIN"). */
std::string gnnKindName(GnnKind kind);

/** Precision name for tables and CLI round-trips ("fp32" / "bf16"). */
const char *precisionName(Precision precision);

/**
 * Parse a --precision value ("fp32" or "bf16", case-sensitive).
 * @return false when @p text names no known precision (@p out
 *         untouched).
 */
bool parsePrecision(const std::string &text, Precision &out);

} // namespace graphite
