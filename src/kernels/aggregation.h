/**
 * @file
 * Parallel vectorised aggregation — paper Algorithm 1.
 *
 * Each vertex v gathers the feature vectors of N(v) ∪ {v}, applies the
 * feature-processing function ψ (realised as a per-edge multiplicative
 * factor, which covers both GCN's symmetric normalisation and
 * GraphSAGE-mean's averaging — see Table 2), and reduces element-wise.
 * Output parallelism over vertex chunks needs no synchronisation; chunks
 * are scheduled dynamically to absorb power-law degree skew. The kernel
 * software-prefetches the first two cache lines of feature vectors a
 * fixed distance ahead (kernels/engine.h holds the constants), and the
 * inner loop is specialised per feature length the way the paper's
 * JIT-assembled kernels are.
 */

#pragma once

#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "compress/compressed_matrix.h"
#include "graph/csr_graph.h"
#include "graph/partition/partition_plan.h"
#include "graph/reorder.h"
#include "tensor/bf16_matrix.h"
#include "tensor/dense_matrix.h"

namespace graphite {

/**
 * The element-wise reduction operator ⊕ of Algorithm 1. Sum covers GCN
 * and GraphSAGE-mean (Table 2); Max covers pooling-style aggregators.
 * Both initialise the accumulator with the (ψ-processed) self term and
 * fold neighbors in, so no explicit identity element is needed.
 */
enum class ReduceOp : std::uint8_t
{
    Sum,
    Max,
};

/**
 * The feature-processing function ψ as multiplicative factors: one per
 * edge (aligned with the CSR colIdx array) and one per vertex for the
 * self term, plus the reduction operator.
 */
struct AggregationSpec
{
    /** Per-edge factor, or empty for 1.0. */
    std::vector<Feature> edgeFactors;
    /** Per-vertex self-term factor, or empty for 1.0. */
    std::vector<Feature> selfFactors;
    /** Element-wise reduction combining the processed inputs. */
    ReduceOp reduce = ReduceOp::Sum;

    Feature
    edgeFactor(EdgeId e) const
    {
        return edgeFactors.empty() ? 1.0f : edgeFactors[e];
    }

    Feature
    selfFactor(VertexId v) const
    {
        return selfFactors.empty() ? 1.0f : selfFactors[v];
    }
};

/**
 * GCN symmetric normalisation (Table 2): factor(v,u) = 1/sqrt(Dv'·Du')
 * with D' = degree + 1 (the +1 accounts for the self edge).
 */
AggregationSpec gcnSpec(const CsrGraph &graph);

/** GraphSAGE-mean (Table 2): every term weighted by 1/(Dv + 1). */
AggregationSpec sageSpec(const CsrGraph &graph);

/**
 * GIN (Graph Isomorphism Network) aggregation: sum of neighbors plus a
 * (1 + ε)-weighted self term — the maximally-expressive sum aggregator.
 * Fits the ψ formalism with unit edge factors and a constant self
 * factor.
 */
AggregationSpec ginSpec(const CsrGraph &graph, Feature epsilon = 0.0f);

/**
 * Kernel-entry precondition on a spec's factor arrays: a non-empty
 * edge-factor array must have exactly |E| entries (aligned with colIdx)
 * and a non-empty self-factor array exactly |V| — a silently short array
 * would index out of bounds inside the gather loop.
 *
 * @return nullptr when consistent, else a static message.
 */
const char *validateSpec(const AggregationSpec &spec, const CsrGraph &graph);

/** Unweighted sum aggregation (all factors 1). */
AggregationSpec sumSpec();

/** Unweighted element-wise max over N(v) ∪ {v} (pooling aggregator). */
AggregationSpec maxSpec();

/**
 * The feature rows a kernel gathers, in one of their stored forms: fp32
 * rows, bf16 rows widened to fp32 in registers (half the traffic at
 * reduced precision, see tensor/bf16_matrix.h), or mask-compressed rows
 * expanded on the fly (Section 4.3; sum reduction only). Built
 * implicitly from any of the three matrices. A kernel entry switches on
 * the form once per call, so every form runs its own compiled
 * per-vertex loop; accumulation is fp32 throughout.
 */
struct FeatureRows
{
    FeatureRows(const DenseMatrix &in) : matrix(&in) {}
    FeatureRows(const Bf16Matrix &in) : matrix(&in) {}
    FeatureRows(const CompressedMatrix &in) : matrix(&in) {}

    std::variant<const DenseMatrix *, const Bf16Matrix *,
                 const CompressedMatrix *>
        matrix;
};

/**
 * The order a kernel visits vertices in and how that order is cut into
 * thread-pool tasks.
 *
 *  - **Flat** (implicit from an order): @p order, or identity when
 *    empty, in dynamically scheduled chunks of the kernel's task size.
 *  - **Sharded** (Schedule::sharded): a PartitionPlan's shard-major
 *    order, with tasks that never span a shard boundary, so while a
 *    shard is in flight its slice of the feature matrix stays
 *    cache-resident. Every vertex still aggregates from the global CSR
 *    with the same per-vertex code, so results are bit-identical to
 *    flat for any shard count; the win is locality, not gathered bytes.
 *  - **Delayed halo** (sharded, aggregation only; DistGNN-style): each
 *    shard first folds its self + intra-shard terms from the local
 *    CSR, then gathers every halo row exactly once into a shard-local
 *    replica and folds the cut-edge terms from it. Cross-shard hub rows
 *    are pulled once per shard instead of once per cut edge, so
 *    gathered bytes drop; the changed summation order makes Sum results
 *    fp-tolerant rather than bit-equal (Max stays exact).
 *
 * Sharded tasks run under "partition.shard" trace spans and also feed
 * partition.bytes_gathered (delayed halo: partition.halo_bytes too).
 */
struct Schedule
{
    Schedule() = default;
    Schedule(std::span<const VertexId> visit) : order(visit) {}
    Schedule(const ProcessingOrder &visit) : order(visit) {}

    static Schedule
    sharded(const PartitionPlan &partition, bool delayed = false)
    {
        Schedule schedule;
        schedule.plan = &partition;
        schedule.delayedHalo = delayed;
        return schedule;
    }

    /** Flat processing order (Section 4.4), or empty for identity. */
    std::span<const VertexId> order;
    /** Shard-major execution over this plan when non-null. */
    const PartitionPlan *plan = nullptr;
    /** Two-phase replica mode (needs a plan; aggregation only). */
    bool delayedHalo = false;
};

/**
 * Algorithm 1: out[v, :] = selfFactor(v)·in[v, :] +
 * Σ_{u ∈ N(v)} edgeFactor(v,u)·in[u, :] for every vertex, gathering
 * from @p in's stored form in @p schedule's order. Feeds
 * agg.bytes_gathered (rows gathered × stored row bytes) and agg.flops.
 */
void aggregate(const CsrGraph &graph, FeatureRows in, DenseMatrix &out,
               const AggregationSpec &spec, const Schedule &schedule = {});

/** aggregate() over fp32 rows in a flat order (the `basic` kernel). */
void aggregateBasic(const CsrGraph &graph, const DenseMatrix &in,
                    DenseMatrix &out, const AggregationSpec &spec,
                    std::span<const VertexId> order = {});

/**
 * Serial single-vertex aggregation from fp32 rows into @p dst
 * (rowStride-padded): the AGGREGATE building block of the engine's
 * fp32 row source, also used by the mini-batch trainer.
 */
void aggregateVertex(const CsrGraph &graph, const DenseMatrix &in,
                     VertexId v, const AggregationSpec &spec, Feature *dst);

/** Reference scalar implementation used as the test oracle. */
void aggregateReference(const CsrGraph &graph, const DenseMatrix &in,
                        DenseMatrix &out, const AggregationSpec &spec);

/**
 * Push-style transposed aggregation (scatter form), serial:
 * out[u, :] = selfFactor(u)·in[u, :] + Σ_{v : u ∈ N(v)}
 * edgeFactor(v,u)·in[v, :] — i.e. out = Aggᵀ(in) computed by walking
 * the *forward* CSR and scattering each source row to its
 * destinations. This is the natural consumer of a source-blocked input
 * (the backward fusion direction, GEMM→aggregate), but scatter needs
 * write synchronisation to parallelise on a CPU, so the production
 * fused backward commutes the GEMM past the aggregation and stays
 * pull-based instead (see kernels/fused_layer.h); this entry is the
 * oracle the fused path is validated against. Sum reduction only — the
 * backward of a linear aggregation is linear.
 */
void aggregateTransposedPush(const CsrGraph &graph, const DenseMatrix &in,
                             DenseMatrix &out, const AggregationSpec &spec);

} // namespace graphite
