/**
 * @file
 * Element-wise and row-wise tensor operators used by the update phase:
 * bias add, ReLU forward/backward, the serial block finisher, dropout,
 * and the softmax cross-entropy loss head used by the training
 * examples.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "tensor/dense_matrix.h"

namespace graphite {

/**
 * The update's block finisher, serial on the calling thread: apply
 * @p bias (skipped when empty; callers check its width) and ReLU to
 * @p numRows rows of @p stride floats in place, and re-zero each row's
 * padding tail (block scratch may carry stale values from an earlier,
 * wider layer, and rows are copied — and possibly compressed — at full
 * stride). The fused kernels run it per block inside their tasks;
 * GnnLayer::updateRows (the server's and MiniBatchTrainer's sampled
 * blocks) runs it after gemmBlockSerial, where it keeps them off the
 * thread pool (the server forwards concurrently from its consumer and
 * serveOne callers, and ThreadPool::runOnAll must not be entered from
 * two threads at once).
 */
inline void
finishUpdateBlock(Feature *rows, std::size_t numRows, std::size_t stride,
                  std::size_t cols, std::span<const Feature> bias, bool relu)
{
    for (std::size_t r = 0; r < numRows; ++r) {
        Feature *row = rows + r * stride;
        if (!bias.empty()) {
            #pragma omp simd
            for (std::size_t c = 0; c < cols; ++c)
                row[c] += bias[c];
        }
        if (relu) {
            #pragma omp simd
            for (std::size_t c = 0; c < cols; ++c)
                row[c] = std::max(row[c], 0.0f);
        }
        for (std::size_t c = cols; c < stride; ++c)
            row[c] = 0.0f;
    }
}

/**
 * Inverted dropout whose keep decision for element (v, c) is a pure
 * function of (seed, vertex v, column c), so any visit order, block
 * grouping or shard split drops the same elements, and no mask is
 * kept: after a ReLU, h is > 0 exactly where the element was kept and
 * its ReLU output was > 0, so reluBackward with the survivor scale is
 * the whole backward. Rate quantization: an element is dropped when
 * its 32-bit hash is below threshold = floor(rate · 2^32), so the rate
 * in effect is threshold / 2^32, at most 2^-32 below the one asked for.
 * Survivors are multiplied by scale = float(1 / (1 - rate)). The
 * default op is off.
 */
struct DropoutOp
{
    std::uint32_t threshold = 0;
    float scale = 1.0f;
    /** Mixed seed the row keys are derived from. */
    std::uint64_t key = 0;

    /** The op at @p rate, which must lie in [0, 1), for @p seed. */
    static DropoutOp at(double rate, std::uint64_t seed);

    bool on() const { return threshold != 0; }
};

/**
 * The one dropout kernel: apply @p op to the first @p cols floats of
 * @p row, the row of vertex @p vertex.
 */
inline void
dropoutRow(Feature *row, std::size_t cols, std::uint64_t vertex,
           const DropoutOp &op)
{
    const auto rowKey =
        static_cast<std::uint32_t>(splitmix64(op.key ^ vertex));
    const std::uint32_t threshold = op.threshold;
    const float scale = op.scale;
    #pragma omp simd
    for (std::size_t c = 0; c < cols; ++c) {
        // murmur3's 32-bit finalizer over the row key and the column.
        std::uint32_t h =
            rowKey ^ static_cast<std::uint32_t>(c) * 0x9e3779b9u;
        h = (h ^ (h >> 16)) * 0x85ebca6bu;
        h = (h ^ (h >> 13)) * 0xc2b2ae35u;
        h ^= h >> 16;
        row[c] = h < threshold ? 0.0f : row[c] * scale;
    }
}

/**
 * finishUpdateBlock, then @p dropout, over every row of @p x (row r is
 * vertex r) in one pooled pass: the unfused paths' update finish.
 */
void finishRows(DenseMatrix &x, std::span<const Feature> bias, bool relu,
                const DropoutOp &dropout);

/**
 * ReLU backward with the dropout backward folded in:
 * grad = activated > 0 ? grad · @p scale : 0, for @p activated the
 * post-ReLU, post-dropout output and @p scale its survivor scale.
 */
void reluBackward(const DenseMatrix &activated, DenseMatrix &grad,
                  float scale = 1.0f);

/**
 * Parallel column sum: out[c] = Σ_r x[r, c] — the bias-gradient
 * reduction db = colsum(dz). Rows are partitioned into fixed-size
 * chunks whose partial sums land in @p scratch slots indexed by chunk
 * id, then reduced serially in chunk order — so the result is
 * bit-identical regardless of how the dynamic scheduler assigned
 * chunks to threads. @p scratch is grown as needed and reused across
 * calls (allocation-free in steady state).
 */
void columnSum(const DenseMatrix &x, std::span<Feature> out,
               std::vector<Feature> &scratch);

/**
 * Softmax + cross-entropy over the rows @p mask selects (mask[r] != 0;
 * an empty mask selects every row). A mask is the train split of a
 * node-classification task: only selected rows add to the loss and get
 * a gradient, and unselected rows' gradients are zero.
 *
 * @param logits   |V| x numClasses scores.
 * @param labels   per-row class ids.
 * @param gradOut  filled with d(loss)/d(logits),
 *                 (softmax - onehot) / (selected rows).
 * @return mean loss over the selected rows (0 if none).
 */
double softmaxCrossEntropy(const DenseMatrix &logits,
                           std::span<const std::int32_t> labels,
                           DenseMatrix &gradOut,
                           std::span<const std::uint8_t> mask = {});

/**
 * Fraction of the rows @p mask selects (all for an empty mask) whose
 * argmax equals the label; 1.0 if none are selected.
 */
double accuracy(const DenseMatrix &logits,
                std::span<const std::int32_t> labels,
                std::span<const std::uint8_t> mask = {});

} // namespace graphite
