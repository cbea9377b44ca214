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

#include "tensor/dense_matrix.h"

namespace graphite {

/** out[r, :] += bias for every row. */
void addBias(DenseMatrix &out, std::span<const Feature> bias);

/** In-place ReLU: x = max(x, 0). The paper's activation (Table 2). */
void reluForward(DenseMatrix &x);

/**
 * The update's block finisher, serial on the calling thread: apply
 * @p bias (skipped when empty; callers check its width) and ReLU to
 * @p numRows rows of @p stride floats in place, and re-zero each row's
 * padding tail (block scratch may carry stale values from an earlier,
 * wider layer, and rows are copied — and possibly compressed — at full
 * stride). The fused kernels run it per block inside their tasks; the
 * server and MiniBatchTrainer run it after gemmBlockSerial, where it
 * keeps them off the thread pool (the server forwards concurrently from
 * its consumer and serveOne callers, and ThreadPool::runOnAll must not
 * be entered from two threads at once).
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
 * ReLU backward: grad[r, c] = 0 wherever activated[r, c] == 0.
 * @p activated is the *post*-ReLU forward output.
 */
void reluBackward(const DenseMatrix &activated, DenseMatrix &grad);

/**
 * Inverted dropout: zero each element with probability @p rate and scale
 * survivors by 1/(1-rate). Writes the survival mask (1 bit per element,
 * row-major, rowStride-padded) into @p mask for the backward pass.
 */
void dropoutForward(DenseMatrix &x, double rate, std::uint64_t seed,
                    std::vector<std::uint64_t> &mask);

/** Dropout backward: apply the saved mask and the 1/(1-rate) scale. */
void dropoutBackward(DenseMatrix &grad, double rate,
                     const std::vector<std::uint64_t> &mask);

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
 * Softmax + cross-entropy over rows.
 *
 * @param logits   |V| x numClasses scores.
 * @param labels   per-row class ids.
 * @param gradOut  filled with d(loss)/d(logits) (softmax - onehot) / |V|.
 * @return mean loss.
 */
double softmaxCrossEntropy(const DenseMatrix &logits,
                           std::span<const std::int32_t> labels,
                           DenseMatrix &gradOut);

/**
 * Masked softmax cross-entropy: only rows with mask[r] != 0 contribute
 * to the loss and receive gradient (the train-split regime of
 * node-classification benchmarks; labelled vertices are a subset).
 * Unmasked rows' gradients are zero. Normalised by the masked count.
 *
 * @return mean loss over the masked rows (0 if none are masked).
 */
double softmaxCrossEntropyMasked(const DenseMatrix &logits,
                                 std::span<const std::int32_t> labels,
                                 std::span<const std::uint8_t> mask,
                                 DenseMatrix &gradOut);

/** Fraction of rows whose argmax equals the label. */
double accuracy(const DenseMatrix &logits,
                std::span<const std::int32_t> labels);

/** Accuracy over the rows with mask[r] != 0 (1.0 if none). */
double accuracyMasked(const DenseMatrix &logits,
                      std::span<const std::int32_t> labels,
                      std::span<const std::uint8_t> mask);

} // namespace graphite
