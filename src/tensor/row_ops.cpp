#include "tensor/row_ops.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"
#include "common/rng.h"
#include "parallel/thread_pool.h"

namespace graphite {

void
addBias(DenseMatrix &out, std::span<const Feature> bias)
{
    GRAPHITE_ASSERT(bias.size() == out.cols(), "bias width mismatch");
    parallelFor(0, out.rows(), 256,
                [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t r = begin; r < end; ++r) {
            Feature *rowData = out.row(r);
            #pragma omp simd
            for (std::size_t c = 0; c < out.cols(); ++c)
                rowData[c] += bias[c];
        }
    });
}

void
reluForward(DenseMatrix &x)
{
    parallelFor(0, x.rows(), 256,
                [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t r = begin; r < end; ++r) {
            Feature *rowData = x.row(r);
            #pragma omp simd
            for (std::size_t c = 0; c < x.cols(); ++c)
                rowData[c] = std::max(rowData[c], 0.0f);
        }
    });
}

void
reluBackward(const DenseMatrix &activated, DenseMatrix &grad)
{
    GRAPHITE_ASSERT(activated.rows() == grad.rows() &&
                        activated.cols() == grad.cols(),
                    "relu backward shape mismatch");
    parallelFor(0, grad.rows(), 256,
                [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t r = begin; r < end; ++r) {
            const Feature *act = activated.row(r);
            Feature *g = grad.row(r);
            #pragma omp simd
            for (std::size_t c = 0; c < grad.cols(); ++c)
                g[c] = act[c] > 0.0f ? g[c] : 0.0f;
        }
    });
}

void
columnSum(const DenseMatrix &x, std::span<Feature> out,
          std::vector<Feature> &scratch)
{
    GRAPHITE_ASSERT(out.size() == x.cols(), "column sum width mismatch");
    const std::size_t cols = x.cols();
    // Chunk size is a fixed constant, not derived from the thread
    // count: partials are indexed by chunk id, so the reduction order
    // (and the float rounding) is a function of the input shape alone.
    constexpr std::size_t kChunkRows = 1024;
    const std::size_t numChunks =
        x.rows() == 0 ? 0 : (x.rows() + kChunkRows - 1) / kChunkRows;
    if (scratch.size() < numChunks * cols)
        scratch.resize(numChunks * cols);
    parallelFor(0, x.rows(), kChunkRows,
                [&](std::size_t begin, std::size_t end, std::size_t) {
        // parallelFor hands out [begin, end) ranges aligned to the
        // chunk size, so begin identifies the partial-sum slot.
        Feature *partial = scratch.data() + begin / kChunkRows * cols;
        std::fill(partial, partial + cols, 0.0f);
        for (std::size_t r = begin; r < end; ++r) {
            const Feature *rowData = x.row(r);
            #pragma omp simd
            for (std::size_t c = 0; c < cols; ++c)
                partial[c] += rowData[c];
        }
    });
    std::fill(out.begin(), out.end(), 0.0f);
    for (std::size_t chunk = 0; chunk < numChunks; ++chunk) {
        const Feature *partial = scratch.data() + chunk * cols;
        #pragma omp simd
        for (std::size_t c = 0; c < cols; ++c)
            out[c] += partial[c];
    }
}

namespace {
std::size_t
maskWords(const DenseMatrix &x)
{
    return (x.rows() * x.rowStride() + 63) / 64;
}
} // namespace

void
dropoutForward(DenseMatrix &x, double rate, std::uint64_t seed,
               std::vector<std::uint64_t> &mask)
{
    GRAPHITE_ASSERT(rate >= 0.0 && rate < 1.0, "dropout rate out of range");
    mask.assign(maskWords(x), 0);
    const float scale = static_cast<float>(1.0 / (1.0 - rate));
    // Each parallel task owns a disjoint row range, hence disjoint mask
    // words as long as task boundaries are 64-element aligned; rows are
    // stride-padded to 16 floats, so use 4-row granularity at minimum.
    parallelFor(0, x.rows(), 256,
                [&](std::size_t begin, std::size_t end, std::size_t) {
        Rng rng(seed ^ (begin * 0x9e3779b97f4a7c15ull));
        for (std::size_t r = begin; r < end; ++r) {
            Feature *rowData = x.row(r);
            const std::size_t base = r * x.rowStride();
            for (std::size_t c = 0; c < x.cols(); ++c) {
                if (rng.uniform() < rate) {
                    rowData[c] = 0.0f;
                } else {
                    rowData[c] *= scale;
                    const std::size_t bit = base + c;
                    mask[bit / 64] |= std::uint64_t{1} << (bit % 64);
                }
            }
        }
    });
}

void
dropoutBackward(DenseMatrix &grad, double rate,
                const std::vector<std::uint64_t> &mask)
{
    GRAPHITE_ASSERT(mask.size() == maskWords(grad),
                    "dropout mask size mismatch");
    const float scale = static_cast<float>(1.0 / (1.0 - rate));
    parallelFor(0, grad.rows(), 256,
                [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t r = begin; r < end; ++r) {
            Feature *rowData = grad.row(r);
            const std::size_t base = r * grad.rowStride();
            for (std::size_t c = 0; c < grad.cols(); ++c) {
                const std::size_t bit = base + c;
                const bool kept =
                    (mask[bit / 64] >> (bit % 64)) & 1;
                rowData[c] = kept ? rowData[c] * scale : 0.0f;
            }
        }
    });
}

double
softmaxCrossEntropy(const DenseMatrix &logits,
                    std::span<const std::int32_t> labels,
                    DenseMatrix &gradOut)
{
    GRAPHITE_ASSERT(labels.size() == logits.rows(), "label count mismatch");
    GRAPHITE_ASSERT(gradOut.rows() == logits.rows() &&
                        gradOut.cols() == logits.cols(),
                    "grad shape mismatch");
    const std::size_t rows = logits.rows();
    const std::size_t classes = logits.cols();
    const double invRows = 1.0 / static_cast<double>(rows);

    // Grow-only per-thread scratch: the loss runs once per epoch from
    // the training loop, and reusing the reduction buffer keeps the
    // steady-state epoch allocation-free (test_alloc_guard.cpp).
    thread_local std::vector<double> partialLoss;
    partialLoss.assign(ThreadPool::global().numThreads(), 0.0);
    // thread_local names are not captured by [&]: inside the pool
    // workers' lambda they would resolve to each worker's own (empty)
    // instance. Hand the workers the caller's buffer via a pointer.
    double *const partials = partialLoss.data();
    parallelFor(0, rows, 256,
                [&](std::size_t begin, std::size_t end, std::size_t tid) {
        double loss = 0.0;
        for (std::size_t r = begin; r < end; ++r) {
            const Feature *in = logits.row(r);
            Feature *g = gradOut.row(r);
            Feature maxLogit = in[0];
            for (std::size_t c = 1; c < classes; ++c)
                maxLogit = std::max(maxLogit, in[c]);
            double denom = 0.0;
            for (std::size_t c = 0; c < classes; ++c)
                denom += std::exp(double{in[c]} - double{maxLogit});
            const auto label = static_cast<std::size_t>(labels[r]);
            GRAPHITE_ASSERT(label < classes, "label out of range");
            for (std::size_t c = 0; c < classes; ++c) {
                const double p =
                    std::exp(double{in[c]} - double{maxLogit}) / denom;
                g[c] = static_cast<Feature>(
                    (p - (c == label ? 1.0 : 0.0)) * invRows);
                if (c == label)
                    loss -= std::log(std::max(p, 1e-30));
            }
        }
        partials[tid] += loss;
    });
    double total = 0.0;
    for (double part : partialLoss)
        total += part;
    return total * invRows;
}

double
softmaxCrossEntropyMasked(const DenseMatrix &logits,
                          std::span<const std::int32_t> labels,
                          std::span<const std::uint8_t> mask,
                          DenseMatrix &gradOut)
{
    GRAPHITE_ASSERT(labels.size() == logits.rows(), "label count mismatch");
    GRAPHITE_ASSERT(mask.size() == logits.rows(), "mask count mismatch");
    GRAPHITE_ASSERT(gradOut.rows() == logits.rows() &&
                        gradOut.cols() == logits.cols(),
                    "grad shape mismatch");
    std::size_t masked = 0;
    for (std::uint8_t m : mask)
        masked += m != 0;
    gradOut.zero();
    if (masked == 0)
        return 0.0;
    const std::size_t classes = logits.cols();
    const double invCount = 1.0 / static_cast<double>(masked);

    // Same reused reduction scratch (and thread_local capture caveat)
    // as the unmasked variant above.
    thread_local std::vector<double> partialLoss;
    partialLoss.assign(ThreadPool::global().numThreads(), 0.0);
    double *const partials = partialLoss.data();
    parallelFor(0, logits.rows(), 256,
                [&](std::size_t begin, std::size_t end, std::size_t tid) {
        double loss = 0.0;
        for (std::size_t r = begin; r < end; ++r) {
            if (!mask[r])
                continue;
            const Feature *in = logits.row(r);
            Feature *g = gradOut.row(r);
            Feature maxLogit = in[0];
            for (std::size_t c = 1; c < classes; ++c)
                maxLogit = std::max(maxLogit, in[c]);
            double denom = 0.0;
            for (std::size_t c = 0; c < classes; ++c)
                denom += std::exp(double{in[c]} - double{maxLogit});
            const auto label = static_cast<std::size_t>(labels[r]);
            GRAPHITE_ASSERT(label < classes, "label out of range");
            for (std::size_t c = 0; c < classes; ++c) {
                const double p =
                    std::exp(double{in[c]} - double{maxLogit}) / denom;
                g[c] = static_cast<Feature>(
                    (p - (c == label ? 1.0 : 0.0)) * invCount);
                if (c == label)
                    loss -= std::log(std::max(p, 1e-30));
            }
        }
        partials[tid] += loss;
    });
    double total = 0.0;
    for (double part : partialLoss)
        total += part;
    return total * invCount;
}

double
accuracy(const DenseMatrix &logits, std::span<const std::int32_t> labels)
{
    GRAPHITE_ASSERT(labels.size() == logits.rows(), "label count mismatch");
    std::size_t correct = 0;
    for (std::size_t r = 0; r < logits.rows(); ++r) {
        const Feature *row = logits.row(r);
        std::size_t best = 0;
        for (std::size_t c = 1; c < logits.cols(); ++c) {
            if (row[c] > row[best])
                best = c;
        }
        correct += best == static_cast<std::size_t>(labels[r]);
    }
    return static_cast<double>(correct) /
           static_cast<double>(logits.rows());
}

double
accuracyMasked(const DenseMatrix &logits,
               std::span<const std::int32_t> labels,
               std::span<const std::uint8_t> mask)
{
    GRAPHITE_ASSERT(labels.size() == logits.rows(), "label count mismatch");
    GRAPHITE_ASSERT(mask.size() == logits.rows(), "mask count mismatch");
    std::size_t correct = 0;
    std::size_t counted = 0;
    for (std::size_t r = 0; r < logits.rows(); ++r) {
        if (!mask[r])
            continue;
        ++counted;
        const Feature *row = logits.row(r);
        std::size_t best = 0;
        for (std::size_t c = 1; c < logits.cols(); ++c) {
            if (row[c] > row[best])
                best = c;
        }
        correct += best == static_cast<std::size_t>(labels[r]);
    }
    return counted ? static_cast<double>(correct) /
                         static_cast<double>(counted)
                   : 1.0;
}

} // namespace graphite
