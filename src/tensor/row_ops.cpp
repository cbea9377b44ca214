#include "tensor/row_ops.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"
#include "parallel/thread_pool.h"

namespace graphite {

DropoutOp
DropoutOp::at(double rate, std::uint64_t seed)
{
    GRAPHITE_ASSERT(rate >= 0.0 && rate < 1.0, "dropout rate out of range");
    // rate < 1, so rate · 2^32 (exact: a power-of-two scaling) < 2^32.
    return {static_cast<std::uint32_t>(rate * 4294967296.0),
            static_cast<float>(1.0 / (1.0 - rate)), splitmix64(seed)};
}

void
finishRows(DenseMatrix &x, std::span<const Feature> bias, bool relu,
           const DropoutOp &dropout)
{
    GRAPHITE_ASSERT(bias.empty() || bias.size() == x.cols(),
                    "bias width mismatch");
    parallelFor(0, x.rows(), 256,
                [&](std::size_t begin, std::size_t end, std::size_t) {
        finishUpdateBlock(x.row(begin), end - begin, x.rowStride(),
                          x.cols(), bias, relu);
        for (std::size_t r = begin; r < end && dropout.on(); ++r)
            dropoutRow(x.row(r), x.cols(), r, dropout);
    });
}

void
reluBackward(const DenseMatrix &activated, DenseMatrix &grad, float scale)
{
    GRAPHITE_ASSERT(activated.rows() == grad.rows() &&
                        activated.cols() == grad.cols(),
                    "relu backward shape mismatch");
    parallelFor(0, grad.rows(), 256,
                [&](std::size_t begin, std::size_t end, std::size_t) {
        // Locals, not the by-reference captures: a stored g[c] could
        // alias the captured scale, and that reload keeps the loop scalar.
        const float s = scale;
        const std::size_t cols = grad.cols();
        for (std::size_t r = begin; r < end; ++r) {
            const Feature *act = activated.row(r);
            Feature *g = grad.row(r);
            #pragma omp simd
            for (std::size_t c = 0; c < cols; ++c)
                g[c] = act[c] > 0.0f ? g[c] * s : 0.0f;
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

double
softmaxCrossEntropy(const DenseMatrix &logits,
                    std::span<const std::int32_t> labels,
                    DenseMatrix &gradOut, std::span<const std::uint8_t> mask)
{
    GRAPHITE_ASSERT(labels.size() == logits.rows(), "label count mismatch");
    GRAPHITE_ASSERT(mask.empty() || mask.size() == logits.rows(),
                    "mask count mismatch");
    GRAPHITE_ASSERT(gradOut.rows() == logits.rows() &&
                        gradOut.cols() == logits.cols(),
                    "grad shape mismatch");
    std::size_t selected = logits.rows();
    if (!mask.empty()) {
        // Unselected rows keep a zero gradient.
        selected = static_cast<std::size_t>(
            std::count_if(mask.begin(), mask.end(),
                          [](std::uint8_t m) { return m != 0; }));
        gradOut.zero();
    }
    if (selected == 0)
        return 0.0;
    const std::size_t classes = logits.cols();
    const double invCount = 1.0 / static_cast<double>(selected);

    // Grow-only per-thread scratch, so steady-state epochs allocate
    // nothing (test_alloc_guard.cpp): a partial loss per fixed-size row
    // chunk, reduced in chunk order as in columnSum, then a row of exp
    // values per worker, each exp taken once for the sum and for p
    // (rows 8 doubles, one cache line, apart: workers share no line).
    constexpr std::size_t kChunkRows = 256;
    const std::size_t expStride = classes + 8;
    const std::size_t numChunks = (logits.rows() + kChunkRows - 1) /
                                  kChunkRows;
    const std::size_t numThreads = ThreadPool::global().numThreads();
    thread_local std::vector<double> scratch;
    if (scratch.size() < numChunks + numThreads * expStride)
        scratch.resize(numChunks + numThreads * expStride);
    // thread_local names are not captured by [&]: inside the pool
    // workers' lambda they would resolve to each worker's own (empty)
    // instance. Hand the workers the caller's buffer via pointers.
    double *const partials = scratch.data();
    double *const expRows = partials + numChunks;
    parallelFor(0, logits.rows(), kChunkRows,
                [&](std::size_t begin, std::size_t end, std::size_t tid) {
        double *const exps = expRows + tid * expStride;
        double loss = 0.0;
        for (std::size_t r = begin; r < end; ++r) {
            if (!mask.empty() && !mask[r])
                continue;
            const Feature *in = logits.row(r);
            Feature *g = gradOut.row(r);
            Feature maxLogit = in[0];
            for (std::size_t c = 1; c < classes; ++c)
                maxLogit = std::max(maxLogit, in[c]);
            double denom = 0.0;
            for (std::size_t c = 0; c < classes; ++c) {
                exps[c] = std::exp(double{in[c]} - double{maxLogit});
                denom += exps[c];
            }
            const auto label = static_cast<std::size_t>(labels[r]);
            GRAPHITE_ASSERT(label < classes, "label out of range");
            for (std::size_t c = 0; c < classes; ++c) {
                const double p = exps[c] / denom;
                g[c] = static_cast<Feature>(
                    (p - (c == label ? 1.0 : 0.0)) * invCount);
                if (c == label)
                    loss -= std::log(std::max(p, 1e-30));
            }
        }
        partials[begin / kChunkRows] = loss; // chunk-aligned ranges
    });
    double total = 0.0;
    for (std::size_t chunk = 0; chunk < numChunks; ++chunk)
        total += partials[chunk];
    return total * invCount;
}

double
accuracy(const DenseMatrix &logits, std::span<const std::int32_t> labels,
         std::span<const std::uint8_t> mask)
{
    GRAPHITE_ASSERT(labels.size() == logits.rows(), "label count mismatch");
    GRAPHITE_ASSERT(mask.empty() || mask.size() == logits.rows(),
                    "mask count mismatch");
    std::size_t correct = 0;
    std::size_t counted = 0;
    for (std::size_t r = 0; r < logits.rows(); ++r) {
        if (!mask.empty() && !mask[r])
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
