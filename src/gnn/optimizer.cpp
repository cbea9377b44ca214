#include "gnn/optimizer.h"

#include <cmath>

#include "common/assert.h"
#include "parallel/thread_pool.h"

namespace graphite {

AdamOptimizer::AdamOptimizer(GnnModel &model, AdamConfig config)
    : model_(model), config_(config)
{
    state_.resize(model.numLayers());
    for (std::size_t k = 0; k < model.numLayers(); ++k) {
        const GnnLayer &layer = model.layer(k);
        state_[k].weightM =
            DenseMatrix(layer.inFeatures(), layer.outFeatures());
        state_[k].weightV =
            DenseMatrix(layer.inFeatures(), layer.outFeatures());
        state_[k].biasM.assign(layer.outFeatures(), 0.0f);
        state_[k].biasV.assign(layer.outFeatures(), 0.0f);
    }
}

void
AdamOptimizer::step()
{
    ++steps_;
    const double t = static_cast<double>(steps_);
    const float correction1 =
        1.0f / (1.0f - static_cast<float>(std::pow(config_.beta1, t)));
    const float correction2 =
        1.0f / (1.0f - static_cast<float>(std::pow(config_.beta2, t)));

    for (std::size_t k = 0; k < model_.numLayers(); ++k) {
        GnnLayer &layer = model_.layer(k);
        LayerState &state = state_[k];
        const DenseMatrix &grad = layer.weightGrad();
        const auto biasGrad = layer.biasGrad();
        layer.updateParameters([&](DenseMatrix &weights,
                                   std::span<Feature> bias) {
            parallelFor(0, weights.rows(), 32,
                        [&](std::size_t begin, std::size_t end,
                            std::size_t) {
                for (std::size_t r = begin; r < end; ++r) {
                    Feature *w = weights.row(r);
                    const Feature *g = grad.row(r);
                    Feature *m = state.weightM.row(r);
                    Feature *v = state.weightV.row(r);
                    for (std::size_t c = 0; c < weights.cols(); ++c) {
                        Feature gradient = g[c];
                        if (config_.weightDecay != 0.0f)
                            gradient += config_.weightDecay * w[c];
                        m[c] = config_.beta1 * m[c] +
                               (1.0f - config_.beta1) * gradient;
                        v[c] = config_.beta2 * v[c] +
                               (1.0f - config_.beta2) * gradient *
                                   gradient;
                        const float mHat = m[c] * correction1;
                        const float vHat = v[c] * correction2;
                        w[c] -= config_.learningRate * mHat /
                                (std::sqrt(vHat) + config_.epsilon);
                    }
                }
            });

            for (std::size_t c = 0; c < bias.size(); ++c) {
                const Feature gradient = biasGrad[c];
                state.biasM[c] = config_.beta1 * state.biasM[c] +
                                 (1.0f - config_.beta1) * gradient;
                state.biasV[c] = config_.beta2 * state.biasV[c] +
                                 (1.0f - config_.beta2) * gradient *
                                     gradient;
                const float mHat = state.biasM[c] * correction1;
                const float vHat = state.biasV[c] * correction2;
                bias[c] -= config_.learningRate * mHat /
                           (std::sqrt(vHat) + config_.epsilon);
            }
        });
    }
}

} // namespace graphite
