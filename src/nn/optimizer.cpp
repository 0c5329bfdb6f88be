#include "nn/optimizer.hpp"

#include "common/logging.hpp"

namespace rog {
namespace nn {

SgdMomentum::SgdMomentum(Model &model, const OptimizerConfig &cfg)
    : cfg_(cfg)
{
    ROG_ASSERT(cfg.learning_rate > 0.0f, "learning rate must be positive");
    ROG_ASSERT(cfg.momentum >= 0.0f && cfg.momentum < 1.0f,
               "momentum must be in [0, 1)");
    for (Parameter *p : model.parameters()) {
        for (std::size_t r = 0; r < p->value.rows(); ++r) {
            row_values_.push_back(p->value.row(r));
            row_grads_.push_back(p->grad.row(r));
            momentum_.emplace_back(p->value.cols(), 0.0f);
        }
    }
}

std::span<float>
SgdMomentum::rowGrad(std::size_t row)
{
    ROG_ASSERT(row < row_grads_.size(), "row out of range");
    return row_grads_[row];
}

void
SgdMomentum::applyRow(std::size_t row, std::span<const float> g)
{
    applyRowRange(row, 0, g);
}

void
SgdMomentum::applyRowRange(std::size_t row, std::size_t col_begin,
                           std::span<const float> g)
{
    ROG_ASSERT(row < row_values_.size(), "row out of range");
    ROG_ASSERT(col_begin + g.size() <= row_values_[row].size(),
               "gradient row range out of bounds");
    auto w = row_values_[row];
    auto &v = momentum_[row];
    const float lr = cfg_.learning_rate;
    const float mu = cfg_.momentum;
    for (std::size_t j = 0; j < g.size(); ++j) {
        const std::size_t c = col_begin + j;
        v[c] = mu * v[c] + g[j];
        w[c] -= lr * v[c];
    }
}

} // namespace nn
} // namespace rog
