/**
 * @file
 * Per-row SGD-momentum optimizer.
 *
 * The paper's implementation uses the block-wise distributed
 * SGD-momentum of [22] integrated with the staleness-tolerant momentum
 * scheme of [46]: momentum is kept *per row block* and updates may
 * arrive for any subset of rows in any iteration. SgdMomentum mirrors
 * that: applyRow() consumes one averaged-gradient row at a time, which
 * is exactly what PullAveragedGradients() delivers (Algo 1, line 13-17).
 */
#ifndef ROG_NN_OPTIMIZER_HPP
#define ROG_NN_OPTIMIZER_HPP

#include <span>
#include <vector>

#include "nn/model.hpp"

namespace rog {
namespace nn {

/** Hyperparameters for SgdMomentum. */
struct OptimizerConfig
{
    float learning_rate = 0.05f;
    float momentum = 0.9f;
};

/**
 * Block-wise SGD with momentum over a model's row-partitioned
 * parameters. Row indices are global: rows of all parameter matrices
 * concatenated in parameters() order.
 */
class SgdMomentum
{
  public:
    /** Bind to a model; momentum buffers match the row partition. */
    SgdMomentum(Model &model, const OptimizerConfig &cfg);

    /** Number of global rows managed. */
    std::size_t rowCount() const { return row_values_.size(); }

    /** Mutable view of the gradient accumulator of global row @p row. */
    std::span<float> rowGrad(std::size_t row);

    /**
     * Apply one averaged-gradient row: v = mu*v + g; w -= lr*v.
     * @pre g.size() is the width of @p row
     */
    void applyRow(std::size_t row, std::span<const float> g);

    /**
     * Apply a partial row starting at @p col_begin (used by the
     * element-granularity ablation where a unit is narrower than a
     * row). @pre col_begin + g.size() <= the width of @p row
     */
    void applyRowRange(std::size_t row, std::size_t col_begin,
                       std::span<const float> g);

    const OptimizerConfig &config() const { return cfg_; }

    /** Change the learning rate (e.g. for decay schedules). */
    void setLearningRate(float lr) { cfg_.learning_rate = lr; }

  private:
    OptimizerConfig cfg_;
    std::vector<std::span<float>> row_values_;
    std::vector<std::span<float>> row_grads_;
    std::vector<std::vector<float>> momentum_;
};

} // namespace nn
} // namespace rog

#endif // ROG_NN_OPTIMIZER_HPP
