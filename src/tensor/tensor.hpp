/**
 * @file
 * Dense row-major float tensor.
 *
 * The synchronization protocols in this library operate on *rows* of a
 * parameter matrix, so Tensor is deliberately a matrix-first design:
 * every tensor is logically (rows x cols); vectors are (1 x cols). Row
 * access returns a contiguous std::span, which is exactly the unit ROG
 * schedules, compresses, and transmits.
 */
#ifndef ROG_TENSOR_TENSOR_HPP
#define ROG_TENSOR_TENSOR_HPP

#include <cstddef>
#include <span>
#include <vector>

namespace rog {

class Rng;

namespace tensor {

/** A dense row-major matrix of float32. */
class Tensor
{
  public:
    /** An empty (0 x 0) tensor. */
    Tensor() = default;

    /** A zero-initialized (rows x cols) tensor. @pre rows, cols > 0 */
    Tensor(std::size_t rows, std::size_t cols);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    /** Element access (row-major). @pre r < rows(), c < cols() */
    float &at(std::size_t r, std::size_t c);
    float at(std::size_t r, std::size_t c) const;

    /** Flat element access. @pre i < size() */
    float &operator[](std::size_t i) { return data_[i]; }
    float operator[](std::size_t i) const { return data_[i]; }

    /** Contiguous view of one row. @pre r < rows() */
    std::span<float> row(std::size_t r);
    std::span<const float> row(std::size_t r) const;

    /** Set every element to @p value. */
    void fill(float value);

    /** Set every element to zero. */
    void zero() { fill(0.0f); }

    /** True iff shapes match. */
    bool sameShape(const Tensor &o) const;

    /** Fill with N(0, stddev) noise. */
    void randomNormal(Rng &rng, float stddev);

    /** Fill with U(-bound, bound) noise. */
    void randomUniform(Rng &rng, float bound);

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<float> data_;
};

} // namespace tensor
} // namespace rog

#endif // ROG_TENSOR_TENSOR_HPP
