#include "tensor/tensor.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/rng.hpp"

namespace rog {
namespace tensor {

Tensor::Tensor(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0f)
{
    ROG_ASSERT(rows > 0 && cols > 0, "tensor dims must be positive");
}

float &
Tensor::at(std::size_t r, std::size_t c)
{
    ROG_ASSERT(r < rows_ && c < cols_, "tensor index out of range");
    return data_[r * cols_ + c];
}

float
Tensor::at(std::size_t r, std::size_t c) const
{
    ROG_ASSERT(r < rows_ && c < cols_, "tensor index out of range");
    return data_[r * cols_ + c];
}

std::span<float>
Tensor::row(std::size_t r)
{
    ROG_ASSERT(r < rows_, "row index out of range");
    return {data_.data() + r * cols_, cols_};
}

std::span<const float>
Tensor::row(std::size_t r) const
{
    ROG_ASSERT(r < rows_, "row index out of range");
    return {data_.data() + r * cols_, cols_};
}

void
Tensor::fill(float value)
{
    std::fill(data_.begin(), data_.end(), value);
}

bool
Tensor::sameShape(const Tensor &o) const
{
    return rows_ == o.rows_ && cols_ == o.cols_;
}

void
Tensor::randomNormal(Rng &rng, float stddev)
{
    for (auto &v : data_)
        v = static_cast<float>(rng.gaussian(0.0, stddev));
}

void
Tensor::randomUniform(Rng &rng, float bound)
{
    for (auto &v : data_)
        v = static_cast<float>(rng.uniform(-bound, bound));
}

} // namespace tensor
} // namespace rog
