/**
 * @file
 * Tensor operations used by the neural-network substrate.
 *
 * Free functions over Tensor (and raw spans for per-row work). All
 * shapes are checked with ROG_ASSERT; shape errors are library bugs at
 * call sites, not user errors.
 */
#ifndef ROG_TENSOR_OPS_HPP
#define ROG_TENSOR_OPS_HPP

#include <cstddef>
#include <span>

#include "tensor/tensor.hpp"

namespace rog {
namespace tensor {

/** out = a @ b. Shapes: (m x k) @ (k x n) -> (m x n). */
void matmul(const Tensor &a, const Tensor &b, Tensor &out);

/** out = a^T @ b. Shapes: (k x m)^T @ (k x n) -> (m x n). */
void matmulTransA(const Tensor &a, const Tensor &b, Tensor &out);

/** out = a @ b^T. Shapes: (m x k) @ (n x k)^T -> (m x n). */
void matmulTransB(const Tensor &a, const Tensor &b, Tensor &out);

/** y += alpha * x (elementwise). @pre same shape */
void axpy(float alpha, const Tensor &x, Tensor &y);

/** y = x (elementwise copy). @pre same shape */
void copy(const Tensor &x, Tensor &y);

/** x *= alpha. */
void scale(Tensor &x, float alpha);

/** Add row-vector bias (1 x n) to every row of x (m x n). */
void addRowBias(Tensor &x, const Tensor &bias);

/** out = relu(x). @pre same shape */
void relu(const Tensor &x, Tensor &out);

/** din = dout where x > 0 else 0. @pre same shapes */
void reluBackward(const Tensor &x, const Tensor &dout, Tensor &din);

/** out = tanh(x). @pre same shape */
void tanhForward(const Tensor &x, Tensor &out);

/** din = dout * (1 - out^2), out being tanh(x). @pre same shapes */
void tanhBackward(const Tensor &out, const Tensor &dout, Tensor &din);

/** Row-wise softmax in place. */
void softmaxRows(Tensor &x);

/** Sum of |v| / n over a span; 0 for an empty span. */
float meanAbs(std::span<const float> v);

/** Mean of |x| over a whole tensor. */
float meanAbs(const Tensor &x);

/** Max of |x| over a whole tensor; 0 if empty. */
float maxAbs(const Tensor &x);

/** Frobenius norm. */
float frobeniusNorm(const Tensor &x);

/** Index of the max element of row r. */
std::size_t argmaxRow(const Tensor &x, std::size_t r);

/**
 * Name of the GEMM microkernel tier the matmul entry points dispatch
 * to ("avx512", "avx2", "neon", "packed"). Resolved once per process;
 * overridable with ROG_MATMUL_TIER (see tensor/gemm.hpp).
 */
const char *matmulActiveTier();

/** ISA summary of the active GEMM tier ("avx512f+fma", "avx2+fma",
 *  "neon", "portable") for logs and bench metadata. */
const char *matmulIsa();

} // namespace tensor
} // namespace rog

#endif // ROG_TENSOR_OPS_HPP
