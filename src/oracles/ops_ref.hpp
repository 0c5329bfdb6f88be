/**
 * @file
 * GEMM baselines kept out of the production tensor library: the
 * kernel-equivalence tests compare against them and the micro
 * benchmarks measure the packed-panel microkernels against them.
 * Neither is ever used on the hot path.
 */
#ifndef ROG_ORACLES_OPS_REF_HPP
#define ROG_ORACLES_OPS_REF_HPP

#include "tensor/tensor.hpp"

namespace rog {
namespace tensor {

/**
 * Scalar reference kernels: the seed library's original triple-loop
 * implementations (ops_ref.cpp, built with default flags).
 */
namespace ref {

void matmul(const Tensor &a, const Tensor &b, Tensor &out);
void matmulTransA(const Tensor &a, const Tensor &b, Tensor &out);
void matmulTransB(const Tensor &a, const Tensor &b, Tensor &out);

} // namespace ref

/**
 * The earlier blocked/register-tiled autovectorized GEMMs
 * (ops_blocked.cpp, built with -march=native like the old hot path).
 */
namespace blocked {

void matmul(const Tensor &a, const Tensor &b, Tensor &out);
void matmulTransA(const Tensor &a, const Tensor &b, Tensor &out);
void matmulTransB(const Tensor &a, const Tensor &b, Tensor &out);

} // namespace blocked

} // namespace tensor
} // namespace rog

#endif // ROG_ORACLES_OPS_REF_HPP
