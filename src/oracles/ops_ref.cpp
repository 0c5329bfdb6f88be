/**
 * @file
 * Scalar reference kernels — the seed library's original triple-loop
 * implementations, preserved verbatim in their own translation unit
 * (built with the project's default flags, no kernel tuning) so that:
 *
 *  - equivalence tests can compare the blocked/parallel kernels in
 *    ops.cpp against a known-good baseline, and
 *  - micro benchmarks can report blocked-vs-seed speedups against the
 *    exact code the seed shipped.
 */
#include "oracles/ops_ref.hpp"

#include "common/logging.hpp"

namespace rog {
namespace tensor {
namespace ref {

void
matmul(const Tensor &a, const Tensor &b, Tensor &out)
{
    ROG_ASSERT(a.cols() == b.rows() && out.rows() == a.rows() &&
               out.cols() == b.cols(), "matmul shape mismatch");
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    out.zero();
    // i-k-j loop order keeps the inner loop contiguous in b and out.
    for (std::size_t i = 0; i < m; ++i) {
        float *out_row = out.data() + i * n;
        const float *a_row = a.data() + i * k;
        for (std::size_t p = 0; p < k; ++p) {
            const float av = a_row[p];
            if (av == 0.0f)
                continue;
            const float *b_row = b.data() + p * n;
            for (std::size_t j = 0; j < n; ++j)
                out_row[j] += av * b_row[j];
        }
    }
}

void
matmulTransA(const Tensor &a, const Tensor &b, Tensor &out)
{
    ROG_ASSERT(a.rows() == b.rows() && out.rows() == a.cols() &&
               out.cols() == b.cols(), "matmulTransA shape mismatch");
    const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
    out.zero();
    for (std::size_t p = 0; p < k; ++p) {
        const float *a_row = a.data() + p * m;
        const float *b_row = b.data() + p * n;
        for (std::size_t i = 0; i < m; ++i) {
            const float av = a_row[i];
            if (av == 0.0f)
                continue;
            float *out_row = out.data() + i * n;
            for (std::size_t j = 0; j < n; ++j)
                out_row[j] += av * b_row[j];
        }
    }
}

void
matmulTransB(const Tensor &a, const Tensor &b, Tensor &out)
{
    ROG_ASSERT(a.cols() == b.cols() && out.rows() == a.rows() &&
               out.cols() == b.rows(), "matmulTransB shape mismatch");
    const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
    for (std::size_t i = 0; i < m; ++i) {
        const float *a_row = a.data() + i * k;
        float *out_row = out.data() + i * n;
        for (std::size_t j = 0; j < n; ++j) {
            const float *b_row = b.data() + j * k;
            float acc = 0.0f;
            for (std::size_t p = 0; p < k; ++p)
                acc += a_row[p] * b_row[p];
            out_row[j] = acc;
        }
    }
}

} // namespace ref
} // namespace tensor
} // namespace rog
