/**
 * @file
 * Flattened row-indexed view over a model's parameters.
 *
 * ROG "transparently inspects the underlying tensors storing parameters
 * of the model and tracks each row's versions" (Sec. V). FlatModel is
 * that inspection layer: it assigns every parameter-matrix row a global
 * row index and every element a global flat offset, and translates
 * between flat element ranges (the general synchronization unit, see
 * row_partition.hpp) and (parameter, row, column) coordinates.
 */
#ifndef ROG_CORE_FLAT_MODEL_HPP
#define ROG_CORE_FLAT_MODEL_HPP

#include <span>
#include <vector>

#include "nn/model.hpp"
#include "nn/optimizer.hpp"

namespace rog {
namespace core {

/** Descriptor of one global matrix row. */
struct RowInfo
{
    std::size_t param = 0;       //!< index into Model::parameters().
    std::size_t local_row = 0;   //!< row within that parameter matrix.
    std::size_t flat_begin = 0;  //!< offset of the row's first element.
    std::size_t width = 0;       //!< elements in the row.
};

/**
 * One (global row, column range) piece of a flat element range. A
 * range splits into chunks at row boundaries; see
 * FlatModel::rowChunks.
 */
struct RowChunk
{
    std::size_t row = 0;   //!< global row.
    std::size_t col = 0;   //!< first column within the row.
    std::size_t count = 0; //!< elements.
    std::size_t off = 0;   //!< offset of the chunk within the range.
};

/** Flat view over a model's parameters (non-owning). */
class FlatModel
{
  public:
    /** Bind to a model; the model must outlive this view. */
    explicit FlatModel(nn::Model &model);

    /** Total number of elements across all parameters. */
    std::size_t flatSize() const { return flat_size_; }

    /** Total number of global rows. */
    std::size_t rowCount() const { return rows_.size(); }

    /** Descriptor of global row @p r. @pre r < rowCount() */
    const RowInfo &rowInfo(std::size_t r) const;

    /** Global row containing flat offset @p off. @pre off<flatSize() */
    std::size_t rowOfOffset(std::size_t off) const;

    /**
     * Split the flat range [begin, begin + length) into per-row
     * chunks, in ascending order, covering the range exactly once.
     * RowPartition builds its per-unit table with this once; hot paths
     * read that table instead.
     */
    std::vector<RowChunk> rowChunks(std::size_t begin,
                                    std::size_t length) const;

    /**
     * Copy the current parameter *gradients* under @p chunks (one
     * range's chunk table) into @p out, chunk c landing at
     * out[c.off, c.off + c.count).
     */
    void gatherGrad(std::span<const RowChunk> chunks,
                    std::span<float> out) const;

    /** As gatherGrad, but add into @p acc (acc[i] += grad[i]). */
    void accumulateGrad(std::span<const RowChunk> chunks,
                        std::span<float> acc) const;

    /** Parameter values of global row @p r (mutable). */
    std::span<float> rowValues(std::size_t r);

    /** Parameter gradients of global row @p r (mutable). */
    std::span<float> rowGrad(std::size_t r);

    nn::Model &model() { return *model_; }

  private:
    nn::Model *model_;
    std::vector<nn::Parameter *> params_;
    std::vector<RowInfo> rows_;
    std::vector<std::size_t> row_flat_begin_; //!< for binary search.
    std::size_t flat_size_ = 0;
};

/**
 * Apply @p values, laid out as one range's chunk table @p chunks
 * describes, to @p opt row range by row range.
 */
void applyRowChunks(nn::SgdMomentum &opt, std::span<const RowChunk> chunks,
                    std::span<const float> values);

} // namespace core
} // namespace rog

#endif // ROG_CORE_FLAT_MODEL_HPP
