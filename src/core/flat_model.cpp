#include "core/flat_model.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace rog {
namespace core {

FlatModel::FlatModel(nn::Model &model) : model_(&model)
{
    params_ = model.parameters();
    ROG_ASSERT(!params_.empty(), "model has no parameters");
    for (std::size_t p = 0; p < params_.size(); ++p) {
        const auto &value = params_[p]->value;
        for (std::size_t r = 0; r < value.rows(); ++r) {
            RowInfo info;
            info.param = p;
            info.local_row = r;
            info.flat_begin = flat_size_;
            info.width = value.cols();
            rows_.push_back(info);
            row_flat_begin_.push_back(info.flat_begin);
            flat_size_ += info.width;
        }
    }
}

const RowInfo &
FlatModel::rowInfo(std::size_t r) const
{
    ROG_ASSERT(r < rows_.size(), "row out of range");
    return rows_[r];
}

std::size_t
FlatModel::rowOfOffset(std::size_t off) const
{
    ROG_ASSERT(off < flat_size_, "flat offset out of range");
    auto it = std::upper_bound(row_flat_begin_.begin(),
                               row_flat_begin_.end(), off);
    return static_cast<std::size_t>(it - row_flat_begin_.begin()) - 1;
}

std::vector<RowChunk>
FlatModel::rowChunks(std::size_t begin, std::size_t length) const
{
    ROG_ASSERT(begin + length <= flat_size_, "flat range out of bounds");
    std::vector<RowChunk> chunks;
    std::size_t done = 0;
    while (done < length) {
        const std::size_t row = rowOfOffset(begin + done);
        const RowInfo &info = rows_[row];
        const std::size_t col = begin + done - info.flat_begin;
        const std::size_t count = std::min(info.width - col, length - done);
        chunks.push_back({row, col, count, done});
        done += count;
    }
    return chunks;
}

void
FlatModel::gatherGrad(std::span<const RowChunk> chunks,
                      std::span<float> out) const
{
    for (const RowChunk &c : chunks) {
        ROG_ASSERT(c.off + c.count <= out.size(), "chunk out of bounds");
        const RowInfo &info = rows_[c.row];
        const float *src =
            params_[info.param]->grad.row(info.local_row).data() + c.col;
        float *dst = out.data() + c.off;
        for (std::size_t j = 0; j < c.count; ++j)
            dst[j] = src[j];
    }
}

void
FlatModel::accumulateGrad(std::span<const RowChunk> chunks,
                          std::span<float> acc) const
{
    for (const RowChunk &c : chunks) {
        ROG_ASSERT(c.off + c.count <= acc.size(), "chunk out of bounds");
        const RowInfo &info = rows_[c.row];
        const float *src =
            params_[info.param]->grad.row(info.local_row).data() + c.col;
        float *dst = acc.data() + c.off;
        for (std::size_t j = 0; j < c.count; ++j)
            dst[j] += src[j];
    }
}

std::span<float>
FlatModel::rowValues(std::size_t r)
{
    const RowInfo &info = rowInfo(r);
    return params_[info.param]->value.row(info.local_row);
}

std::span<float>
FlatModel::rowGrad(std::size_t r)
{
    const RowInfo &info = rowInfo(r);
    return params_[info.param]->grad.row(info.local_row);
}

void
applyRowChunks(nn::SgdMomentum &opt, std::span<const RowChunk> chunks,
               std::span<const float> values)
{
    for (const RowChunk &c : chunks) {
        ROG_ASSERT(c.off + c.count <= values.size(), "chunk out of bounds");
        opt.applyRowRange(c.row, c.col, values.subspan(c.off, c.count));
    }
}

} // namespace core
} // namespace rog
