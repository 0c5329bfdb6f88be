#include "core/row_partition.hpp"

#include "common/logging.hpp"

namespace rog {
namespace core {

std::string_view
granularityName(Granularity g)
{
    switch (g) {
      case Granularity::Element:
        return "element";
      case Granularity::Row:
        return "row";
      case Granularity::Layer:
        return "layer";
      case Granularity::WholeModel:
        return "whole-model";
      default:
        return "invalid";
    }
}

RowPartition::RowPartition(const FlatModel &flat, Granularity g,
                           double per_unit_overhead_bytes)
    : granularity_(g), overhead_bytes_(per_unit_overhead_bytes),
      total_elements_(flat.flatSize())
{
    ROG_ASSERT(per_unit_overhead_bytes >= 0.0, "negative unit overhead");
    switch (g) {
      case Granularity::Element:
        units_.reserve(flat.flatSize());
        for (std::size_t i = 0; i < flat.flatSize(); ++i)
            units_.push_back(Unit{i, 1});
        break;
      case Granularity::Row:
        units_.reserve(flat.rowCount());
        for (std::size_t r = 0; r < flat.rowCount(); ++r) {
            const RowInfo &info = flat.rowInfo(r);
            units_.push_back(Unit{info.flat_begin, info.width});
        }
        break;
      case Granularity::Layer: {
        // A layer unit spans all rows of one parameter matrix.
        std::size_t begin = 0;
        std::size_t width = 0;
        std::size_t param = flat.rowInfo(0).param;
        for (std::size_t r = 0; r < flat.rowCount(); ++r) {
            const RowInfo &info = flat.rowInfo(r);
            if (info.param != param) {
                units_.push_back(Unit{begin, width});
                begin = info.flat_begin;
                width = 0;
                param = info.param;
            }
            width += info.width;
        }
        units_.push_back(Unit{begin, width});
        break;
      }
      case Granularity::WholeModel:
        units_.push_back(Unit{0, flat.flatSize()});
        break;
    }
    ROG_ASSERT(!units_.empty(), "partition produced no units");

    chunk_begin_.reserve(units_.size() + 1);
    chunk_begin_.push_back(0);
    for (const Unit &unit : units_) {
        const auto unit_chunks = flat.rowChunks(unit.begin, unit.width);
        chunks_.insert(chunks_.end(), unit_chunks.begin(), unit_chunks.end());
        chunk_begin_.push_back(chunks_.size());
    }
}

const Unit &
RowPartition::unit(std::size_t u) const
{
    ROG_ASSERT(u < units_.size(), "unit out of range");
    return units_[u];
}

std::span<const RowChunk>
RowPartition::chunks(std::size_t u) const
{
    ROG_ASSERT(u < units_.size(), "unit out of range");
    return {chunks_.data() + chunk_begin_[u],
            chunk_begin_[u + 1] - chunk_begin_[u]};
}

double
RowPartition::indexOverheadFraction() const
{
    const double raw_bytes = 4.0 * static_cast<double>(total_elements_);
    const double overhead =
        overhead_bytes_ * static_cast<double>(units_.size());
    return overhead / raw_bytes;
}

} // namespace core
} // namespace rog
