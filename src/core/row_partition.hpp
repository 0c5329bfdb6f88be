/**
 * @file
 * Synchronization-unit partitioning of a model.
 *
 * Sec. III-A of the paper weighs three granularities — elements, rows,
 * and layers — against the management overhead of indexing transmitted
 * units versus the flexibility of scheduling small units, and picks
 * rows. RowPartition implements all of them (plus whole-model, which
 * is what BSP/SSP/FLOWN effectively use) over the flattened element
 * space, and reports the per-unit wire overhead so the trade-off is
 * measurable (see bench/ablation_granularity).
 */
#ifndef ROG_CORE_ROW_PARTITION_HPP
#define ROG_CORE_ROW_PARTITION_HPP

#include <span>
#include <string_view>
#include <vector>

#include "core/flat_model.hpp"

namespace rog {
namespace core {

/** Synchronization granularity. */
enum class Granularity
{
    Element,    //!< every scalar is its own unit (ablation only).
    Row,        //!< one unit per parameter-matrix row (ROG's choice).
    Layer,      //!< one unit per parameter matrix.
    WholeModel, //!< a single unit (BSP/SSP/FLOWN-style transmission).
};

/** Human-readable granularity name. */
std::string_view granularityName(Granularity g);

/** One synchronization unit: a contiguous flat element range. */
struct Unit
{
    std::size_t begin = 0; //!< first flat element offset.
    std::size_t width = 0; //!< element count.
};

/** A model's partition into synchronization units. */
class RowPartition
{
  public:
    /**
     * Partition @p flat at granularity @p g.
     *
     * @param per_unit_overhead_bytes wire bytes added per transmitted
     *        unit (the paper's int32 row index; the producing
     *        iteration is tagged once per transmission, not per row).
     *        Default 4.
     */
    RowPartition(const FlatModel &flat, Granularity g,
                 double per_unit_overhead_bytes = 4.0);

    Granularity granularity() const { return granularity_; }
    std::size_t unitCount() const { return units_.size(); }
    const Unit &unit(std::size_t u) const;
    const std::vector<Unit> &units() const { return units_; }

    /**
     * Unit @p u's (row, column range) chunks, built once at
     * construction: ascending, tiling [begin, begin + width) exactly
     * once, each chunk's off relative to the unit's begin.
     */
    std::span<const RowChunk> chunks(std::size_t u) const;

    /** Wire bytes of indexing overhead per transmitted unit. */
    double perUnitOverheadBytes() const { return overhead_bytes_; }

    /** Total elements covered (== flat.flatSize()). */
    std::size_t totalElements() const { return total_elements_; }

    /**
     * Total indexing overhead if every unit is transmitted once, as a
     * fraction of the raw float32 model size (Sec. III-A's management
     * cost: ~0.24% for rows, ~200% for elements).
     */
    double indexOverheadFraction() const;

  private:
    Granularity granularity_;
    std::vector<Unit> units_;
    std::vector<RowChunk> chunks_;        //!< all units' chunks, in order.
    std::vector<std::size_t> chunk_begin_; //!< unitCount() + 1 offsets.
    double overhead_bytes_;
    std::size_t total_elements_ = 0;
};

} // namespace core
} // namespace rog

#endif // ROG_CORE_ROW_PARTITION_HPP
