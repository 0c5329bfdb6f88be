/**
 * @file
 * Non-IID dataset partitioning across workers.
 *
 * The paper partitions Fed-CIFAR100 into unbalanced shards via the
 * Pachinko Allocation Method. We reproduce the unbalanced-label-mix
 * property with the standard Dirichlet partitioner used in the
 * federated-learning literature: per class, a Dirichlet(alpha) draw
 * decides each worker's share of that class's samples. Small alpha →
 * highly skewed (non-IID); large alpha → near-uniform.
 */
#ifndef ROG_DATA_PARTITION_HPP
#define ROG_DATA_PARTITION_HPP

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"

namespace rog {

class Rng;

namespace data {

/**
 * Dirichlet non-IID partition of a classification dataset.
 *
 * @param dataset must be a classification dataset.
 * @param workers number of shards. @pre workers > 0
 * @param alpha Dirichlet concentration. @pre alpha > 0
 * @param rng randomness for the class-share draws.
 * @return one index vector per worker; every sample appears exactly
 *         once; no shard is empty (repaired by stealing if needed).
 */
std::vector<std::vector<std::size_t>>
dirichletPartition(const Dataset &dataset, std::size_t workers,
                   double alpha, Rng &rng);

/** Equal-size IID partition (random permutation split). */
std::vector<std::vector<std::size_t>>
iidPartition(std::size_t samples, std::size_t workers, Rng &rng);

} // namespace data
} // namespace rog

#endif // ROG_DATA_PARTITION_HPP
