#include "data/partition.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "common/rng.hpp"

namespace rog {
namespace data {

std::vector<std::vector<std::size_t>>
dirichletPartition(const Dataset &dataset, std::size_t workers,
                   double alpha, Rng &rng)
{
    ROG_ASSERT(dataset.isClassification(),
               "dirichletPartition needs labels");
    ROG_ASSERT(workers > 0 && alpha > 0.0, "invalid partition params");

    std::uint32_t classes = 0;
    for (auto y : dataset.labels)
        classes = std::max(classes, y + 1);

    // Group sample indices per class, shuffled.
    std::vector<std::vector<std::size_t>> by_class(classes);
    for (std::size_t i = 0; i < dataset.labels.size(); ++i)
        by_class[dataset.labels[i]].push_back(i);
    for (auto &v : by_class)
        rng.shuffle(v);

    std::vector<std::vector<std::size_t>> shards(workers);
    for (std::uint32_t c = 0; c < classes; ++c) {
        const auto share = rng.dirichlet(workers, alpha);
        const std::size_t n = by_class[c].size();
        std::size_t given = 0;
        double acc = 0.0;
        for (std::size_t w = 0; w < workers; ++w) {
            acc += share[w];
            const std::size_t upto = (w + 1 == workers)
                ? n
                : std::min(n, static_cast<std::size_t>(
                      std::floor(acc * static_cast<double>(n))));
            for (; given < upto; ++given)
                shards[w].push_back(by_class[c][given]);
        }
    }

    // Repair empty shards by stealing from the largest one.
    for (auto &shard : shards) {
        if (!shard.empty())
            continue;
        auto largest = std::max_element(
            shards.begin(), shards.end(),
            [](const auto &a, const auto &b) {
                return a.size() < b.size();
            });
        ROG_ASSERT(largest->size() > 1, "not enough samples to repair");
        shard.push_back(largest->back());
        largest->pop_back();
    }
    return shards;
}

std::vector<std::vector<std::size_t>>
iidPartition(std::size_t samples, std::size_t workers, Rng &rng)
{
    ROG_ASSERT(workers > 0 && samples >= workers,
               "invalid iid partition params");
    std::vector<std::size_t> perm(samples);
    for (std::size_t i = 0; i < samples; ++i)
        perm[i] = i;
    rng.shuffle(perm);
    std::vector<std::vector<std::size_t>> shards(workers);
    for (std::size_t i = 0; i < samples; ++i)
        shards[i % workers].push_back(perm[i]);
    return shards;
}

} // namespace data
} // namespace rog
