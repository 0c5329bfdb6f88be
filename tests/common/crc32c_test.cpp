/**
 * @file
 * CRC32C tier equivalence: the dispatched checksum, the slicing-by-8
 * software tier, and (where the CPU has one) the hardware tier must
 * all be bitwise identical to the seed's byte-at-a-time reference —
 * including seed chaining and incremental (split) computation, since
 * the transport checksums chunks and serialize checksums streams.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/cpu_features.hpp"
#include "common/crc32c.hpp"
#include "common/rng.hpp"

namespace rog {
namespace {

std::vector<std::uint8_t>
bytesOf(const std::string &s)
{
    return {s.begin(), s.end()};
}

TEST(Crc32cTest, StandardCheckValue)
{
    // The iSCSI/RFC 3720 check value for "123456789".
    const auto data = bytesOf("123456789");
    EXPECT_EQ(crc32cRef(data), 0xE3069283u);
    EXPECT_EQ(crc32cSlice8(data), 0xE3069283u);
    EXPECT_EQ(crc32c(data), 0xE3069283u);
    if (crc32cHwAvailable())
        EXPECT_EQ(crc32cHw(data), 0xE3069283u);
}

TEST(Crc32cTest, EmptyIsSeed)
{
    EXPECT_EQ(crc32c({}), 0u);
    EXPECT_EQ(crc32c({}, 0xDEADBEEFu), 0xDEADBEEFu);
    EXPECT_EQ(crc32cRef({}, 0xDEADBEEFu), 0xDEADBEEFu);
    EXPECT_EQ(crc32cSlice8({}, 0xDEADBEEFu), 0xDEADBEEFu);
    if (crc32cHwAvailable())
        EXPECT_EQ(crc32cHw({}, 0xDEADBEEFu), 0xDEADBEEFu);
}

TEST(Crc32cTest, DispatchTierIsConsistent)
{
    // The dispatch decision and the feature probe must agree.
    const std::string tier = crc32cActiveTier();
    if (cpu::hasCrc32c()) {
        EXPECT_TRUE(crc32cHwAvailable());
        EXPECT_EQ(tier, "hw");
    } else {
        EXPECT_FALSE(crc32cHwAvailable());
        EXPECT_EQ(tier, "slice8");
    }
}

TEST(Crc32cTest, IncrementalSplitsMatchOneShot)
{
    Rng rng(401);
    std::vector<std::uint8_t> data(1033);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());
    const std::uint32_t whole = crc32cRef(data);
    // Every split point, including 0 and n: crc(head) chained into
    // crc(tail) must equal the one-shot value, on every tier.
    for (std::size_t cut : {std::size_t{0}, std::size_t{1},
                            std::size_t{7}, std::size_t{8},
                            std::size_t{9}, std::size_t{512},
                            std::size_t{1032}, data.size()}) {
        const std::span<const std::uint8_t> head(data.data(), cut);
        const std::span<const std::uint8_t> tail(data.data() + cut,
                                                 data.size() - cut);
        EXPECT_EQ(crc32cRef(tail, crc32cRef(head)), whole) << cut;
        EXPECT_EQ(crc32cSlice8(tail, crc32cSlice8(head)), whole) << cut;
        EXPECT_EQ(crc32c(tail, crc32c(head)), whole) << cut;
        if (crc32cHwAvailable())
            EXPECT_EQ(crc32cHw(tail, crc32cHw(head)), whole) << cut;
    }
}

/**
 * 1000-case fuzz: random lengths (biased toward the 8-byte stride
 * boundaries every fast tier cares about), random bytes, random
 * seeds — every tier must agree with the reference bit for bit.
 */
TEST(Crc32cTest, TiersAgreeUnderFuzz)
{
    Rng rng(977);
    const bool hw = crc32cHwAvailable();
    for (int round = 0; round < 1000; ++round) {
        std::size_t n = static_cast<std::size_t>(rng.next() % 257);
        if (round % 3 == 0) // exercise stride edges hard.
            n = (n / 8) * 8 + (rng.next() % 3);
        std::vector<std::uint8_t> data(n);
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.next());
        const auto seed = static_cast<std::uint32_t>(rng.next());
        const std::uint32_t want = crc32cRef(data, seed);
        ASSERT_EQ(crc32cSlice8(data, seed), want) << "round " << round;
        ASSERT_EQ(crc32c(data, seed), want) << "round " << round;
        if (hw)
            ASSERT_EQ(crc32cHw(data, seed), want) << "round " << round;
    }
}

TEST(Crc32cTest, DistinctInputsDistinctCrcs)
{
    // Sanity (not a collision test): flipping any single bit of a
    // small message changes the checksum.
    const auto base = bytesOf("rog gradient row");
    const std::uint32_t want = crc32c(base);
    for (std::size_t i = 0; i < base.size() * 8; ++i) {
        auto mod = base;
        mod[i / 8] ^= static_cast<std::uint8_t>(1u << (i % 8));
        EXPECT_NE(crc32c(mod), want) << i;
    }
}

} // namespace
} // namespace rog
