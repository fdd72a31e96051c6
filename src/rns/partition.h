/**
 * @file
 * Digit (gadget) decomposition partitions.
 *
 * Both key-switch methods start by splitting a prime chain into
 * groups ("digits"): the ciphertext digits use groups of α primes of
 * Q (β = ceil((l+1)/α) digits, Table 1), and KLSS additionally splits
 * the *key* over groups of α̃ primes of PQ (β̃ digits). In RNS the
 * gadget factor g_j = (B/B_j)·[(B/B_j)^{-1}]_{B_j} reduces to 1 on the
 * primes inside group j and 0 outside, so decomposition is simply
 * "take the group's limbs" and recombination is "route each output
 * prime to its own group" — the property Recover Limbs exploits.
 */
#pragma once

#include <vector>

#include "common/math_util.h"

namespace neo {

/** One contiguous group of primes within a basis. */
struct DigitGroup
{
    size_t first; ///< index of the first prime of the group
    size_t count; ///< number of primes in the group
};

/**
 * Partition @p total primes into groups of @p group_size (the final
 * group may be smaller). group_size = α for ciphertext digits,
 * α̃ for KLSS key digits.
 */
inline std::vector<DigitGroup>
make_partition(size_t total, size_t group_size)
{
    std::vector<DigitGroup> groups;
    for (size_t first = 0; first < total; first += group_size) {
        groups.push_back({first, std::min(group_size, total - first)});
    }
    return groups;
}

/**
 * Partition @p total primes into @p parts contiguous near-even groups
 * (⌈total/parts⌉ each, trailing groups possibly empty) — the
 * multi-device shard rule: device d owns group d. Deterministic in
 * (total, parts) only, so sharded schedules are reproducible.
 */
inline std::vector<DigitGroup>
make_even_partition(size_t total, size_t parts)
{
    std::vector<DigitGroup> groups;
    const size_t chunk = parts > 0 ? (total + parts - 1) / parts : total;
    for (size_t p = 0; p < parts; ++p) {
        const size_t first = std::min(p * chunk, total);
        groups.push_back({first, std::min(chunk, total - first)});
    }
    return groups;
}

} // namespace neo
