/**
 * @file
 * The stage table: Neo's keyswitch and rescale stages in execution
 * order (§4, Algorithms 2 and 4), under the one set of names that the
 * pipeline's obs spans, the cost model's rows, the tuning table's
 * `stage` keys and the shard model's attribution share. Every module
 * that iterates stages reads kStages.
 */
#pragma once

#include <array>
#include <cstddef>
#include <string_view>

namespace neo {

/// Stage names; `const char *` so they can name obs spans directly.
namespace stage {
inline constexpr const char *intt_q = "intt_q";
inline constexpr const char *modup_bconv = "modup_bconv";
inline constexpr const char *ntt_t = "ntt_t";
inline constexpr const char *ip = "ip";
inline constexpr const char *intt_t = "intt_t";
inline constexpr const char *recover_bconv = "recover_bconv";
inline constexpr const char *moddown_bconv = "moddown_bconv";
inline constexpr const char *ntt_q = "ntt_q";
inline constexpr const char *rescale_intt = "rescale_intt";
inline constexpr const char *rescale_ntt = "rescale_ntt";
} // namespace stage

/// The index range a stage's work splits over across devices (§4
/// digit structure; see neo/shard.h).
enum class ShardAxis {
    q_limbs,    ///< the l+1 ciphertext limbs
    digits,     ///< the β ciphertext digits
    key_digits, ///< the β̃ key digits
};

/** One row of the stage table. */
struct StageInfo
{
    const char *name; ///< a neo::stage name
    ShardAxis axis;
    bool rescale; ///< a rescale stage rather than a keyswitch stage
};

/// Every stage in execution order: the eight keyswitch stages, then
/// the two rescale stages.
inline constexpr std::array<StageInfo, 10> kStages = {{
    {stage::intt_q, ShardAxis::q_limbs, false},
    {stage::modup_bconv, ShardAxis::digits, false},
    {stage::ntt_t, ShardAxis::digits, false},
    {stage::ip, ShardAxis::key_digits, false},
    {stage::intt_t, ShardAxis::key_digits, false},
    {stage::recover_bconv, ShardAxis::key_digits, false},
    {stage::moddown_bconv, ShardAxis::q_limbs, false},
    {stage::ntt_q, ShardAxis::q_limbs, false},
    {stage::rescale_intt, ShardAxis::q_limbs, true},
    {stage::rescale_ntt, ShardAxis::q_limbs, true},
}};

/// Position of @p name in kStages; kStages.size() for a name that is
/// not a stage.
constexpr size_t
stage_rank(std::string_view name)
{
    for (size_t i = 0; i < kStages.size(); ++i)
        if (name == kStages[i].name)
            return i;
    return kStages.size();
}

} // namespace neo
