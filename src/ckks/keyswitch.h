/**
 * @file
 * The KeySwitch operation — both methods the paper compares.
 *
 * Hybrid (Han–Ki): digit-decompose the input over Q, ModUp every
 * digit to the full Q·P basis (approximate BConv), inner-product with
 * the evaluation keys over Q·P, ModDown by P.
 *
 * KLSS (Kim–Lee–Seo–Song, §2.2): digit-decompose over Q, ModUp each
 * digit *exactly* into the small auxiliary base T, NTT over T, inner
 * product against the β̃×β key digits over T (exact integers — no
 * wrap, by the Eq. 4 bound), INTT, Recover Limbs (exact CRT back to
 * each Q·P prime — each output prime needs only its own key-digit
 * group's accumulator), ModDown by P.
 *
 * Both return the same switched ciphertext up to BConv noise; tests
 * verify they decrypt identically.
 */
#pragma once

#include "ckks/context.h"
#include "ckks/keys.h"

namespace neo::ckks {

/**
 * Throw std::invalid_argument unless @p d2 is a keyswitch operand of
 * @p ctx: eval form, degree ctx.n() and moduli q_0..q_level of ctx.
 * Every keyswitch entry point calls it before any kernel runs.
 */
void check_keyswitch_operand(const RnsPoly &d2, const CkksContext &ctx);

/**
 * Throw std::invalid_argument unless @p evk is a hybrid key of
 * @p ctx: every part of degree ctx.n() over q_0..q_L, then P. Compares
 * moduli only; no coefficient is read.
 */
void check_keyswitch_key(const EvalKey &evk, const CkksContext &ctx);

/**
 * Throw std::invalid_argument unless @p evk is a KLSS key of @p ctx:
 * 2·beta_max·beta_tilde_max parts, each of degree ctx.n() over
 * ctx.t_basis(), lifted from q_0..q_L, then P of ctx. Compares moduli
 * only; no coefficient is read.
 */
void check_keyswitch_key(const KlssEvalKey &evk, const CkksContext &ctx);

/**
 * Hybrid key switch of @p d2 (eval form over q_0..q_level) under
 * @p evk. Returns (k0, k1) in eval form at the same level with
 * k0 + k1·s ≈ d2·s'. The inner product reads @p evk's limbs in place
 * (EvalKey), so the call builds nothing on the key and takes no lock.
 * Work counts flow to the active neo::obs sink under the `ks.*`
 * counter names.
 */
std::pair<RnsPoly, RnsPoly> keyswitch_hybrid(const RnsPoly &d2,
                                             const EvalKey &evk,
                                             const CkksContext &ctx);

/** KLSS key switch; same contract as keyswitch_hybrid. */
std::pair<RnsPoly, RnsPoly> keyswitch_klss(const RnsPoly &d2,
                                           const KlssEvalKey &evk,
                                           const CkksContext &ctx);

/**
 * ModDown: divide a polynomial over q_0..q_level ∪ P by P, returning a
 * polynomial over q_0..q_level in the input's form.
 *
 * A coeff-form input (KLSS Recover Limbs) is converted as it stands.
 * An eval-form input (the hybrid inner product) INTTs a copy of only
 * its K P-limbs for the BConv, NTTs the l+1 correction rows and
 * applies the fix in the eval domain. The NTT is linear and exact mod
 * each q_i, so the result equals NTT(mod_down(INTT(input))) word for
 * word, and every `bconv.*`, `fuse.*`, `pass.*` and
 * `ks.moddown_products` count is the same for either form. Only the
 * eval form records its transforms (`ks.intt_limbs` K,
 * `ks.ntt_limbs` l+1).
 *
 * With @p fuse set, the (c - corr)·P⁻¹ scalar fix runs inside the
 * BConv epilogue (one fused kernel per output limb) instead of as a
 * separate pass over a materialised correction array. The fused path
 * performs the identical modular operations in the identical
 * per-element order, so its output is bit-identical; the difference
 * is one kernel launch and one DRAM round trip of the correction
 * term — the fusion tests/fusion_test.cpp locks in.
 *
 * With @p devices > 1 the output limbs are visited device-major over
 * the contiguous per-device ranges of rns::make_even_partition — the
 * reduce-scatter ownership of the sharded schedule. Each limb's
 * element loop is untouched and limb ranges are disjoint, so results
 * are bit-identical for every device count (ctest -L shard).
 */
RnsPoly mod_down(const RnsPoly &ext_poly, size_t level,
                 const CkksContext &ctx, bool fuse = false,
                 size_t devices = 1);

} // namespace neo::ckks
