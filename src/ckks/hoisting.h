/**
 * @file
 * Hoisted rotations: when one ciphertext is rotated by many steps
 * (the inner loops of BSGS linear transforms — CoeffToSlot, the conv
 * layers of the ResNet workload), the expensive half of every
 * KeySwitch (INTT, digit decomposition, ModUp BConv, NTT) depends
 * only on the *input*, not the rotation. Hoisting computes it once
 * and replays only the per-rotation automorphism + inner product +
 * ModDown — the classic optimization of Halevi–Shoup that GPU
 * implementations (100x, TensorFHE) rely on.
 *
 * The Galois automorphism commutes with the NTT and with exact base
 * conversion; through the *approximate* fast BConv the two orders
 * differ by a digit-modulus multiple (the usual ModUp slack), so
 * hoisted outputs are noise-equivalent — not bit-identical — to
 * per-rotation keyswitching, as in the standard Halevi–Shoup
 * analysis.
 */
#pragma once

#include "ckks/keyswitch.h"

namespace neo::ckks {

/**
 * Rotate @p ct by every step in @p steps with one shared ModUp.
 * Hybrid keys for each step's Galois element must be present in
 * @p gk. Results decrypt like Evaluator::rotate's, up to the ModUp
 * slack above; they are not bit-identical. Work counts flow to the
 * active neo::obs sink under the `ks.*` names: the ModUp once, then
 * the inner product and ModDown per step. Defined in keyswitch.cpp,
 * beside the hybrid key switch whose steps it shares.
 */
std::vector<Ciphertext> rotate_hoisted(const Ciphertext &ct,
                                       const std::vector<i64> &steps,
                                       const GaloisKeys &gk,
                                       const CkksContext &ctx);

} // namespace neo::ckks
