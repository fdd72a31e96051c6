/**
 * @file
 * FHE workload schedules for the paper's three applications (§5).
 *
 * A schedule is the sequence of primitive CKKS operations (with their
 * levels and multiplicities) that one run of the application
 * executes. The FHE cost of an application depends only on this
 * schedule — not on the underlying data — so synthetic inputs with
 * the paper's dimensions reproduce the performance faithfully
 * (DESIGN.md, substitution table).
 *
 * Schedules are *structural*: they are generated from the published
 * algorithm shapes —
 *  - PackBootstrap: ModRaise → CoeffToSlot (3 BSGS stages) → EvalMod
 *    (degree-63 Chebyshev sine with double-angle) → SlotToCoeff
 *    (3 stages), as in Lattigo/ARK-style bootstrapping;
 *  - HELR: one logistic-regression iteration on 1024 packed 14×14
 *    MNIST images (196 features): X·w inner products by rotate-and-
 *    sum, degree-3 sigmoid, gradient and update, plus one refresh
 *    bootstrap;
 *  - ResNet-20/32/56: per-layer multiplexed-packing convolution
 *    (Lee et al.), degree-27 polynomial ReLU, one bootstrap per
 *    layer block — cost scales linearly in layer count, matching the
 *    20/32/56 ratios of Table 5.
 */
#pragma once

#include <string>
#include <vector>

#include "ckks/params.h"
#include "neo/kernel_model.h"

namespace neo::apps {

/** One schedule entry: @p count ops of kind @p op at level @p level. */
struct OpCount
{
    model::Op op;
    size_t level;
    double count;
};

/** A full application trace. */
struct Schedule
{
    std::string name;
    std::vector<OpCount> ops;
    double bootstraps = 0; ///< embedded PackBootstrap invocations

    /// Total count of one op kind (for reporting).
    double total(model::Op k) const;
};

/// Bootstrapping of one batch of ciphertexts.
Schedule pack_bootstrap(const ckks::CkksParams &params);

/// One HELR training iteration (1024 images, 196 features).
Schedule helr_iteration(const ckks::CkksParams &params);

/// ResNet-L CIFAR-10 inference, L ∈ {20, 32, 56}.
Schedule resnet(const ckks::CkksParams &params, int layers);

/// Wall time of @p s under @p m (embedded bootstraps included).
double run_schedule(const Schedule &s, const model::KernelModel &m);

} // namespace neo::apps
