/**
 * @file
 * RnsPoly — an element of R_Q = Z_Q[X]/(X^n + 1) in double-CRT form:
 * one "limb" (residue polynomial) per prime of the RNS basis, each
 * limb either in coefficient or in NTT (evaluation) representation.
 *
 * Storage is limb-major: limb i occupies [i*n, (i+1)*n). This is the
 * "original" layout of the paper's Fig 6; the tensor module provides
 * the reorders to/from the matmul-friendly layouts.
 */
#pragma once

#include <span>
#include <vector>

#include "poly/ntt.h"
#include "rns/modulus.h"

namespace neo {

/** Representation of a residue polynomial vector. */
enum class PolyForm { coeff, eval };

/** Polynomial over an RNS modulus chain. */
class RnsPoly
{
  public:
    RnsPoly() = default;

    /// Zero polynomial of degree @p n over @p mods.
    RnsPoly(size_t n, std::vector<Modulus> mods,
            PolyForm form = PolyForm::coeff);

    size_t n() const { return n_; }
    size_t limbs() const { return mods_.size(); }
    PolyForm form() const { return form_; }
    void set_form(PolyForm f) { form_ = f; }

    const std::vector<Modulus> &mods() const { return mods_; }
    const Modulus &modulus(size_t i) const { return mods_[i]; }

    /// Mutable limb i (n coefficients).
    u64 *limb(size_t i) { return data_.data() + i * n_; }
    const u64 *limb(size_t i) const { return data_.data() + i * n_; }

    u64 *data() { return data_.data(); }
    const u64 *data() const { return data_.data(); }

    /// Element-wise addition (forms and moduli must match).
    void add_inplace(const RnsPoly &o);
    /// Element-wise subtraction.
    void sub_inplace(const RnsPoly &o);
    /// Negate all residues.
    void negate_inplace();
    /// Point-wise (Hadamard) multiplication; both must be in eval form.
    void mul_inplace(const RnsPoly &o);
    /// Fused a += b * c (eval form), one add_product_limb per limb.
    void add_product(const RnsPoly &b, const RnsPoly &c);

    /// Keep only the first @p count limbs.
    void drop_limbs_to(size_t count);

    bool same_shape(const RnsPoly &o) const;

  private:
    size_t n_ = 0;
    std::vector<Modulus> mods_;
    std::vector<u64> data_;
    PolyForm form_ = PolyForm::coeff;
};

/**
 * acc[l] = acc[l] + x[l]·y[l] mod q for l < @p n: the multiply-accumulate
 * of one eval-form limb. RnsPoly::add_product, the hybrid key switch's
 * inner product (which reads key limbs in place) and the element-wise
 * IP kernel all run it.
 */
void add_product_limb(u64 *acc, const u64 *x, const u64 *y, size_t n,
                      const Modulus &q);

/** NTT table set for a modulus chain, shared by all polys of a context. */
class NttTableSet
{
  public:
    NttTableSet() = default;

    /// Build tables for each modulus in @p mods at degree @p n.
    NttTableSet(size_t n, const std::vector<Modulus> &mods);

    /// Tables for the chain's i-th modulus.
    const NttTables &operator[](size_t i) const { return tables_[i]; }

    /// Find tables by modulus value; rejects a modulus outside the set.
    const NttTables &for_modulus(const Modulus &q) const;

    /// Transform every limb of @p p to eval form (no-op if already).
    void to_eval(RnsPoly &p) const;

    /// Transform every limb of @p p to coefficient form.
    void to_coeff(RnsPoly &p) const;

    /**
     * Transform a run of rows in place into form @p to: row i holds
     * @p n words at rows + i·n under mods[i]. Each row's tables are
     * resolved on the caller's thread first, so a modulus outside the
     * set or a degree other than the tables' is rejected there (a pool
     * body must not throw); the rows then fan out one per task.
     */
    void transform(u64 *rows, size_t n, std::span<const Modulus> mods,
                   PolyForm to) const;

  private:
    std::vector<NttTables> tables_;
};

/**
 * AUTO kernel: the Galois automorphism X -> X^g (g odd) of Fig 4.
 *
 * Coefficient domain: out[ig mod 2n] = ±in[i] with sign flip on wrap
 * past n (X^n = -1). Evaluation domain: a permutation of the slots
 * that depends only on (n, g), so automorphism() derives it once per
 * call and gathers every limb through it; automorphism_eval is the
 * one-limb case.
 */
void automorphism_coeff(const u64 *in, u64 *out, size_t n, u64 g,
                        const Modulus &q);
void automorphism_eval(const u64 *in, u64 *out, size_t n, u64 g,
                       const Modulus &q);

/// Apply the automorphism to every limb of @p p (any form).
RnsPoly automorphism(const RnsPoly &p, u64 g);

} // namespace neo
