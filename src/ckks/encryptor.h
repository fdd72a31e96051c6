/**
 * @file
 * Encryption and decryption (Eq. 1 of the paper, with the
 * m ≈ c0 + c1·s decryption convention).
 */
#pragma once

#include "ckks/context.h"
#include "ckks/keygen.h"
#include "ckks/keys.h"

namespace neo::ckks {

/**
 * A compressed symmetric ciphertext: c1 is a uniform polynomial fully
 * determined by a PRNG seed, so only (c0, seed) travels — half the
 * bytes of a full fresh ciphertext. The receiver re-expands c1.
 */
struct SeededCiphertext
{
    RnsPoly c0;
    u64 seed = 0;
    size_t level = 0;
    double scale = 1.0;
};

/** Public- and secret-key encryption. */
class Encryptor
{
  public:
    Encryptor(const CkksContext &ctx, u64 seed = 2);

    /// Public-key encryption of @p pt at @p pt's level.
    Ciphertext encrypt(const Plaintext &pt, const PublicKey &pk);

    /// Symmetric encryption (smaller noise; used by tests).
    Ciphertext encrypt_symmetric(const Plaintext &pt, const SecretKey &sk,
                                 const KeyGenerator &keygen);

    /// Symmetric encryption in seeded (compressed) form.
    SeededCiphertext encrypt_symmetric_seeded(const Plaintext &pt,
                                              const SecretKey &sk,
                                              const KeyGenerator &keygen,
                                              u64 a_seed);

    /// Re-expand a seeded ciphertext into a full one.
    Ciphertext expand(const SeededCiphertext &sct) const;

  private:
    const CkksContext &ctx_;
    Rng rng_;
};

/** Decryption back to a plaintext. */
class Decryptor
{
  public:
    Decryptor(const CkksContext &ctx, const SecretKey &sk,
              const KeyGenerator &keygen);

    /// m = c0 + c1·s at the ciphertext's level.
    Plaintext decrypt(const Ciphertext &ct) const;

    /// Convenience: decrypt and decode to complex slots.
    std::vector<Complex> decrypt_decode(const Ciphertext &ct) const;

  private:
    const CkksContext &ctx_;
    const SecretKey &sk_;
    const KeyGenerator &keygen_;
};

} // namespace neo::ckks
