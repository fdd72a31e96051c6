/**
 * Private database lookup: the server holds a plaintext table and
 * answers an *encrypted* query index without learning it — a
 * LinearTransform with the table as the matrix, applied to an
 * encrypted one-hot selector. Demonstrates the homomorphic
 * matrix-vector machinery that CoeffToSlot/SlotToCoeff (and any
 * encrypted embedding/attention layer) is built from.
 */
#include <cstdio>

#include "ckks/encryptor.h"
#include "ckks/linear_transform.h"
#include "common/random.h"

using namespace neo;
using namespace neo::ckks;

int
main()
{
    CkksParams params = CkksParams::test_params(256, 5, 2);
    CkksContext ctx(params);
    KeyGenerator keygen(ctx, 55);
    SecretKey sk = keygen.secret_key();
    PublicKey pk = keygen.public_key(sk);
    const size_t slots = ctx.encoder().slot_count();

    // Server-side table: record r = feature vector spread across the
    // matrix row (here a deterministic "salary/score/rating" triple
    // packed into the first columns).
    std::vector<Complex> table(slots * slots, Complex(0, 0));
    for (size_t r = 0; r < slots; ++r) {
        table[r * slots + r] = 0.001 * static_cast<double>(r) + 0.1;
    }
    // Transpose convention: y = M z with z the one-hot query; column
    // q of M is record q. Fill M accordingly.
    std::vector<Complex> m(slots * slots, Complex(0, 0));
    for (size_t q = 0; q < slots; ++q) {
        const double record = 0.001 * static_cast<double>(q) + 0.1;
        for (size_t out = 0; out < 3; ++out)
            m[out * slots + q] =
                record * (1.0 + 0.5 * static_cast<double>(out));
    }
    LinearTransform lt(m, slots);

    // Galois keys for exactly the rotations the transform takes.
    EvalKeyBundle keys = keygen.eval_key_bundle(sk, lt.required_rotations());

    // Client: encrypt a one-hot query for record 42.
    const size_t query = 42;
    std::vector<Complex> onehot(slots, Complex(0, 0));
    onehot[query] = Complex(1, 0);
    Encryptor enc(ctx);
    Decryptor dec(ctx, sk, keygen);
    Evaluator ev(ctx);
    Ciphertext ct = enc.encrypt(ctx.encode(onehot, 5), pk);

    // Server: answer without decrypting.
    Ciphertext answer = lt.apply(ev, ctx, ct, keys);

    // Client: decrypt the three response slots.
    auto got = dec.decrypt_decode(answer);
    const double record = 0.001 * static_cast<double>(query) + 0.1;
    std::printf("private lookup of record %zu:\n", query);
    for (size_t out = 0; out < 3; ++out) {
        const double want = record * (1.0 + 0.5 * static_cast<double>(out));
        std::printf("  field %zu: %.6f (expected %.6f)\n", out,
                    got[out].real(), want);
    }
    std::printf("\nThe server executed %zu rotations + %zu diagonal "
                "multiplies without ever seeing the query index.\n",
                lt.required_rotations().size(), slots);
    return 0;
}
