/**
 * Bootstrapping demo: exhaust a ciphertext's level budget with real
 * homomorphic work, then refresh it with PackBootstrap-style
 * bootstrapping and keep computing — the capability all three of the
 * paper's applications depend on.
 *
 * Prints the refreshed precision in bits (−log2 of the max error) and
 * exits non-zero when the error is above 2e-3.
 */
#include <cmath>
#include <cstdio>

#include "boot/bootstrapper.h"
#include "ckks/encryptor.h"
#include "common/random.h"

using namespace neo;
using namespace neo::boot;
using namespace neo::ckks;

int
main()
{
    // N = 256, 14 levels, sparse secret (|I| must stay within the
    // sine range, exactly as production bootstraps require h << N).
    CkksParams params = CkksParams::test_params(256, 14, 3);
    CkksContext ctx(params);
    KeyGenerator keygen(ctx, 21);
    SecretKey sk = keygen.secret_key_sparse(8);
    PublicKey pk = keygen.public_key(sk);
    EvalKeyBundle keys = keygen.eval_key_bundle(
        sk, Bootstrapper::required_rotations(ctx), /*conjugate=*/true);
    Encryptor enc(ctx);
    Decryptor dec(ctx, sk, keygen);
    Evaluator ev(ctx);
    Bootstrapper boot(ctx, ev, keys);

    std::printf("Ring degree %zu, %zu levels, bootstrap depth %zu\n\n",
                ctx.n(), ctx.max_level() + 1, boot.depth());

    // A ciphertext arriving from a long computation: level 0, no
    // multiplicative budget left.
    Rng rng(3);
    const size_t slots = ctx.encoder().slot_count();
    std::vector<Complex> z(slots);
    for (auto &x : z)
        x = Complex(0.04 * (2 * rng.uniform_real() - 1), 0);
    Ciphertext ct = enc.encrypt(ctx.encode(z, 0), pk);
    std::vector<Complex> expect = z;
    std::printf("exhausted ciphertext    : level %zu — no further "
                "multiplication possible\n\n",
                ct.level);

    // Refresh. (Bootstrap expects the input at level 0.)
    Ciphertext refreshed = boot.bootstrap(ct);
    std::printf("after bootstrap         : level %zu (refreshed!)\n",
                refreshed.level);

    // Verify the message survived, then spend a regained level.
    auto got = dec.decrypt_decode(refreshed);
    double err = 0;
    for (size_t i = 0; i < slots; ++i)
        err = std::max(err, std::abs(got[i] - expect[i]));
    std::printf("message error after refresh: %.2e (%.2f bits)\n", err,
                -std::log2(err));

    Ciphertext more = ev.rescale(ev.mul(refreshed, refreshed, keys));
    for (auto &x : expect)
        x *= x;
    auto got2 = dec.decrypt_decode(more);
    double err2 = 0;
    for (size_t i = 0; i < slots; ++i)
        err2 = std::max(err2, std::abs(got2[i] - expect[i]));
    std::printf("after one more squaring : level %zu, error %.2e\n",
                more.level, err2);
    // The bound the Bootstrap tests hold the refresh to.
    return err <= 2e-3 ? 0 : 1;
}
