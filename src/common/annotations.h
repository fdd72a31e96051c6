/**
 * @file
 * Clang Thread Safety Analysis annotation macros.
 *
 * Neo's core invariant — bit-identical results at any thread/device
 * count — is enforced dynamically by the TSan legs and the determinism
 * suites, and *statically* by these annotations: every shared-state
 * module (ThreadPool, obs::Registry, the KLSS key's operand cache)
 * declares which capability (lock) guards which
 * member, and the clang `-Wthread-safety
 * -Wthread-safety-beta -Werror` CI leg rejects any access that the
 * analysis cannot prove is protected. Under gcc (or any non-clang
 * compiler) every macro expands to nothing, so the annotations are
 * free documentation.
 *
 * Conventions (see DESIGN.md "Thread-safety annotations & determinism
 * rules" for the full write-up):
 *
 *  - Mutex members use the annotated wrappers in common/mutex.h
 *    (`neo::Mutex`, `neo::SharedMutex`), never raw std types — the
 *    neo-lint `unannotated-mutex` rule enforces this tree-wide.
 *  - Every mutable member shared across threads carries
 *    `NEO_GUARDED_BY(mu)` naming its lock, or is a `std::atomic`.
 *  - Locks are taken through the RAII guards (`neo::LockGuard`,
 *    `neo::ReaderLock`, `neo::WriterLock`); naked `.lock()` /
 *    `.unlock()` calls are rejected by the `lock-discipline` rule.
 *  - Internal helpers that expect the caller to hold a lock are
 *    annotated `NEO_REQUIRES(mu)` instead of re-locking.
 *  - The few deliberate exceptions (leaked singletons and magic
 *    statics whose guarding lock is function-local and therefore not
 *    nameable in an attribute) carry
 *    `NEO_NO_THREAD_SAFETY_ANALYSIS` plus a comment stating the
 *    invariant that makes them safe.
 */
#pragma once

// clang's -Wthread-safety implements the capability attributes; other
// compilers (gcc builds in this repo) see empty expansions. The
// __has_attribute probe keeps very old clangs working too.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define NEO_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef NEO_THREAD_ANNOTATION
#define NEO_THREAD_ANNOTATION(x) // no-op off clang
#endif

/// Marks a type as a capability (lockable). The string names the
/// capability kind in diagnostics ("mutex", "shared_mutex").
#define NEO_CAPABILITY(x) NEO_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type whose constructor acquires and destructor
/// releases a capability (std::lock_guard shape).
#define NEO_SCOPED_CAPABILITY NEO_THREAD_ANNOTATION(scoped_lockable)

/// Member `x` may only be read or written while holding the named
/// capability (exclusively for writes, at least shared for reads).
#define NEO_GUARDED_BY(x) NEO_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member `x`: the *pointee* is guarded by the capability.
#define NEO_PT_GUARDED_BY(x) NEO_THREAD_ANNOTATION(pt_guarded_by(x))

/// The function may only be called while holding the capabilities
/// exclusively; it neither acquires nor releases them.
#define NEO_REQUIRES(...) \
    NEO_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Shared-ownership variant of NEO_REQUIRES (reader paths).
#define NEO_REQUIRES_SHARED(...) \
    NEO_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// The function acquires the capabilities exclusively and holds them
/// on return (Mutex::lock, guard constructors).
#define NEO_ACQUIRE(...) \
    NEO_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Shared-acquisition variant of NEO_ACQUIRE (reader locks).
#define NEO_ACQUIRE_SHARED(...) \
    NEO_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

/// The function releases capabilities the caller holds (Mutex::unlock,
/// guard destructors; releases either ownership mode).
#define NEO_RELEASE(...) \
    NEO_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Shared-release variant of NEO_RELEASE.
#define NEO_RELEASE_SHARED(...) \
    NEO_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

/// The function must NOT be called while holding the capabilities
/// (it acquires them itself; prevents self-deadlock).
#define NEO_EXCLUDES(...) \
    NEO_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// The function returns a reference to the named capability (lock
/// accessors).
#define NEO_RETURN_CAPABILITY(x) NEO_THREAD_ANNOTATION(lock_returned(x))

/// try_lock shape: acquires the capability iff the return value equals
/// the first argument.
#define NEO_TRY_ACQUIRE(...) \
    NEO_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/**
 * Opt this function out of the analysis entirely. Reserved for the
 * documented exceptions — leaked singletons and magic statics guarded
 * by function-local locks the attribute grammar cannot name. Every use
 * must carry a comment stating the invariant that makes it safe,
 * mirroring the documented `neo-lint: allow(...)` exceptions.
 */
#define NEO_NO_THREAD_SAFETY_ANALYSIS \
    NEO_THREAD_ANNOTATION(no_thread_safety_analysis)
