// Clang thread-safety (capability) analysis macros — the compile-time half
// of the repo's concurrency contract. Every lock-protected structure
// declares who guards what (GUARDED_BY), every internal helper that
// assumes a held lock says so (REQUIRES), and the CI job that builds with
//   clang++ -Werror=thread-safety -Wthread-safety-beta
// turns the docs/ARCHITECTURE.md mutex table into a build failure when
// code and contract drift apart. Under GCC (and any compiler without the
// capability attributes) every macro expands to nothing, so the
// annotations are zero-cost documentation there.
//
// The analysis only understands capability-annotated types, and
// libstdc++'s std::mutex carries no attributes — which is why the repo
// locks through the annotated wrappers in common/mutex.h (Mutex /
// MutexLock / CondVar) instead of std::mutex directly.
//
// Macro vocabulary (the standard Clang/Abseil set):
//   CAPABILITY(name)       class is a capability (e.g. "mutex")
//   SCOPED_CAPABILITY      RAII class that acquires on ctor, releases on dtor
//   GUARDED_BY(mu)         field may only be touched while holding mu
//   PT_GUARDED_BY(mu)      pointee may only be touched while holding mu
//   REQUIRES(mu)           caller must hold mu (FooLocked() helpers);
//                          REQUIRES(!mu) = caller must NOT hold it
//   ACQUIRE(mu)/RELEASE(mu) function takes/drops the capability
//   EXCLUDES(mu)           caller must not hold mu (deadlock guard)
//   ASSERT_CAPABILITY(mu)  runtime assertion that mu is held
//   RETURN_CAPABILITY(mu)  function returns a reference to mu
//   NO_THREAD_SAFETY_ANALYSIS  escape hatch; forbidden in repo headers
//                          (the tools/lint_invariants.py contract)
#ifndef ZIDIAN_COMMON_THREAD_ANNOTATIONS_H_
#define ZIDIAN_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__)
#define ZIDIAN_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define ZIDIAN_THREAD_ANNOTATION__(x)  // no-op: GCC et al.
#endif

#define CAPABILITY(x) ZIDIAN_THREAD_ANNOTATION__(capability(x))

#define SCOPED_CAPABILITY ZIDIAN_THREAD_ANNOTATION__(scoped_lockable)

#define GUARDED_BY(x) ZIDIAN_THREAD_ANNOTATION__(guarded_by(x))

#define PT_GUARDED_BY(x) ZIDIAN_THREAD_ANNOTATION__(pt_guarded_by(x))

#define ACQUIRED_BEFORE(...) \
  ZIDIAN_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))

#define ACQUIRED_AFTER(...) \
  ZIDIAN_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))

#define REQUIRES(...) \
  ZIDIAN_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

#define REQUIRES_SHARED(...) \
  ZIDIAN_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

#define ACQUIRE(...) \
  ZIDIAN_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

#define ACQUIRE_SHARED(...) \
  ZIDIAN_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))

#define RELEASE(...) \
  ZIDIAN_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

#define RELEASE_SHARED(...) \
  ZIDIAN_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))

#define RELEASE_GENERIC(...) \
  ZIDIAN_THREAD_ANNOTATION__(release_generic_capability(__VA_ARGS__))

#define TRY_ACQUIRE(...) \
  ZIDIAN_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))

#define TRY_ACQUIRE_SHARED(...) \
  ZIDIAN_THREAD_ANNOTATION__(try_acquire_shared_capability(__VA_ARGS__))

#define EXCLUDES(...) ZIDIAN_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

#define ASSERT_CAPABILITY(x) ZIDIAN_THREAD_ANNOTATION__(assert_capability(x))

#define ASSERT_SHARED_CAPABILITY(x) \
  ZIDIAN_THREAD_ANNOTATION__(assert_shared_capability(x))

#define RETURN_CAPABILITY(x) ZIDIAN_THREAD_ANNOTATION__(lock_returned(x))

#define NO_THREAD_SAFETY_ANALYSIS \
  ZIDIAN_THREAD_ANNOTATION__(no_thread_safety_analysis)

#endif  // ZIDIAN_COMMON_THREAD_ANNOTATIONS_H_
