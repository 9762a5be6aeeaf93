// Clang thread-safety annotation macros (no-ops on other compilers).
//
// These wrap Clang's capability-analysis attributes so the locking
// discipline of every concurrent structure in the repo — which mutex guards
// which member, which functions must (or must not) be called with a lock
// held — is stated in the code and checked by `-Wthread-safety` in the
// Clang CI build instead of by review. The analysis only understands
// annotated capability types, so the repo locks through util/mutex.h
// (Mutex / MutexLock / CondVar), never raw std::mutex.
//
// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html

#ifndef BUNDLEMINE_UTIL_THREAD_ANNOTATIONS_H_
#define BUNDLEMINE_UTIL_THREAD_ANNOTATIONS_H_

#if defined(__clang__)
#define BM_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define BM_THREAD_ANNOTATION(x)  // no-op on GCC/MSVC
#endif

/// Declares a type to be a capability (a lock). Argument: a name for
/// diagnostics, e.g. CAPABILITY("mutex").
#define CAPABILITY(x) BM_THREAD_ANNOTATION(capability(x))

/// Declares an RAII type whose construction acquires and destruction
/// releases a capability.
#define SCOPED_CAPABILITY BM_THREAD_ANNOTATION(scoped_lockable)

/// Data member protected by the given capability: reads require the
/// capability held (shared or exclusive), writes require it exclusive.
#define GUARDED_BY(x) BM_THREAD_ANNOTATION(guarded_by(x))

/// Function precondition: the listed capabilities are held on entry (and
/// still held on exit).
#define REQUIRES(...) BM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function precondition: the listed capabilities are NOT held on entry —
/// the function acquires them itself (deadlock documentation).
#define EXCLUDES(...) BM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function acquires the listed capabilities and holds them on exit.
#define ACQUIRE(...) BM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the listed capabilities (held on entry).
#define RELEASE(...) BM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

#endif  // BUNDLEMINE_UTIL_THREAD_ANNOTATIONS_H_
