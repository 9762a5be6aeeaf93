// Lightweight CHECK macros in the spirit of absl/glog.
//
// CHECK(cond) aborts with a message when `cond` is false, in all build modes.
// DCHECK(cond) is compiled out in NDEBUG builds.
//
// The library does not throw exceptions across its public boundary; programming
// errors (precondition violations) terminate via these macros, while data-level
// failures are reported through return values.

#ifndef BUNDLEMINE_UTIL_CHECK_H_
#define BUNDLEMINE_UTIL_CHECK_H_

#include <cstdio>
#include <cstdlib>

namespace bundlemine {
namespace internal {

[[noreturn]] inline void CheckFailed(const char* expr, const char* file, int line,
                                     const char* msg) {
  std::fprintf(stderr, "CHECK failed: %s at %s:%d%s%s\n", expr, file, line,
               (msg != nullptr && msg[0] != '\0') ? " — " : "",
               (msg != nullptr) ? msg : "");
  std::abort();
}

}  // namespace internal
}  // namespace bundlemine

#define BM_CHECK(cond)                                                      \
  do {                                                                      \
    if (!(cond)) {                                                          \
      ::bundlemine::internal::CheckFailed(#cond, __FILE__, __LINE__, "");   \
    }                                                                       \
  } while (0)

#define BM_CHECK_MSG(cond, msg)                                             \
  do {                                                                      \
    if (!(cond)) {                                                          \
      ::bundlemine::internal::CheckFailed(#cond, __FILE__, __LINE__, msg);  \
    }                                                                       \
  } while (0)

#define BM_CHECK_GE(a, b) BM_CHECK((a) >= (b))
#define BM_CHECK_GT(a, b) BM_CHECK((a) > (b))
#define BM_CHECK_LE(a, b) BM_CHECK((a) <= (b))
#define BM_CHECK_LT(a, b) BM_CHECK((a) < (b))
#define BM_CHECK_EQ(a, b) BM_CHECK((a) == (b))

#ifdef NDEBUG
#define BM_DCHECK(cond) \
  do {                  \
  } while (0)
#else
#define BM_DCHECK(cond) BM_CHECK(cond)
#endif

#endif  // BUNDLEMINE_UTIL_CHECK_H_
