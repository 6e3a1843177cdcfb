// Hard-invariant checks.
//
// The simulator is deterministic, so failed invariants indicate programming errors;
// TCPRX_CHECK aborts rather than attempting recovery. Every failure goes through one
// out-of-line, cold CheckFailed, so a check costs its caller a compare, and builds no
// message unless it fails.

#ifndef SRC_UTIL_LOGGING_H_
#define SRC_UTIL_LOGGING_H_

#include <string_view>

namespace tcprx {

// Prints "CHECK failed at <file>:<line>: <expr> <message>" to stderr and aborts.
[[noreturn, gnu::cold]] void CheckFailed(const char* file, int line, const char* expr,
                                         std::string_view message);

}  // namespace tcprx

#define TCPRX_CHECK(expr)                                  \
  do {                                                     \
    if (!(expr)) [[unlikely]] {                            \
      ::tcprx::CheckFailed(__FILE__, __LINE__, #expr, ""); \
    }                                                      \
  } while (0)

// `msg` is a string literal or a std::string, evaluated only when `expr` is false.
#define TCPRX_CHECK_MSG(expr, msg)                          \
  do {                                                      \
    if (!(expr)) [[unlikely]] {                             \
      ::tcprx::CheckFailed(__FILE__, __LINE__, #expr, msg); \
    }                                                       \
  } while (0)

#endif  // SRC_UTIL_LOGGING_H_
