#include "src/util/logging.h"

#include <cstdio>
#include <cstdlib>

namespace tcprx {

void CheckFailed(const char* file, int line, const char* expr, std::string_view message) {
  std::fprintf(stderr, "CHECK failed at %s:%d: %s %.*s\n", file, line, expr,
               static_cast<int>(message.size()), message.data());
  std::abort();
}

}  // namespace tcprx
