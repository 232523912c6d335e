// Always-on checks for config and API boundaries. An assert() compiles
// out under NDEBUG, which every bench and tier-1 build defines, so a
// precondition whose violation would divide by zero, index past a table
// or loop forever is checked here instead: it prints "<where>: <what>"
// to stderr and aborts in every build type.
#ifndef WIMPY_COMMON_CHECK_H_
#define WIMPY_COMMON_CHECK_H_

#include <cstdio>
#include <cstdlib>

namespace wimpy {

inline void Check(bool ok, const char* where, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "%s: %s\n", where, what);
  std::abort();
}

}  // namespace wimpy

#endif  // WIMPY_COMMON_CHECK_H_
