#include "common/check.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace neutraj {
namespace {

// Process-wide: the watchdog's anchors run on pool threads, so a
// thread-local flag set by the trainer thread would not reach them.
std::atomic<int> g_finite_checks_suspended{0};

}  // namespace

ScopedSuspendFiniteChecks::ScopedSuspendFiniteChecks(bool active)
    : active_(active) {
  if (active_) {
    g_finite_checks_suspended.fetch_add(1, std::memory_order_relaxed);
  }
}

ScopedSuspendFiniteChecks::~ScopedSuspendFiniteChecks() {
  if (active_) {
    g_finite_checks_suspended.fetch_sub(1, std::memory_order_relaxed);
  }
}

}  // namespace neutraj

namespace neutraj::check_internal {

bool FiniteChecksSuspended() {
  return g_finite_checks_suspended.load(std::memory_order_relaxed) != 0;
}

void CheckFailed(const char* macro, const char* expr, const char* file,
                 int line, const char* msg) {
  if (msg != nullptr && msg[0] != '\0') {
    std::fprintf(stderr, "%s failed: %s (%s) at %s:%d\n", macro, expr, msg,
                 file, line);
  } else {
    std::fprintf(stderr, "%s failed: %s at %s:%d\n", macro, expr, file, line);
  }
  std::fflush(stderr);
  std::abort();
}

}  // namespace neutraj::check_internal
