// Invariant-contract macros for the numerical core.
//
// Two tiers:
//
//   NEUTRAJ_ASSERT(cond)            -- always compiled in, every build type.
//   NEUTRAJ_ASSERT_MSG(cond, msg)      For invariants whose violation means
//                                      the process must not continue (a
//                                      corrupted SAM memory write, an
//                                      out-of-bounds memory slot). Prints the
//                                      failed expression with file:line to
//                                      stderr and aborts, so violations are
//                                      loud in production and testable with
//                                      gtest death tests.
//
//   NEUTRAJ_DCHECK(cond)            -- compiled in only when the NEUTRAJ_CHECKS
//   NEUTRAJ_DCHECK_MSG(cond, msg)      CMake option is ON (it defines
//   NEUTRAJ_DCHECK_FINITE(seq)         NEUTRAJ_CHECKS). For per-element and
//   NEUTRAJ_DCHECK_SHAPE(m, r, c)      per-step validation that is too hot for
//                                      release builds: kernel shapes,
//                                      finiteness of activations/gradients,
//                                      SAM window bounds. In release builds
//                                      the condition sits behind `if (false)`,
//                                      so it still type-checks (no bit-rot)
//                                      but is never evaluated and the
//                                      optimizer removes it entirely — zero
//                                      runtime overhead, no unused-variable
//                                      warnings.
//
// Checked-build contract: a NEUTRAJ_CHECKS binary validates dimensions,
// finiteness and memory bounds at every kernel boundary, so a silent gradient
// or shape bug aborts at the first corrupted value instead of degrading
// embedding quality invisibly. CI runs the full test suite in both modes.

#ifndef NEUTRAJ_COMMON_CHECK_H_
#define NEUTRAJ_COMMON_CHECK_H_

#include <cmath>
#include <cstddef>

namespace neutraj::check_internal {

/// Prints "<macro> failed: <expr> (<msg>) at <file>:<line>" to stderr and
/// aborts. Out of line so the macro expansion stays small.
[[noreturn]] void CheckFailed(const char* macro, const char* expr,
                              const char* file, int line, const char* msg);

/// True when every element of `seq` (any range of doubles) is finite.
template <typename Seq>
bool AllFinite(const Seq& seq) {
  for (const double v : seq) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

inline bool AllFinite(double v) { return std::isfinite(v); }

/// True while at least one ScopedSuspendFiniteChecks is alive.
bool FiniteChecksSuspended();

/// NEUTRAJ_DCHECK_FINITE passes vacuously while suspended.
template <typename Seq>
bool FiniteOrSuspended(const Seq& seq) {
  return FiniteChecksSuspended() || AllFinite(seq);
}

}  // namespace neutraj::check_internal

namespace neutraj {

/// Suspends NEUTRAJ_DCHECK_FINITE for the lifetime of the object (process
/// wide — the divergence watchdog's anchors run on pool threads).
///
/// The trainer's divergence watchdog *intentionally* lets non-finite values
/// flow through a diverged epoch so it can detect them at the batch commit
/// and roll back to the last good state. In a NEUTRAJ_CHECKS build the
/// finiteness contracts would abort at the first NaN activation, before the
/// watchdog ever sees it — so Trainer::Train suspends them while the
/// watchdog is armed. Shape and bounds checks are never suspended.
class ScopedSuspendFiniteChecks {
 public:
  /// `active == false` constructs a no-op guard (watchdog disabled).
  explicit ScopedSuspendFiniteChecks(bool active = true);
  ~ScopedSuspendFiniteChecks();
  ScopedSuspendFiniteChecks(const ScopedSuspendFiniteChecks&) = delete;
  ScopedSuspendFiniteChecks& operator=(const ScopedSuspendFiniteChecks&) = delete;

 private:
  bool active_;
};

}  // namespace neutraj

#define NEUTRAJ_ASSERT_MSG(cond, msg)                                       \
  do {                                                                      \
    if (!(cond)) {                                                          \
      ::neutraj::check_internal::CheckFailed("NEUTRAJ_ASSERT", #cond,       \
                                             __FILE__, __LINE__, (msg));    \
    }                                                                       \
  } while (false)

#define NEUTRAJ_ASSERT(cond) NEUTRAJ_ASSERT_MSG(cond, "")

#ifdef NEUTRAJ_CHECKS

#define NEUTRAJ_DCHECK_MSG(cond, msg)                                       \
  do {                                                                      \
    if (!(cond)) {                                                          \
      ::neutraj::check_internal::CheckFailed("NEUTRAJ_DCHECK", #cond,       \
                                             __FILE__, __LINE__, (msg));    \
    }                                                                       \
  } while (false)

#else  // !NEUTRAJ_CHECKS

// `if (false)` keeps the condition compiling (so checked-only expressions
// cannot bit-rot) without ever evaluating it; dead-code elimination removes
// the whole statement in optimized builds.
#define NEUTRAJ_DCHECK_MSG(cond, msg)                                       \
  do {                                                                      \
    if (false) {                                                            \
      static_cast<void>(cond);                                              \
      static_cast<void>(msg);                                               \
    }                                                                       \
  } while (false)

#endif  // NEUTRAJ_CHECKS

#define NEUTRAJ_DCHECK(cond) NEUTRAJ_DCHECK_MSG(cond, "")

/// Every element of `seq` (a range of doubles, or a single double) is finite.
/// Passes vacuously inside a ScopedSuspendFiniteChecks scope (the divergence
/// watchdog owns non-finite detection there).
#define NEUTRAJ_DCHECK_FINITE(seq)                                      \
  NEUTRAJ_DCHECK_MSG(::neutraj::check_internal::FiniteOrSuspended(seq), \
                     #seq " must be finite")

/// Matrix `m` has exactly `r` x `c` entries.
#define NEUTRAJ_DCHECK_SHAPE(m, r, c)                                  \
  NEUTRAJ_DCHECK_MSG((m).rows() == static_cast<size_t>(r) &&           \
                         (m).cols() == static_cast<size_t>(c),         \
                     #m " must be " #r " x " #c)

#endif  // NEUTRAJ_COMMON_CHECK_H_
