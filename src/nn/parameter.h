// Trainable parameter container and serialization.

#ifndef NEUTRAJ_NN_PARAMETER_H_
#define NEUTRAJ_NN_PARAMETER_H_

#include <string>
#include <vector>

#include "nn/matrix.h"

namespace neutraj::nn {

/// A named trainable tensor (matrix or, with cols == 1, a bias vector)
/// paired with its gradient accumulator.
struct Param {
  std::string name;
  Matrix value;
  Matrix grad;

  Param() = default;
  Param(std::string n, size_t rows, size_t cols)
      : name(std::move(n)), value(rows, cols), grad(rows, cols) {}
};

/// A detached gradient accumulator shaped like a parameter set.
///
/// Parallel training gives every in-flight anchor its own GradBuffer so
/// backward passes never touch the shared Param::grad matrices; the trainer
/// reduces the buffers into the shared gradients in a fixed anchor order,
/// which makes the batch gradient independent of thread interleaving.
class GradBuffer {
 public:
  GradBuffer() = default;
  /// Allocates zeroed buffers matching the shapes of `params`.
  explicit GradBuffer(const std::vector<Param*>& params);

  size_t size() const { return mats_.size(); }
  bool empty() const { return mats_.empty(); }
  Matrix& at(size_t i) { return mats_[i]; }
  const Matrix& at(size_t i) const { return mats_[i]; }

  void Zero();

  /// params[i]->grad += buffer[i]. Throws std::invalid_argument on a shape
  /// or arity mismatch.
  void AddTo(const std::vector<Param*>& params) const;

 private:
  std::vector<Matrix> mats_;
};

/// Zeroes the gradients of all `params`.
void ZeroGrads(const std::vector<Param*>& params);

/// Global L2 norm of all gradients (for clipping diagnostics).
double GradNorm(const std::vector<Param*>& params);

/// Scales all gradients so their global norm is at most `max_norm`.
/// Returns the pre-clip norm.
double ClipGradNorm(const std::vector<Param*>& params, double max_norm);

/// True if any parameter *value* is NaN or Inf — the divergence watchdog's
/// post-optimizer-step scan.
bool HasNonFiniteValues(const std::vector<Param*>& params);

/// Serializes parameter values (not grads) to a text block:
///   name rows cols\n v v v ...\n per param.
std::string SerializeParams(const std::vector<const Param*>& params);

/// Restores values into `params` (matched by order; names/shapes verified).
/// Throws std::runtime_error on mismatch or parse failure.
void DeserializeParams(const std::string& text, const std::vector<Param*>& params);

class MemoryTensor;

/// Serializes SAM memory values for the model and checkpoint "memory"
/// sections: `count\n v v ...`. A null `memory` (a backbone without SAM)
/// writes a zero count.
std::string SerializeMemory(const MemoryTensor* memory);

/// Restores values written by SerializeMemory into `memory` (null for a
/// backbone without SAM) and recomputes its written flags. Throws
/// std::runtime_error prefixed with `source` on a malformed section or a
/// size mismatch.
void DeserializeMemory(const std::string& text, MemoryTensor* memory,
                       const std::string& source);

}  // namespace neutraj::nn

#endif  // NEUTRAJ_NN_PARAMETER_H_
