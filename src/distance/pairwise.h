// Pair-wise distance matrix computation over a corpus.
//
// This is the seed-preparation step of NeuTraj (and the 6.5-hour bottleneck
// the paper motivates with): for N seed trajectories it computes the
// symmetric N x N matrix D of exact distances.

#ifndef NEUTRAJ_DISTANCE_PAIRWISE_H_
#define NEUTRAJ_DISTANCE_PAIRWISE_H_

#include <cstddef>
#include <vector>

#include "distance/measures.h"

namespace neutraj {

/// Dense symmetric distance matrix with zero diagonal.
class DistanceMatrix {
 public:
  DistanceMatrix() = default;
  explicit DistanceMatrix(size_t n) : n_(n), data_(n * n, 0.0) {}

  size_t size() const { return n_; }

  double At(size_t i, size_t j) const { return data_[i * n_ + j]; }

  /// Sets both (i,j) and (j,i).
  void Set(size_t i, size_t j, double d) {
    data_[i * n_ + j] = d;
    data_[j * n_ + i] = d;
  }

  /// Row i as a contiguous span start (length size()).
  const double* Row(size_t i) const { return data_.data() + i * n_; }

  /// Largest entry (0 for an empty matrix).
  double Max() const;

  /// Mean of the strictly-upper-triangle entries (0 if n < 2).
  double MeanOffDiagonal() const;

 private:
  size_t n_ = 0;
  std::vector<double> data_;
};

/// Computes all pair-wise distances of `trajs` under `fn`.
/// `fn` must be symmetric; only the upper triangle is evaluated.
DistanceMatrix ComputePairwiseDistances(const std::vector<Trajectory>& trajs,
                                        const DistanceFn& fn);

/// Convenience overload using the exact function for `m`.
DistanceMatrix ComputePairwiseDistances(const std::vector<Trajectory>& trajs,
                                        Measure m);

}  // namespace neutraj

#endif  // NEUTRAJ_DISTANCE_PAIRWISE_H_
