#include "distance/pairwise.h"

#include <algorithm>

namespace neutraj {

double DistanceMatrix::Max() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, v);
  return m;
}

double DistanceMatrix::MeanOffDiagonal() const {
  if (n_ < 2) return 0.0;
  double total = 0.0;
  size_t count = 0;
  for (size_t i = 0; i < n_; ++i) {
    for (size_t j = i + 1; j < n_; ++j) {
      total += At(i, j);
      ++count;
    }
  }
  return total / static_cast<double>(count);
}

DistanceMatrix ComputePairwiseDistances(const std::vector<Trajectory>& trajs,
                                        const DistanceFn& fn) {
  DistanceMatrix d(trajs.size());
  for (size_t i = 0; i < trajs.size(); ++i) {
    for (size_t j = i + 1; j < trajs.size(); ++j) {
      d.Set(i, j, fn(trajs[i], trajs[j]));
    }
  }
  return d;
}

DistanceMatrix ComputePairwiseDistances(const std::vector<Trajectory>& trajs,
                                        Measure m) {
  return ComputePairwiseDistances(trajs, ExactDistanceFn(m));
}

}  // namespace neutraj
