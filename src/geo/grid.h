// Grid discretization of the plane.
//
// The SAM module stores one embedding per grid cell; the paper uses 50m x 50m
// cells over a city's center area. `Grid` maps continuous coordinates to
// integer cells and provides the scan window used by the spatial attention
// reader, as well as normalized coordinates used as RNN inputs.

#ifndef NEUTRAJ_GEO_GRID_H_
#define NEUTRAJ_GEO_GRID_H_

#include <cstdint>
#include <vector>

#include "geo/trajectory.h"

namespace neutraj {

/// Integer grid cell coordinates (column px along x, row qy along y).
struct GridCell {
  int32_t px = 0;
  int32_t qy = 0;

  friend bool operator==(const GridCell& a, const GridCell& b) {
    return a.px == b.px && a.qy == b.qy;
  }
};

/// Uniform P x Q grid over a bounding region.
///
/// Points outside the region are clamped to the border cells, mirroring the
/// paper's preprocessing that restricts trajectories to the city center.
class Grid {
 public:
  /// Builds a grid of `cell_size`-sized cells covering `region`.
  Grid(const BoundingBox& region, double cell_size);

  /// Builds a grid with explicit cell counts covering `region`.
  Grid(const BoundingBox& region, int32_t num_cols, int32_t num_rows);

  int32_t num_cols() const { return num_cols_; }  ///< P: cells along x.
  int32_t num_rows() const { return num_rows_; }  ///< Q: cells along y.
  const BoundingBox& region() const { return region_; }
  double cell_width() const { return cell_w_; }
  double cell_height() const { return cell_h_; }

  /// Maps a point to its (clamped) grid cell.
  GridCell CellOf(const Point& p) const;

  /// Center coordinates of a cell.
  Point CellCenter(const GridCell& c) const;

  /// Flattened index of a cell in row-major order: qy * num_cols + px.
  int64_t FlatIndex(const GridCell& c) const {
    return static_cast<int64_t>(c.qy) * num_cols_ + c.px;
  }

  int64_t NumCells() const {
    return static_cast<int64_t>(num_cols_) * num_rows_;
  }

  /// Normalizes a point into [0,1]^2 relative to the grid region; used as
  /// the coordinate input X_t^c of the RNN so training is scale-free.
  Point Normalize(const Point& p) const;

  /// Enumerates the (2w+1)^2 cells of the scan window centered at `c`,
  /// clamped to the grid. Cells are listed row-major; cells that fall
  /// outside the grid are clamped to the border (duplicates possible, as a
  /// border effect of the paper's fixed-size window).
  std::vector<GridCell> ScanWindow(const GridCell& c, int32_t w) const;

  /// Allocation-free variant: fills `out` (cleared first) with the same
  /// cells as ScanWindow, reusing its capacity across calls.
  void ScanWindowInto(const GridCell& c, int32_t w,
                      std::vector<GridCell>* out) const;

 private:
  BoundingBox region_;
  double cell_w_ = 1.0;
  double cell_h_ = 1.0;
  int32_t num_cols_ = 1;
  int32_t num_rows_ = 1;
};

}  // namespace neutraj

#endif  // NEUTRAJ_GEO_GRID_H_
