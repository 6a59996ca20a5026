// SAM-augmented LSTM cell (paper Sec. IV-B / IV-C).
//
// Extends the LSTM recurrence with a spatial gate s_t and the grid-based
// external memory M, read and written through the shared SamModule:
//
//   (f, i, s, o) = sigmoid(Wg x + Ug h_{t-1} + bg)          (Eq. 1)
//   c~           = tanh(Wc x + Uc h_{t-1} + bc)             (Eq. 2)
//   c^           = f (*) c_{t-1} + i (*) c~                 (Eq. 3)
//   c            = SamModule read on q = c^, gate s         (Eq. 4)
//   M(cell)      = s (*) c + (1 - s) (*) M(cell)            (Eq. 5, write)
//   h            = o (*) tanh(c)                            (Eq. 6)
//
// The NT-No-SAM ablation uses the plain LstmCell backbone instead
// (NeuTrajConfig::NoSam()).

#ifndef NEUTRAJ_NN_SAM_CELL_H_
#define NEUTRAJ_NN_SAM_CELL_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "geo/grid.h"
#include "nn/memory_tensor.h"
#include "nn/parameter.h"
#include "nn/sam_module.h"

namespace neutraj::nn {

struct CellWorkspace;

/// Per-step activations saved by Forward for the backward pass.
struct SamTape {
  Vector x;           ///< Coordinate input X_t^c (normalized).
  Vector h_prev;      ///< Previous hidden state.
  Vector c_prev;      ///< Previous cell state.
  Vector f, i, s, o;  ///< Post-activation gates (paper order).
  Vector c_tilde;     ///< Candidate state.
  Vector c_hat;       ///< Intermediate cell state (Eq. 3): the SAM query.
  SamReadTape sam;    ///< The SAM read of this step.
  Vector c;           ///< Final cell state.
  Vector tanh_c;      ///< tanh(c).
};

/// The SAM-augmented LSTM cell of NeuTraj.
class SamLstmCell {
 public:
  /// `input_dim` is 2 (normalized coordinates) in NeuTraj, kept generic for
  /// reuse/testing.
  SamLstmCell(const std::string& name, size_t input_dim, size_t hidden_dim);

  /// Xavier input weights, orthogonal recurrent blocks, forget bias = 1.
  void Initialize(Rng* rng);

  /// One recurrent step.
  ///
  /// `window_cells` is the scan window around the current grid cell (from
  /// Grid::ScanWindow) and `center` is the cell being visited. When
  /// `update_memory` is true the new cell state is written into `memory` at
  /// `center` — or recorded in `write_log` when it is non-null (see
  /// SamModule::Write). `ws` (optional) supplies reusable scratch so the hot
  /// path does not allocate per step.
  void Forward(const Vector& x, const Vector& h_prev, const Vector& c_prev,
               const std::vector<GridCell>& window_cells, const GridCell& center,
               MemoryTensor* memory, bool update_memory, SamTape* tape,
               Vector* h, Vector* c, CellWorkspace* ws = nullptr,
               MemoryWriteLog* write_log = nullptr) const;

  /// Backward through one step; mirror of LstmCell::Backward. When `sink` is
  /// non-null, parameter gradients accumulate there (aligned with Params()
  /// order) instead of the cell's own Param::grad.
  void Backward(const SamTape& tape, const Vector& dh, const Vector& dc_in,
                Vector* dh_prev_accum, Vector* dc_prev_accum,
                GradBuffer* sink = nullptr, CellWorkspace* ws = nullptr);

  size_t input_dim() const { return wg_.value.cols(); }
  size_t hidden_dim() const { return hidden_; }
  std::vector<Param*> Params() {
    return {&wg_, &ug_, &bg_, &wc_, &uc_, &bc_, &sam_.whis(), &sam_.bhis()};
  }

  /// Indices into Params() / a matching GradBuffer.
  static constexpr size_t kWg = 0, kUg = 1, kBg = 2, kWc = 3, kUc = 4, kBc = 5,
                          kWhis = 6, kBhis = 7;

 private:
  size_t hidden_;
  Param wg_;    // 4h x input: stacked (f, i, s, o) input weights.
  Param ug_;    // 4h x h: stacked recurrent weights.
  Param bg_;    // 4h x 1.
  Param wc_;    // h x input: candidate input weights.
  Param uc_;    // h x h.
  Param bc_;    // h x 1.
  SamModule sam_;
};

}  // namespace neutraj::nn

#endif  // NEUTRAJ_NN_SAM_CELL_H_
