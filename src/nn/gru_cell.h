// GRU cell, optionally augmented with the spatial attention memory.
//
// The paper presents SAM on an LSTM backbone but states the module
// "augments existing recurrent neural networks (GRU, LSTM)". This cell
// realizes the GRU instantiation. The GRU has no separate cell state, so
// the shared SamModule reads on the candidate state n~ (the natural analog
// of the LSTM's intermediate cell state c^) and the write stores h_t:
//
//   (r, z, s) = sigmoid(Wg x + Ug h_{t-1} + bg)
//   n~        = tanh(Wn x + Un (r (*) h_{t-1}) + bn)
//   n'        = SamModule read on q = n~, gate s
//   h_t       = (1 - z) (*) n' + z (*) h_{t-1}
//   M(cell)   = s (*) h_t + (1 - s) (*) M(cell)            (write)
//
// Without a memory (Forward's `memory` null) this is a standard GRU
// (n' = n~) with an inert s gate and fusion layer: the plain kGru backbone.

#ifndef NEUTRAJ_NN_GRU_CELL_H_
#define NEUTRAJ_NN_GRU_CELL_H_

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
struct GruTape {
  Vector x;          ///< Step input.
  Vector h_prev;     ///< Previous hidden state.
  Vector r, z, s;    ///< Post-activation gates.
  Vector rh;         ///< r (*) h_prev (input of the candidate).
  Vector n_tilde;    ///< Candidate state: the SAM query.
  SamReadTape sam;   ///< The SAM read of this step (unused without memory).
  Vector n_prime;    ///< Candidate after the memory injection.
};

/// GRU recurrence with optional SAM augmentation.
class SamGruCell {
 public:
  SamGruCell(const std::string& name, size_t input_dim, size_t hidden_dim);

  /// Xavier input weights, orthogonal recurrent blocks, spatial-gate bias
  /// -2 (same warm-start as SamLstmCell).
  void Initialize(Rng* rng);

  /// One recurrent step; see SamLstmCell::Forward for the contract
  /// (including the `ws` scratch and `write_log` deferred-write options).
  /// With a null `memory` the step is a plain GRU step and `window_cells`,
  /// `center` and `update_memory` are ignored.
  void Forward(const Vector& x, const Vector& h_prev,
               const std::vector<GridCell>& window_cells, const GridCell& center,
               MemoryTensor* memory, bool update_memory, GruTape* tape,
               Vector* h, CellWorkspace* ws = nullptr,
               MemoryWriteLog* write_log = nullptr) const;

  /// Backward through one step: accumulates parameter gradients (into `sink`
  /// when non-null, aligned with Params() order) and adds dL/dh_{t-1} into
  /// `dh_prev_accum`.
  void Backward(const GruTape& tape, const Vector& dh, Vector* dh_prev_accum,
                GradBuffer* sink = nullptr, CellWorkspace* ws = nullptr);

  size_t input_dim() const { return wg_.value.cols(); }
  size_t hidden_dim() const { return hidden_; }
  std::vector<Param*> Params() {
    return {&wg_, &ug_, &bg_, &wn_, &un_, &bn_, &sam_.whis(), &sam_.bhis()};
  }

  /// Indices into Params() / a matching GradBuffer.
  static constexpr size_t kWg = 0, kUg = 1, kBg = 2, kWn = 3, kUn = 4, kBn = 5,
                          kWhis = 6, kBhis = 7;

 private:
  size_t hidden_;
  Param wg_;    // 3h x input: stacked (r, z, s) input weights.
  Param ug_;    // 3h x h.
  Param bg_;    // 3h x 1.
  Param wn_;    // h x input: candidate input weights.
  Param un_;    // h x h.
  Param bn_;    // h x 1.
  SamModule sam_;
};

}  // namespace neutraj::nn

#endif  // NEUTRAJ_NN_GRU_CELL_H_
