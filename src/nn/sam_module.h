// The spatial attention memory (SAM) module of NeuTraj (paper Sec. IV-C),
// shared by every SAM backbone. The backbone hands it a query state q (the
// LSTM's c^, the GRU's n~) and its spatial gate s:
//
//   A       = softmax(G_t q),  mix = G_t^T A               (read)
//   out     = q + s (*) tanh(W_his [q, mix] + b_his)       (fusion, Eq. 4)
//   M(cell) = s (*) v + (1 - s) (*) M(cell)                (write, Eq. 5)
//
// `G_t` holds the (2w+1)^2 scan-window slices of M around the current grid
// cell. Never-written cells are masked out of the softmax; when every cell
// of the window is unwritten the step degenerates to out = q. M is
// persistent state, as in the reference implementation: reads treat G_t as
// a constant (gradients flow through the attention weights and q, not into
// M) and writes are non-differentiable blends. The backbone chooses the
// value v written (the LSTM its cell state c, the GRU its hidden state h).
// The write uses the gate s directly, not sigma(s) (see DESIGN.md).

#ifndef NEUTRAJ_NN_SAM_MODULE_H_
#define NEUTRAJ_NN_SAM_MODULE_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "geo/grid.h"
#include "nn/attention.h"
#include "nn/memory_tensor.h"
#include "nn/parameter.h"

namespace neutraj::nn {

struct CellWorkspace;

/// Activations of one SAM read, saved for the backward pass.
struct SamReadTape {
  bool used = false;  ///< False when every window cell is unwritten (out = q).
  AttentionTape att;  ///< Read tape (G_t snapshot, A, mix).
  Vector c_his;       ///< Fusion-layer output tanh(W_his [q, mix] + b_his).
};

/// Owns the fusion layer (W_his, b_his) and runs the read, the fusion, their
/// backward, and the gated write.
class SamModule {
 public:
  /// Parameters are named `name`.Whis (h x 2h) and `name`.bhis (h x 1).
  SamModule(const std::string& name, size_t hidden_dim);

  /// Xavier W_his (one draw sequence from `rng`), zero b_his.
  void Initialize(Rng* rng);

  /// Reads `memory` over `window_cells` with query `q` and writes
  /// out = q + s (*) c_his into `out` (out = q when the whole window is
  /// unwritten). `ws` supplies the scratch; it must not be null.
  void Read(const MemoryTensor& memory, const std::vector<GridCell>& window_cells,
            const Vector& q, const Vector& s, SamReadTape* tape, Vector* out,
            CellWorkspace* ws) const;

  /// Backward of Read given dL/dout: overwrites `dq` with dL/dq and `ds`
  /// with dL/ds (post-activation; zero when the read was unused), and
  /// accumulates the fusion-layer gradients into `gwhis` / `gbhis`.
  void Backward(const SamReadTape& tape, const Vector& q, const Vector& s,
                const Vector& dout, Vector* dq, Vector* ds, Matrix* gwhis,
                Matrix* gbhis, CellWorkspace* ws) const;

  /// The gated write M(center) = s (*) value + (1 - s) (*) M(center):
  /// applied in place, or recorded in `write_log` when it is non-null (the
  /// deferred-write protocol of parallel training; see MemoryWriteLog).
  static void Write(MemoryTensor* memory, const GridCell& center,
                    const Vector& s, const Vector& value,
                    MemoryWriteLog* write_log);

  Param& whis() { return whis_; }
  Param& bhis() { return bhis_; }

 private:
  size_t hidden_;
  Param whis_;  // h x 2h: attention fusion layer.
  Param bhis_;  // h x 1.
};

}  // namespace neutraj::nn

#endif  // NEUTRAJ_NN_SAM_MODULE_H_
