// Reusable per-worker scratch for the recurrent hot paths.
//
// Every recurrent step used to allocate ~10 short-lived vectors (gate
// pre-activations, candidate pre-activations, concatenations, attention
// gather buffers, ...). A CellWorkspace owns all of them once, together with
// the step tape an encode without a caller tape records into; the cells'
// Forward/Backward and the SamModule resize-in-place, so after the first
// step of the first trajectory the steady state is allocation-free. One
// workspace serves one thread: concurrent encodes must each bring their own.

#ifndef NEUTRAJ_NN_WORKSPACE_H_
#define NEUTRAJ_NN_WORKSPACE_H_

#include <vector>

#include "geo/grid.h"
#include "nn/gru_cell.h"
#include "nn/lstm_cell.h"
#include "nn/matrix.h"
#include "nn/sam_cell.h"

namespace neutraj::nn {

/// Scratch buffers shared by LstmCell / SamLstmCell / SamGruCell, the
/// SamModule and the Encoder's unroll loop. Members keep their capacity
/// across steps, trajectories and anchors.
struct CellWorkspace {
  // -- Forward scratch --------------------------------------------------------
  Vector pre;       ///< Stacked gate pre-activations (4h or 3h).
  Vector cand_pre;  ///< Candidate pre-activations (h).
  Vector ccat;      ///< [query, attention mix] concatenation (2h).
  Vector his_pre;   ///< Attention-fusion pre-activations (h).
  Vector x;         ///< Normalized step input (2).
  std::vector<char> mask;           ///< Written-cell mask of the scan window.
  std::vector<GridCell> window;     ///< Scan-window cells around the step.

  // -- Backward scratch -------------------------------------------------------
  Vector dc;         ///< dL/dc of the current step (h).
  Vector dc_hat;     ///< dL/dc^ (h).
  Vector ds_post;    ///< Post-activation spatial-gate gradient (h).
  Vector dpre;       ///< Stacked pre-activation gradients (4h or 3h).
  Vector dcand_pre;  ///< Candidate pre-activation gradients (h).
  Vector dccat;      ///< Gradient of the concatenation (2h).
  Vector dmix;       ///< Gradient of the attention mix (h).
  Vector dz;         ///< Fusion-layer pre-activation gradient (h).
  Vector dz_post;    ///< Post-activation update-gate gradient (GRU only, h).
  Vector drh;        ///< Gradient of r (*) h_prev (GRU only, h).
  Vector att_da;     ///< Attention logits gradient ((2w+1)^2).
  Vector att_du;     ///< Attention softmax input gradient ((2w+1)^2).

  // -- Encoder unroll state ---------------------------------------------------
  Vector h, c, h_next, c_next;  ///< Hidden/cell state double buffers.
  Vector dh, dc_in, dh_prev, dc_prev;  ///< BPTT state double buffers.
  /// The step tape of an encode without a caller tape, reused by every step;
  /// only the encoder backbone's own one is touched.
  LstmTape lstm_step;
  SamTape sam_step;
  GruTape gru_step;
};

}  // namespace neutraj::nn

#endif  // NEUTRAJ_NN_WORKSPACE_H_
