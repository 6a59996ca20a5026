// Standard LSTM cell with a hand-written backward pass.
//
// Used as the backbone of the Siamese baseline (Pei et al. instantiated with
// LSTM, as in the paper's experiments) and as the reference point for the
// SAM-augmented cell. Gate layout in the stacked weight matrices is
// [input i, forget f, candidate g, output o], each block of `hidden` rows.

#ifndef NEUTRAJ_NN_LSTM_CELL_H_
#define NEUTRAJ_NN_LSTM_CELL_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "nn/parameter.h"

namespace neutraj::nn {

struct CellWorkspace;

/// Per-step activations saved by Forward for the backward pass.
struct LstmTape {
  Vector x;       ///< Step input.
  Vector h_prev;  ///< Previous hidden state.
  Vector c_prev;  ///< Previous cell state.
  Vector i, f, g, o;  ///< Post-activation gates / candidate.
  Vector c;       ///< New cell state.
  Vector tanh_c;  ///< tanh(c), reused by backward.
};

/// LSTM recurrence: c_t = f (*) c_{t-1} + i (*) g;  h_t = o (*) tanh(c_t).
class LstmCell {
 public:
  LstmCell(const std::string& name, size_t input_dim, size_t hidden_dim);

  /// Xavier input weights, orthogonal recurrent weights, forget bias = 1.
  void Initialize(Rng* rng);

  /// One recurrent step. Writes activations into `tape` and outputs h/c.
  /// `ws` (optional) supplies reusable scratch buffers so the hot path does
  /// not allocate per step.
  void Forward(const Vector& x, const Vector& h_prev, const Vector& c_prev,
               LstmTape* tape, Vector* h, Vector* c,
               CellWorkspace* ws = nullptr) const;

  /// Backward through one step. `dh` and `dc_in` are the incoming gradients
  /// of h_t and c_t; accumulates parameter gradients and adds gradients
  /// into `dh_prev_accum` / `dc_prev_accum` (both pre-sized to hidden_dim).
  /// When `sink` is non-null, parameter gradients go into it (aligned with
  /// Params() order) instead of the cell's own Param::grad, so concurrent
  /// backward passes over one shared cell never race. `ws` as in Forward.
  void Backward(const LstmTape& tape, const Vector& dh, const Vector& dc_in,
                Vector* dh_prev_accum, Vector* dc_prev_accum,
                GradBuffer* sink = nullptr, CellWorkspace* ws = nullptr);

  size_t input_dim() const { return wx_.value.cols(); }
  size_t hidden_dim() const { return hidden_; }
  std::vector<Param*> Params() { return {&wx_, &wh_, &b_}; }

  /// Indices into Params() / a matching GradBuffer.
  static constexpr size_t kWx = 0, kWh = 1, kB = 2;

 private:
  size_t hidden_;
  Param wx_;  // 4h x input
  Param wh_;  // 4h x h
  Param b_;   // 4h x 1
};

}  // namespace neutraj::nn

#endif  // NEUTRAJ_NN_LSTM_CELL_H_
