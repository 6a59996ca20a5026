#include "nn/gru_cell.h"

#include "common/check.h"
#include "nn/init.h"
#include "nn/workspace.h"

namespace neutraj::nn {

SamGruCell::SamGruCell(const std::string& name, size_t input_dim,
                       size_t hidden_dim)
    : hidden_(hidden_dim),
      wg_(name + ".Wg", 3 * hidden_dim, input_dim),
      ug_(name + ".Ug", 3 * hidden_dim, hidden_dim),
      bg_(name + ".bg", 3 * hidden_dim, 1),
      wn_(name + ".Wn", hidden_dim, input_dim),
      un_(name + ".Un", hidden_dim, hidden_dim),
      bn_(name + ".bn", hidden_dim, 1),
      sam_(name, hidden_dim) {}

void SamGruCell::Initialize(Rng* rng) {
  XavierUniform(&wg_.value, rng);
  XavierUniform(&wn_.value, rng);
  sam_.Initialize(rng);
  for (int block = 0; block < 3; ++block) {
    Matrix sub(hidden_, hidden_);
    OrthogonalInit(&sub, rng);
    for (size_t r = 0; r < hidden_; ++r) {
      for (size_t c = 0; c < hidden_; ++c) {
        ug_.value(block * hidden_ + r, c) = sub(r, c);
      }
    }
  }
  {
    Matrix sub(hidden_, hidden_);
    OrthogonalInit(&sub, rng);
    for (size_t r = 0; r < hidden_; ++r) {
      for (size_t c = 0; c < hidden_; ++c) un_.value(r, c) = sub(r, c);
    }
  }
  ZeroInit(&bg_.value);
  ZeroInit(&bn_.value);
  // Spatial-gate warm start (block 2 holds s): see SamLstmCell.
  for (size_t k = 0; k < hidden_; ++k) bg_.value(2 * hidden_ + k, 0) = -2.0;
}

void SamGruCell::Forward(const Vector& x, const Vector& h_prev,
                         const std::vector<GridCell>& window_cells,
                         const GridCell& center, MemoryTensor* memory,
                         bool update_memory, GruTape* tape, Vector* h,
                         CellWorkspace* ws, MemoryWriteLog* write_log) const {
  const size_t d = hidden_;
  NEUTRAJ_DCHECK_MSG(x.size() == input_dim(), "SamGruCell::Forward input width");
  NEUTRAJ_DCHECK_MSG(h_prev.size() == d, "SamGruCell::Forward state width");
  NEUTRAJ_DCHECK_FINITE(x);
  CellWorkspace local_ws_storage;
  CellWorkspace* w = ws != nullptr ? ws : &local_ws_storage;
  Vector& pre = w->pre;
  pre.resize(3 * d);
  for (size_t k = 0; k < 3 * d; ++k) pre[k] = bg_.value(k, 0);
  MatVecAccum(wg_.value, x, &pre);
  MatVecAccum(ug_.value, h_prev, &pre);

  tape->x = x;
  tape->h_prev = h_prev;
  tape->r.resize(d);
  tape->z.resize(d);
  tape->s.resize(d);
  for (size_t k = 0; k < d; ++k) {
    tape->r[k] = Sigmoid(pre[k]);
    tape->z[k] = Sigmoid(pre[d + k]);
    tape->s[k] = Sigmoid(pre[2 * d + k]);
  }

  tape->rh.resize(d);
  for (size_t k = 0; k < d; ++k) tape->rh[k] = tape->r[k] * h_prev[k];
  Vector& cand_pre = w->cand_pre;
  cand_pre.resize(d);
  for (size_t k = 0; k < d; ++k) cand_pre[k] = bn_.value(k, 0);
  MatVecAccum(wn_.value, x, &cand_pre);
  MatVecAccum(un_.value, tape->rh, &cand_pre);
  TanhInto(cand_pre, &tape->n_tilde);

  if (memory != nullptr) {
    sam_.Read(*memory, window_cells, tape->n_tilde, tape->s, &tape->sam,
              &tape->n_prime, w);
  } else {
    tape->sam.used = false;
    tape->n_prime = tape->n_tilde;
  }

  h->resize(d);
  for (size_t k = 0; k < d; ++k) {
    (*h)[k] = (1.0 - tape->z[k]) * tape->n_prime[k] + tape->z[k] * h_prev[k];
  }
  NEUTRAJ_DCHECK_FINITE(*h);
  if (memory != nullptr && update_memory) {
    SamModule::Write(memory, center, tape->s, *h, write_log);
  }
}

void SamGruCell::Backward(const GruTape& tape, const Vector& dh,
                          Vector* dh_prev_accum, GradBuffer* sink,
                          CellWorkspace* ws) {
  const size_t d = hidden_;
  NEUTRAJ_DCHECK_MSG(dh.size() == d, "SamGruCell::Backward gradient width");
  NEUTRAJ_DCHECK_MSG(dh_prev_accum != nullptr && dh_prev_accum->size() == d,
                     "SamGruCell::Backward accumulator must be pre-sized");
  NEUTRAJ_DCHECK_MSG(sink == nullptr || sink->size() == Params().size(),
                     "SamGruCell::Backward sink arity");
  CellWorkspace local_ws_storage;
  CellWorkspace* w = ws != nullptr ? ws : &local_ws_storage;
  // h = (1-z) (*) n' + z (*) h_prev.
  Vector& dn_prime = w->dc;
  Vector& dz_post = w->dz_post;
  dn_prime.resize(d);
  dz_post.resize(d);
  for (size_t k = 0; k < d; ++k) {
    dn_prime[k] = dh[k] * (1.0 - tape.z[k]);
    dz_post[k] = dh[k] * (tape.h_prev[k] - tape.n_prime[k]);
    (*dh_prev_accum)[k] += dh[k] * tape.z[k];
  }

  // n' = SAM read on q = n~.
  Vector& dn_tilde = w->dc_hat;
  Vector& ds_post = w->ds_post;
  sam_.Backward(tape.sam, tape.n_tilde, tape.s, dn_prime, &dn_tilde, &ds_post,
                sink != nullptr ? &sink->at(kWhis) : &sam_.whis().grad,
                sink != nullptr ? &sink->at(kBhis) : &sam_.bhis().grad, w);

  // n~ = tanh(Wn x + Un (r (*) h_prev) + bn).
  Vector& dcand_pre = w->dcand_pre;
  dcand_pre.resize(d);
  for (size_t k = 0; k < d; ++k) {
    dcand_pre[k] = dn_tilde[k] * (1.0 - tape.n_tilde[k] * tape.n_tilde[k]);
  }
  Matrix& gwn = sink != nullptr ? sink->at(kWn) : wn_.grad;
  Matrix& gun = sink != nullptr ? sink->at(kUn) : un_.grad;
  Matrix& gbn = sink != nullptr ? sink->at(kBn) : bn_.grad;
  AddOuterProduct(&gwn, dcand_pre, tape.x);
  AddOuterProduct(&gun, dcand_pre, tape.rh);
  for (size_t k = 0; k < d; ++k) gbn(k, 0) += dcand_pre[k];
  Vector& drh = w->drh;
  drh.assign(d, 0.0);
  MatTVecAccum(un_.value, dcand_pre, &drh);

  Vector& dpre = w->dpre;
  dpre.resize(3 * d);
  for (size_t k = 0; k < d; ++k) {
    const double dr_post = drh[k] * tape.h_prev[k];
    (*dh_prev_accum)[k] += drh[k] * tape.r[k];
    dpre[k] = dr_post * tape.r[k] * (1.0 - tape.r[k]);
    dpre[d + k] = dz_post[k] * tape.z[k] * (1.0 - tape.z[k]);
    dpre[2 * d + k] = ds_post[k] * tape.s[k] * (1.0 - tape.s[k]);
  }
  Matrix& gwg = sink != nullptr ? sink->at(kWg) : wg_.grad;
  Matrix& gug = sink != nullptr ? sink->at(kUg) : ug_.grad;
  Matrix& gbg = sink != nullptr ? sink->at(kBg) : bg_.grad;
  AddOuterProduct(&gwg, dpre, tape.x);
  AddOuterProduct(&gug, dpre, tape.h_prev);
  for (size_t k = 0; k < 3 * d; ++k) gbg(k, 0) += dpre[k];
  MatTVecAccum(ug_.value, dpre, dh_prev_accum);
}

}  // namespace neutraj::nn
