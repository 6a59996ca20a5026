#include "nn/sam_module.h"

#include "common/check.h"
#include "nn/init.h"
#include "nn/workspace.h"

namespace neutraj::nn {

SamModule::SamModule(const std::string& name, size_t hidden_dim)
    : hidden_(hidden_dim),
      whis_(name + ".Whis", hidden_dim, 2 * hidden_dim),
      bhis_(name + ".bhis", hidden_dim, 1) {}

void SamModule::Initialize(Rng* rng) {
  XavierUniform(&whis_.value, rng);
  ZeroInit(&bhis_.value);
}

void SamModule::Read(const MemoryTensor& memory,
                     const std::vector<GridCell>& window_cells, const Vector& q,
                     const Vector& s, SamReadTape* tape, Vector* out,
                     CellWorkspace* ws) const {
  const size_t d = hidden_;
  NEUTRAJ_DCHECK_MSG(memory.dim() == d,
                     "SamModule::Read memory width must equal hidden_dim");
  NEUTRAJ_DCHECK_MSG(!window_cells.empty(),
                     "SamModule::Read scan window must be non-empty");
  NEUTRAJ_DCHECK_MSG(q.size() == d && s.size() == d,
                     "SamModule::Read state width");
  // G_t is gathered straight into the tape snapshot.
  memory.GatherWindow(window_cells, &tape->att.g, &ws->mask);
  AttentionForwardPrefilled(&tape->att, q, &ws->mask);
  tape->used = !tape->att.all_masked;
  if (!tape->used) {
    *out = q;
    return;
  }
  Vector& ccat = ws->ccat;
  ccat.resize(2 * d);
  for (size_t k = 0; k < d; ++k) {
    ccat[k] = q[k];
    ccat[d + k] = tape->att.mix[k];
  }
  Vector& his_pre = ws->his_pre;
  his_pre.resize(d);
  for (size_t k = 0; k < d; ++k) his_pre[k] = bhis_.value(k, 0);
  MatVecAccum(whis_.value, ccat, &his_pre);
  TanhInto(his_pre, &tape->c_his);
  out->resize(d);
  for (size_t k = 0; k < d; ++k) (*out)[k] = q[k] + s[k] * tape->c_his[k];
}

void SamModule::Backward(const SamReadTape& tape, const Vector& q,
                         const Vector& s, const Vector& dout, Vector* dq,
                         Vector* ds, Matrix* gwhis, Matrix* gbhis,
                         CellWorkspace* ws) const {
  const size_t d = hidden_;
  NEUTRAJ_DCHECK_MSG(dout.size() == d, "SamModule::Backward gradient width");
  NEUTRAJ_DCHECK_MSG(!tape.used || tape.att.g.cols() == d,
                     "SamModule::Backward tape window width");
  if (!tape.used) {
    *dq = dout;
    ds->assign(d, 0.0);
    return;
  }
  // out = q + s (*) c_his.
  dq->resize(d);
  ds->resize(d);
  for (size_t k = 0; k < d; ++k) {
    (*dq)[k] = dout[k];
    (*ds)[k] = dout[k] * tape.c_his[k];
  }
  // c_his = tanh(W_his [q, mix] + b_his).
  Vector& dz = ws->dz;
  dz.resize(d);
  for (size_t k = 0; k < d; ++k) {
    dz[k] = dout[k] * s[k] * (1.0 - tape.c_his[k] * tape.c_his[k]);
  }
  Vector& ccat = ws->ccat;
  ccat.resize(2 * d);
  for (size_t k = 0; k < d; ++k) {
    ccat[k] = q[k];
    ccat[d + k] = tape.att.mix[k];
  }
  AddOuterProduct(gwhis, dz, ccat);
  for (size_t k = 0; k < d; ++k) (*gbhis)(k, 0) += dz[k];
  Vector& dccat = ws->dccat;
  dccat.assign(2 * d, 0.0);
  MatTVecAccum(whis_.value, dz, &dccat);
  Vector& dmix = ws->dmix;
  dmix.resize(d);
  for (size_t k = 0; k < d; ++k) {
    (*dq)[k] += dccat[k];
    dmix[k] = dccat[d + k];
  }
  // Attention path: adds the gradient of the query.
  AttentionBackward(tape.att, dmix, nullptr, dq, &ws->att_da, &ws->att_du);
}

void SamModule::Write(MemoryTensor* memory, const GridCell& center,
                      const Vector& s, const Vector& value,
                      MemoryWriteLog* write_log) {
  if (write_log != nullptr) {
    write_log->cells.push_back(center);
    write_log->blocks.insert(write_log->blocks.end(), s.begin(), s.end());
    write_log->blocks.insert(write_log->blocks.end(), value.begin(), value.end());
  } else {
    memory->BlendWrite(center, s, value);
  }
}

}  // namespace neutraj::nn
