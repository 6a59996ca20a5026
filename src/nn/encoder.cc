#include "nn/encoder.h"

#include <stdexcept>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/reqtrace.h"

namespace neutraj::nn {

namespace {

bool HasSam(Backbone b) {
  return b == Backbone::kSamLstm || b == Backbone::kSamGru;
}

}  // namespace

Encoder::Encoder(Backbone backbone, const Grid& grid, size_t hidden_dim,
                 int32_t scan_width)
    : backbone_(backbone),
      grid_(grid),
      hidden_(hidden_dim),
      scan_width_(scan_width) {
  if (hidden_dim == 0) throw std::invalid_argument("Encoder: hidden_dim == 0");
  if (scan_width < 0) throw std::invalid_argument("Encoder: scan_width < 0");
  switch (backbone) {
    case Backbone::kLstm:
      lstm_.emplace("encoder.lstm", /*input_dim=*/2, hidden_dim);
      break;
    case Backbone::kSamLstm:
      sam_.emplace("encoder.sam", /*input_dim=*/2, hidden_dim);
      break;
    case Backbone::kGru:
    case Backbone::kSamGru:
      gru_.emplace("encoder.gru", /*input_dim=*/2, hidden_dim);
      break;
  }
  if (HasSam(backbone)) {
    memory_.emplace(grid_.num_cols(), grid_.num_rows(), hidden_dim);
  }
}

void Encoder::Initialize(Rng* rng) {
  if (lstm_) lstm_->Initialize(rng);
  if (sam_) sam_->Initialize(rng);
  if (gru_) gru_->Initialize(rng);
  ResetMemory();
}

Vector Encoder::Encode(const Trajectory& traj, bool update_memory,
                       EncodeTape* tape, CellWorkspace* ws,
                       MemoryWriteLog* write_log) {
  static obs::ConcurrentHistogram& encode_us =
      obs::MetricsRegistry::Global().GetHistogram("trace/nn/encode_us");
  obs::StageSpan span(nullptr, "nn/encode", &encode_us);
  if (traj.empty()) throw std::invalid_argument("Encode: empty trajectory");
  const size_t len = traj.size();
  if (tape != nullptr) {
    tape->length = len;
    // Resize without clear(): clearing would destroy the per-step tapes and
    // with them the capacity of every vector inside. Shrink-resizing keeps
    // surviving steps (and their buffers) alive for in-place reuse, so a
    // tape recycled across anchors stops allocating after warm-up.
    if (backbone_ == Backbone::kLstm) {
      tape->lstm_steps.resize(len);
      tape->sam_steps.clear();
      tape->gru_steps.clear();
    } else if (backbone_ == Backbone::kSamLstm) {
      tape->sam_steps.resize(len);
      tape->lstm_steps.clear();
      tape->gru_steps.clear();
    } else {
      tape->gru_steps.resize(len);
      tape->lstm_steps.clear();
      tape->sam_steps.clear();
    }
  }

  const bool use_sam = HasSam(backbone_);
  CellWorkspace local_ws_storage;
  CellWorkspace* w = ws != nullptr ? ws : &local_ws_storage;
  Vector& h = w->h;
  Vector& c = w->c;
  Vector& h_next = w->h_next;
  Vector& c_next = w->c_next;
  h.assign(hidden_, 0.0);
  c.assign(hidden_, 0.0);
  Vector& x = w->x;
  x.resize(2);
  std::vector<GridCell>& window = w->window;
  LstmTape scratch_lstm;
  SamTape scratch_sam;
  GruTape scratch_gru;
  for (size_t t = 0; t < len; ++t) {
    const Point norm = grid_.Normalize(traj[t]);
    x[0] = norm.x;
    x[1] = norm.y;
    GridCell center{0, 0};
    if (use_sam) {
      center = grid_.CellOf(traj[t]);
      grid_.ScanWindowInto(center, scan_width_, &window);
    }
    switch (backbone_) {
      case Backbone::kLstm: {
        LstmTape* step = tape ? &tape->lstm_steps[t] : &scratch_lstm;
        lstm_->Forward(x, h, c, step, &h_next, &c_next, w);
        c.swap(c_next);
        break;
      }
      case Backbone::kSamLstm: {
        SamTape* step = tape ? &tape->sam_steps[t] : &scratch_sam;
        sam_->Forward(x, h, c, window, center, &*memory_, /*use_memory=*/true,
                      update_memory, step, &h_next, &c_next, w, write_log);
        c.swap(c_next);
        break;
      }
      case Backbone::kGru:
      case Backbone::kSamGru: {
        GruTape* step = tape ? &tape->gru_steps[t] : &scratch_gru;
        gru_->Forward(x, h, window, center, memory_ ? &*memory_ : nullptr,
                      /*use_memory=*/backbone_ == Backbone::kSamGru,
                      update_memory, step, &h_next, w, write_log);
        break;
      }
    }
    h.swap(h_next);
  }
  NEUTRAJ_DCHECK_FINITE(h);
  return h;
}

void Encoder::Backward(const EncodeTape& tape, const Vector& d_embedding,
                       GradBuffer* sink, CellWorkspace* ws) {
  static obs::ConcurrentHistogram& backward_us =
      obs::MetricsRegistry::Global().GetHistogram("trace/nn/backward_us");
  obs::StageSpan span(nullptr, "nn/backward", &backward_us);
  if (d_embedding.size() != hidden_) {
    throw std::invalid_argument("Backward: gradient dimension mismatch");
  }
  NEUTRAJ_DCHECK_MSG(
      tape.length == (backbone_ == Backbone::kLstm ? tape.lstm_steps.size()
                      : backbone_ == Backbone::kSamLstm
                          ? tape.sam_steps.size()
                          : tape.gru_steps.size()),
      "Encoder::Backward: tape length does not match recorded steps");
  CellWorkspace local_ws_storage;
  CellWorkspace* w = ws != nullptr ? ws : &local_ws_storage;
  Vector& dh = w->dh;
  Vector& dc = w->dc_in;
  Vector& dh_prev = w->dh_prev;
  Vector& dc_prev = w->dc_prev;
  dh = d_embedding;
  dc.assign(hidden_, 0.0);
  dh_prev.resize(hidden_);
  dc_prev.resize(hidden_);
  for (size_t t = tape.length; t-- > 0;) {
    std::fill(dh_prev.begin(), dh_prev.end(), 0.0);
    std::fill(dc_prev.begin(), dc_prev.end(), 0.0);
    switch (backbone_) {
      case Backbone::kLstm:
        lstm_->Backward(tape.lstm_steps[t], dh, dc, &dh_prev, &dc_prev, nullptr,
                        sink, w);
        dc.swap(dc_prev);
        break;
      case Backbone::kSamLstm:
        sam_->Backward(tape.sam_steps[t], dh, dc, &dh_prev, &dc_prev, nullptr,
                       sink, w);
        dc.swap(dc_prev);
        break;
      case Backbone::kGru:
      case Backbone::kSamGru:
        gru_->Backward(tape.gru_steps[t], dh, &dh_prev, nullptr, sink, w);
        break;
    }
    dh.swap(dh_prev);
  }
}

std::vector<Param*> Encoder::Params() {
  switch (backbone_) {
    case Backbone::kLstm:
      return lstm_->Params();
    case Backbone::kSamLstm:
      return sam_->Params();
    case Backbone::kGru:
    case Backbone::kSamGru:
      return gru_->Params();
  }
  return {};
}

void Encoder::ResetMemory() {
  if (memory_) memory_->Clear();
}

}  // namespace neutraj::nn
