#include "nn/matrix.h"

#include <algorithm>
#include <cmath>

namespace neutraj::nn {

namespace {

void CheckDim(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(std::string("nn shape mismatch: ") + what);
}

}  // namespace

void Matrix::Zero() { std::fill(data_.begin(), data_.end(), 0.0); }

double Matrix::SquaredNorm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return s;
}

void MatVec(const Matrix& a, const Vector& x, Vector* y) {
  CheckDim(a.cols() == x.size(), "MatVec x");
  y->assign(a.rows(), 0.0);
  MatVecAccum(a, x, y);
}

// The three dense kernels below process four rows per pass with independent
// accumulators. Without -ffast-math the compiler cannot reassociate the
// naive one-accumulator dot product, so the serial dependency chain caps
// throughput at one FMA per ~4 cycles; four chains keep the FPU pipelines
// full and reuse each loaded x/v entry across four rows. The summation
// order is fixed, so results are deterministic (but differ in low-order
// bits from the single-accumulator kernels they replace).
void MatVecAccum(const Matrix& a, const Vector& x, Vector* y) {
  CheckDim(a.cols() == x.size() && a.rows() == y->size(), "MatVecAccum");
  const size_t rows = a.rows();
  const size_t cols = a.cols();
  const double* xp = x.data();
  double* yp = y->data();
  size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double* r0 = a.Row(r);
    const double* r1 = a.Row(r + 1);
    const double* r2 = a.Row(r + 2);
    const double* r3 = a.Row(r + 3);
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (size_t c = 0; c < cols; ++c) {
      const double xc = xp[c];
      s0 += r0[c] * xc;
      s1 += r1[c] * xc;
      s2 += r2[c] * xc;
      s3 += r3[c] * xc;
    }
    yp[r] += s0;
    yp[r + 1] += s1;
    yp[r + 2] += s2;
    yp[r + 3] += s3;
  }
  for (; r < rows; ++r) {
    const double* row = a.Row(r);
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    size_t c = 0;
    for (; c + 4 <= cols; c += 4) {
      s0 += row[c] * xp[c];
      s1 += row[c + 1] * xp[c + 1];
      s2 += row[c + 2] * xp[c + 2];
      s3 += row[c + 3] * xp[c + 3];
    }
    for (; c < cols; ++c) s0 += row[c] * xp[c];
    yp[r] += (s0 + s1) + (s2 + s3);
  }
  NEUTRAJ_DCHECK_FINITE(*y);
}

void MatTVec(const Matrix& a, const Vector& x, Vector* y) {
  CheckDim(a.rows() == x.size(), "MatTVec x");
  y->assign(a.cols(), 0.0);
  MatTVecAccum(a, x, y);
}

void MatTVecAccum(const Matrix& a, const Vector& x, Vector* y) {
  CheckDim(a.rows() == x.size() && a.cols() == y->size(), "MatTVecAccum");
  const size_t rows = a.rows();
  const size_t cols = a.cols();
  double* yp = y->data();
  size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double x0 = x[r], x1 = x[r + 1], x2 = x[r + 2], x3 = x[r + 3];
    if (x0 == 0.0 && x1 == 0.0 && x2 == 0.0 && x3 == 0.0) continue;
    const double* r0 = a.Row(r);
    const double* r1 = a.Row(r + 1);
    const double* r2 = a.Row(r + 2);
    const double* r3 = a.Row(r + 3);
    for (size_t c = 0; c < cols; ++c) {
      yp[c] += (x0 * r0[c] + x1 * r1[c]) + (x2 * r2[c] + x3 * r3[c]);
    }
  }
  for (; r < rows; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    const double* row = a.Row(r);
    for (size_t c = 0; c < cols; ++c) yp[c] += row[c] * xr;
  }
  NEUTRAJ_DCHECK_FINITE(*y);
}

void AddOuterProduct(Matrix* a, const Vector& u, const Vector& v) {
  CheckDim(a->rows() == u.size() && a->cols() == v.size(), "AddOuterProduct");
  const size_t rows = u.size();
  const size_t cols = v.size();
  const double* vp = v.data();
  size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double u0 = u[r], u1 = u[r + 1], u2 = u[r + 2], u3 = u[r + 3];
    if (u0 == 0.0 && u1 == 0.0 && u2 == 0.0 && u3 == 0.0) continue;
    double* r0 = a->Row(r);
    double* r1 = a->Row(r + 1);
    double* r2 = a->Row(r + 2);
    double* r3 = a->Row(r + 3);
    for (size_t c = 0; c < cols; ++c) {
      const double vc = vp[c];
      r0[c] += u0 * vc;
      r1[c] += u1 * vc;
      r2[c] += u2 * vc;
      r3[c] += u3 * vc;
    }
  }
  for (; r < rows; ++r) {
    const double ur = u[r];
    if (ur == 0.0) continue;
    double* row = a->Row(r);
    for (size_t c = 0; c < cols; ++c) row[c] += ur * vp[c];
  }
}

void AxpyInPlace(double alpha, const Vector& x, Vector* y) {
  CheckDim(x.size() == y->size(), "AxpyInPlace");
  for (size_t i = 0; i < x.size(); ++i) (*y)[i] += alpha * x[i];
}

double Dot(const Vector& a, const Vector& b) {
  CheckDim(a.size() == b.size(), "Dot");
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double SquaredNorm(const Vector& v) {
  double s = 0.0;
  for (double x : v) s += x * x;
  return s;
}

double L2Distance(const Vector& a, const Vector& b) {
  CheckDim(a.size() == b.size(), "L2Distance");
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return std::sqrt(s);
}

void SoftmaxInPlace(Vector* v) {
  if (v->empty()) return;
  const double m = *std::max_element(v->begin(), v->end());
  double total = 0.0;
  for (double& x : *v) {
    x = std::exp(x - m);
    total += x;
  }
  NEUTRAJ_DCHECK_MSG(check_internal::FiniteChecksSuspended() ||
                         (total > 0.0 && std::isfinite(total)),
                     "softmax normalizer must be positive and finite");
  for (double& x : *v) x /= total;
  NEUTRAJ_DCHECK_FINITE(*v);
}

void TanhInto(const Vector& x, Vector* out) {
  out->resize(x.size());
  for (size_t i = 0; i < x.size(); ++i) (*out)[i] = std::tanh(x[i]);
}

}  // namespace neutraj::nn
