#include "bbs/solver/nt_scaling.hpp"

#include <cmath>

#include "bbs/common/assert.hpp"

namespace bbs::solver {

namespace {

/// Hyperbolic quadratic form u'Ju = u0^2 - ||u1||^2 of a SOC block.
double jdot_self(const Vector& v, Index off, Index q) {
  double head = v[static_cast<std::size_t>(off)];
  double tail = 0.0;
  for (Index i = 1; i < q; ++i) {
    const double x = v[static_cast<std::size_t>(off + i)];
    tail += x * x;
  }
  return head * head - tail;
}

}  // namespace

NtScaling::NtScaling(const ConeSpec& cone)
    : cone_(&cone),
      w_lp_(static_cast<std::size_t>(cone.nonneg()), 1.0),
      lambda_(static_cast<std::size_t>(cone.dim()), 0.0),
      w_soc_(cone.soc_dims().size()),
      w_inv_soc_(cone.soc_dims().size()) {}

void NtScaling::update(const Vector& s, const Vector& z) {
  const ConeSpec& cone = *cone_;
  BBS_REQUIRE(s.size() == static_cast<std::size_t>(cone.dim()) &&
                  z.size() == static_cast<std::size_t>(cone.dim()),
              "NtScaling::update: size mismatch");

  for (Index i = 0; i < cone.nonneg(); ++i) {
    const double si = s[static_cast<std::size_t>(i)];
    const double zi = z[static_cast<std::size_t>(i)];
    if (si <= 0.0 || zi <= 0.0) {
      throw NumericalError("NtScaling: LP point left the cone interior");
    }
    w_lp_[static_cast<std::size_t>(i)] = std::sqrt(si / zi);
    lambda_[static_cast<std::size_t>(i)] = std::sqrt(si * zi);
  }

  for (std::size_t k = 0; k < cone.soc_dims().size(); ++k) {
    const Index off = cone.soc_offset(k);
    const Index q = cone.soc_dims()[k];
    const double ds = jdot_self(s, off, q);
    const double dz = jdot_self(z, off, q);
    if (ds <= 0.0 || dz <= 0.0 || s[static_cast<std::size_t>(off)] <= 0.0 ||
        z[static_cast<std::size_t>(off)] <= 0.0) {
      throw NumericalError("NtScaling: SOC point left the cone interior");
    }
    const double sqrt_ds = std::sqrt(ds);
    const double sqrt_dz = std::sqrt(dz);

    // Normalised unit-hyperbolic points s_bar, z_bar.
    Vector sbar(static_cast<std::size_t>(q));
    Vector zbar(static_cast<std::size_t>(q));
    for (Index i = 0; i < q; ++i) {
      sbar[static_cast<std::size_t>(i)] =
          s[static_cast<std::size_t>(off + i)] / sqrt_ds;
      zbar[static_cast<std::size_t>(i)] =
          z[static_cast<std::size_t>(off + i)] / sqrt_dz;
    }
    double sz = 0.0;
    for (Index i = 0; i < q; ++i)
      sz += sbar[static_cast<std::size_t>(i)] *
            zbar[static_cast<std::size_t>(i)];
    const double gamma = std::sqrt((1.0 + sz) / 2.0);

    // w_bar = (s_bar + J z_bar) / (2 gamma) is unit hyperbolic and satisfies
    // Q(w_bar) z_bar = s_bar.
    Vector wbar(static_cast<std::size_t>(q));
    wbar[0] = (sbar[0] + zbar[0]) / (2.0 * gamma);
    for (Index i = 1; i < q; ++i) {
      wbar[static_cast<std::size_t>(i)] =
          (sbar[static_cast<std::size_t>(i)] -
           zbar[static_cast<std::size_t>(i)]) /
          (2.0 * gamma);
    }

    // The scaling point is the Jordan square root v of w_bar (unit
    // hyperbolic, v o v = w_bar), so that W^2 = eta^2 Q(w_bar) maps z to s:
    //     v = (w_bar + e) / sqrt(2 (w_bar_0 + 1)).
    Vector v = wbar;
    v[0] += 1.0;
    const double vscale = 1.0 / std::sqrt(2.0 * (wbar[0] + 1.0));
    for (Index i = 0; i < q; ++i) v[static_cast<std::size_t>(i)] *= vscale;

    // W = eta * Q(v) with Q(v) = 2 v v' - J (since v'Jv = 1);
    // W^{-1} = (1/eta) * J Q(v) J.
    const double eta = std::pow(ds / dz, 0.25);
    linalg::DenseMatrix w(static_cast<std::size_t>(q),
                          static_cast<std::size_t>(q));
    linalg::DenseMatrix winv(static_cast<std::size_t>(q),
                             static_cast<std::size_t>(q));
    for (Index r = 0; r < q; ++r) {
      for (Index c = 0; c < q; ++c) {
        const double qrc = 2.0 * v[static_cast<std::size_t>(r)] *
                               v[static_cast<std::size_t>(c)] -
                           ((r == c) ? (r == 0 ? 1.0 : -1.0) : 0.0);
        w(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) =
            eta * qrc;
        // J Q J flips the sign of the off-diagonal head-tail couplings.
        const double sign = ((r == 0) != (c == 0)) ? -1.0 : 1.0;
        winv(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) =
            sign * qrc / eta;
      }
    }
    w_soc_[k] = std::move(w);
    w_inv_soc_[k] = std::move(winv);

    // lambda = W z, computed with the freshly built block.
    for (Index r = 0; r < q; ++r) {
      double acc = 0.0;
      for (Index c = 0; c < q; ++c) {
        acc += w_soc_[k](static_cast<std::size_t>(r),
                         static_cast<std::size_t>(c)) *
               z[static_cast<std::size_t>(off + c)];
      }
      lambda_[static_cast<std::size_t>(off + r)] = acc;
    }
  }
}

Vector NtScaling::apply_w(const Vector& v) const {
  Vector out;
  apply_w_into(v, out);
  return out;
}

void NtScaling::apply_w_into(const Vector& v, Vector& out) const {
  const ConeSpec& cone = *cone_;
  BBS_REQUIRE(v.size() == static_cast<std::size_t>(cone.dim()),
              "NtScaling::apply_w: size mismatch");
  BBS_REQUIRE(&v != &out, "NtScaling::apply_w: aliased output");
  out.assign(v.size(), 0.0);
  for (Index i = 0; i < cone.nonneg(); ++i) {
    out[static_cast<std::size_t>(i)] =
        w_lp_[static_cast<std::size_t>(i)] * v[static_cast<std::size_t>(i)];
  }
  for (std::size_t k = 0; k < cone.soc_dims().size(); ++k) {
    const Index off = cone.soc_offset(k);
    const Index q = cone.soc_dims()[k];
    for (Index r = 0; r < q; ++r) {
      double acc = 0.0;
      for (Index c = 0; c < q; ++c) {
        acc += w_soc_[k](static_cast<std::size_t>(r),
                         static_cast<std::size_t>(c)) *
               v[static_cast<std::size_t>(off + c)];
      }
      out[static_cast<std::size_t>(off + r)] = acc;
    }
  }
}

Vector NtScaling::apply_w_inv(const Vector& v) const {
  Vector out;
  apply_w_inv_into(v, out);
  return out;
}

void NtScaling::apply_w_inv_into(const Vector& v, Vector& out) const {
  const ConeSpec& cone = *cone_;
  BBS_REQUIRE(v.size() == static_cast<std::size_t>(cone.dim()),
              "NtScaling::apply_w_inv: size mismatch");
  BBS_REQUIRE(&v != &out, "NtScaling::apply_w_inv: aliased output");
  out.assign(v.size(), 0.0);
  for (Index i = 0; i < cone.nonneg(); ++i) {
    out[static_cast<std::size_t>(i)] =
        v[static_cast<std::size_t>(i)] / w_lp_[static_cast<std::size_t>(i)];
  }
  for (std::size_t k = 0; k < cone.soc_dims().size(); ++k) {
    const Index off = cone.soc_offset(k);
    const Index q = cone.soc_dims()[k];
    for (Index r = 0; r < q; ++r) {
      double acc = 0.0;
      for (Index c = 0; c < q; ++c) {
        acc += w_inv_soc_[k](static_cast<std::size_t>(r),
                             static_cast<std::size_t>(c)) *
               v[static_cast<std::size_t>(off + c)];
      }
      out[static_cast<std::size_t>(off + r)] = acc;
    }
  }
}

void NtScaling::inverse_times_into(const linalg::SparseMatrix& g,
                                   linalg::SparseMatrix& out) const {
  const ConeSpec& cone = *cone_;
  BBS_REQUIRE(g.rows() == cone.dim(),
              "NtScaling::inverse_times_into: G has the wrong row count");
  const Index nonneg = cone.nonneg();
  if (out.rows() == 0 && out.cols() == 0) {
    // Build the fixed pattern once. Rows are sorted within each column of
    // G, so a column visits the LP rows first and each SOC block as one
    // contiguous run, which becomes the block's full row range.
    std::vector<Index> col_ptr(static_cast<std::size_t>(g.cols()) + 1, 0);
    std::vector<Index> row_ind;
    for (Index j = 0; j < g.cols(); ++j) {
      std::size_t k = 0;
      Index block_end = -1;  // rows up to here are already emitted
      for (Index p = g.col_ptr()[j]; p < g.col_ptr()[j + 1]; ++p) {
        const Index r = g.row_ind()[p];
        if (r < nonneg) {
          row_ind.push_back(r);
          continue;
        }
        if (r < block_end) continue;
        while (cone.soc_offset(k) + cone.soc_dims()[k] <= r) ++k;
        const Index off = cone.soc_offset(k);
        block_end = off + cone.soc_dims()[k];
        for (Index t = off; t < block_end; ++t) row_ind.push_back(t);
      }
      col_ptr[static_cast<std::size_t>(j) + 1] =
          static_cast<Index>(row_ind.size());
    }
    out = linalg::SparseMatrix::from_pattern(cone.dim(), g.cols(),
                                             std::move(col_ptr),
                                             std::move(row_ind));
  }
  BBS_REQUIRE(out.rows() == g.rows() && out.cols() == g.cols(),
              "NtScaling::inverse_times_into: shape mismatch");

  // One merged walk per column: the output slots are written in storage
  // order, and each written row is checked against the fixed pattern.
  const std::vector<Index>& oi = out.row_ind();
  std::vector<double>& ov = out.values();
  const auto mismatch = [] {
    throw ContractViolation(
        "NtScaling::inverse_times_into: matrix does not carry the fixed "
        "W^{-1} G pattern");
  };
  for (Index j = 0; j < g.cols(); ++j) {
    Index slot = out.col_ptr()[j];
    const Index slot_end = out.col_ptr()[j + 1];
    std::size_t k = 0;
    Index p = g.col_ptr()[j];
    const Index p_end = g.col_ptr()[j + 1];
    while (p < p_end) {
      const Index r = g.row_ind()[p];
      if (r < nonneg) {
        if (slot >= slot_end || oi[slot] != r) mismatch();
        ov[slot++] = g.values()[p] / w_lp_[static_cast<std::size_t>(r)];
        ++p;
        continue;
      }
      while (cone.soc_offset(k) + cone.soc_dims()[k] <= r) ++k;
      const Index off = cone.soc_offset(k);
      const Index q = cone.soc_dims()[k];
      const Index run_begin = p;
      while (p < p_end && g.row_ind()[p] < off + q) ++p;
      if (slot + q > slot_end) mismatch();
      const linalg::DenseMatrix& winv = w_inv_soc_[k];
      for (Index i = 0; i < q; ++i) {
        if (oi[slot] != off + i) mismatch();
        double acc = 0.0;
        for (Index t = run_begin; t < p; ++t) {
          acc += winv(static_cast<std::size_t>(i),
                      static_cast<std::size_t>(g.row_ind()[t] - off)) *
                 g.values()[t];
        }
        ov[slot++] = acc;
      }
    }
    if (slot != slot_end) mismatch();
  }
}

}  // namespace bbs::solver
