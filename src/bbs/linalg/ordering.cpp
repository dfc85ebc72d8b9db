#include "bbs/linalg/ordering.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "bbs/common/assert.hpp"

namespace bbs::linalg {

namespace {

/// Approximate minimum degree ordering (Amestoy, Davis & Duff, SIMAX 1996)
/// on the quotient graph of the elimination.
///
/// Every node is either a *variable* (uneliminated) or an *element* (the
/// clique an eliminated pivot left behind). A variable i stores, in one list
/// of the shared workspace `iw_`, first the elen_[i] elements it belongs to
/// and then its remaining variable neighbours; an element e stores the
/// variables of its clique Le. Eliminating a pivot k merges k's elements
/// into one new element Lk instead of forming Lk's clique explicitly, so the
/// live lists never outgrow the input pattern.
///
/// Indistinguishable variables are merged into supervariables (weight nv_),
/// and degrees are the cheap upper bound of the paper's equation (4) instead
/// of exact external degrees. Elements whose clique is a subset of Lk are
/// absorbed into it (element absorption, and aggressive absorption for
/// elements met only through Lk's variables), variables left with no
/// neighbour outside Lk are eliminated together with k (mass elimination),
/// and rows denser than a threshold are deferred to the end of the order.
/// The final order is a postorder of the assembly tree, so every
/// supervariable is numbered contiguously.
class ApproximateMinimumDegree {
 public:
  explicit ApproximateMinimumDegree(const SparseMatrix& a);
  std::vector<Index> order();

 private:
  /// Marks every element of Lk's neighbourhood with the weighted size of
  /// its clique outside Lk, w_[e] - mark_ = |Le \ Lk| (the paper's
  /// Algorithm 2).
  void compute_set_differences(Index lk_begin, Index lk_end);
  /// Rewrites the lists of the variables in Lk (dropping absorbed elements
  /// and variables now covered by Lk, prepending k), bounds their degrees,
  /// mass-eliminates the ones with no external neighbour and hashes the
  /// rest for supervariable detection (Algorithm 3).
  void update_variables(Index k, Index lk_begin, Index lk_end, Index& dk,
                        Index& nvk);
  /// Merges the indistinguishable variables among Lk's hash buckets.
  void detect_supervariables(Index lk_begin, Index lk_end);
  /// Advances mark_ by `by` (callers pass enough to clear every w_ value
  /// they set), restarting all marks long before they could overflow.
  void advance_mark(std::int64_t by);

  void push_degree(Index i, Index d);
  void remove_degree(Index i);
  void absorb(Index node, Index into);
  std::vector<Index> postorder() const;

  Index n_ = 0;
  // All lists. A new element that cannot be built in place is appended,
  // so iw_ grows by at most the sum of those elements' sizes; the dead
  // lists it leaves behind are never reclaimed.
  std::vector<Index> iw_;
  Index iw_end_ = 0;         // first free slot of iw_
  std::vector<Index> pe_;    // list start, -1 once the list is dead or empty
  std::vector<Index> len_;   // list length
  std::vector<Index> elen_;  // #elements of a variable; kElement; kDead
  std::vector<Index> nv_;    // supervariable weight, negated while in Lk
  std::vector<Index> degree_;  // approximate degree, or |Le| of an element
  std::vector<Index> parent_;  // assembly tree (-1 at roots)
  std::vector<std::int64_t> w_;  // marks; 0 flags an absorbed element
  std::int64_t mark_ = 1;
  // Degree lists (doubly linked by next_/last_); variables in Lk reuse the
  // same links for their hash buckets.
  std::vector<Index> head_;
  std::vector<Index> next_;
  std::vector<Index> last_;
  std::vector<Index> hash_head_;
  std::vector<Index> dense_;  // deferred rows, ordered last
  Index eliminated_ = 0;      // weight of the eliminated variables
  Index min_degree_ = 0;
  Index max_element_ = 0;     // largest |Lk| so far, bounds the w_ offsets

  static constexpr Index kElement = -2;
  static constexpr Index kDead = -1;  // merged, mass-eliminated or deferred
};

ApproximateMinimumDegree::ApproximateMinimumDegree(const SparseMatrix& a) {
  BBS_REQUIRE(a.rows() == a.cols(), "ordering: matrix must be square");
  n_ = a.rows();
  const auto n = static_cast<std::size_t>(n_);

  // Symmetrised adjacency without the diagonal: scatter both (r, c) and
  // (c, r), then drop the duplicates list by list.
  std::vector<Index> count(n + 1, 0);
  for (Index c = 0; c < n_; ++c) {
    for (Index k = a.col_ptr()[c]; k < a.col_ptr()[c + 1]; ++k) {
      const Index r = a.row_ind()[k];
      if (r == c) continue;
      ++count[static_cast<std::size_t>(r) + 1];
      ++count[static_cast<std::size_t>(c) + 1];
    }
  }
  for (std::size_t i = 0; i < n; ++i) count[i + 1] += count[i];
  std::vector<Index> adj(static_cast<std::size_t>(count[n]));
  std::vector<Index> fill(count.begin(), count.end() - 1);
  for (Index c = 0; c < n_; ++c) {
    for (Index k = a.col_ptr()[c]; k < a.col_ptr()[c + 1]; ++k) {
      const Index r = a.row_ind()[k];
      if (r == c) continue;
      adj[static_cast<std::size_t>(fill[static_cast<std::size_t>(r)]++)] = c;
      adj[static_cast<std::size_t>(fill[static_cast<std::size_t>(c)]++)] = r;
    }
  }

  iw_.resize(adj.size());
  pe_.assign(n, -1);
  len_.assign(n, 0);
  std::vector<Index> seen(n, -1);
  for (Index i = 0; i < n_; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    pe_[ii] = iw_end_;
    for (Index p = count[ii]; p < count[ii + 1]; ++p) {
      const Index j = adj[static_cast<std::size_t>(p)];
      if (seen[static_cast<std::size_t>(j)] == i) continue;
      seen[static_cast<std::size_t>(j)] = i;
      iw_[static_cast<std::size_t>(iw_end_++)] = j;
    }
    len_[ii] = iw_end_ - pe_[ii];
  }

  elen_.assign(n, 0);
  nv_.assign(n, 1);
  degree_ = len_;
  parent_.assign(n, -1);
  w_.assign(n, 1);
  mark_ = 2;
  head_.assign(n, -1);
  next_.assign(n, -1);
  last_.assign(n, -1);
  hash_head_.assign(n, -1);

  // Rows denser than this stay out of the quotient graph and are ordered
  // last; eliminating them early would only produce dense elements.
  const Index dense = std::max<Index>(
      16, static_cast<Index>(10.0 * std::sqrt(static_cast<double>(n_))));
  for (Index i = 0; i < n_; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    if (len_[ii] == 0) {
      // Isolated: an empty element, a root of the assembly tree.
      elen_[ii] = kElement;
      pe_[ii] = -1;
      w_[ii] = 0;
      ++eliminated_;
    } else if (len_[ii] > std::min(dense, n_ - 2)) {
      nv_[ii] = 0;
      elen_[ii] = kDead;
      pe_[ii] = -1;
      dense_.push_back(i);
      ++eliminated_;
    } else {
      push_degree(i, degree_[ii]);
    }
  }
}

void ApproximateMinimumDegree::push_degree(Index i, Index d) {
  const auto ii = static_cast<std::size_t>(i);
  const Index first = head_[static_cast<std::size_t>(d)];
  if (first != -1) last_[static_cast<std::size_t>(first)] = i;
  next_[ii] = first;
  last_[ii] = -1;
  head_[static_cast<std::size_t>(d)] = i;
}

void ApproximateMinimumDegree::remove_degree(Index i) {
  const auto ii = static_cast<std::size_t>(i);
  if (next_[ii] != -1) last_[static_cast<std::size_t>(next_[ii])] = last_[ii];
  if (last_[ii] != -1) {
    next_[static_cast<std::size_t>(last_[ii])] = next_[ii];
  } else {
    head_[static_cast<std::size_t>(degree_[ii])] = next_[ii];
  }
}

void ApproximateMinimumDegree::absorb(Index node, Index into) {
  const auto i = static_cast<std::size_t>(node);
  parent_[i] = into;
  pe_[i] = -1;
}

void ApproximateMinimumDegree::advance_mark(std::int64_t by) {
  mark_ += by;
  if (mark_ > (std::int64_t{1} << 60)) {
    for (std::int64_t& w : w_) {
      if (w != 0) w = 1;
    }
    mark_ = 2;
  }
}

void ApproximateMinimumDegree::compute_set_differences(Index lk_begin,
                                                       Index lk_end) {
  for (Index pk = lk_begin; pk < lk_end; ++pk) {
    const auto i = static_cast<std::size_t>(iw_[static_cast<std::size_t>(pk)]);
    const Index eln = elen_[i];
    if (eln <= 0) continue;
    const Index nvi = -nv_[i];
    for (Index p = pe_[i]; p < pe_[i] + eln; ++p) {
      const auto e = static_cast<std::size_t>(iw_[static_cast<std::size_t>(p)]);
      if (w_[e] >= mark_) {
        w_[e] -= nvi;
      } else if (w_[e] != 0) {
        w_[e] = mark_ + degree_[e] - nvi;
      }
    }
  }
}

void ApproximateMinimumDegree::update_variables(Index k, Index lk_begin,
                                                Index lk_end, Index& dk,
                                                Index& nvk) {
  for (Index pk = lk_begin; pk < lk_end; ++pk) {
    const Index i = iw_[static_cast<std::size_t>(pk)];
    const auto ii = static_cast<std::size_t>(i);
    const Index p1 = pe_[ii];
    const Index elements_end = p1 + elen_[ii];
    Index out = p1;
    Index d = 0;
    std::uint64_t hash = 0;
    // Elements: keep those with variables outside Lk; absorb the rest.
    for (Index p = p1; p < elements_end; ++p) {
      const Index e = iw_[static_cast<std::size_t>(p)];
      const auto ee = static_cast<std::size_t>(e);
      if (w_[ee] == 0) continue;  // absorbed, e.g. into k just now
      const std::int64_t external = w_[ee] - mark_;
      if (external > 0) {
        d += static_cast<Index>(external);
        iw_[static_cast<std::size_t>(out++)] = e;
        hash += static_cast<std::uint64_t>(e);
      } else {
        absorb(e, k);  // aggressive absorption: Le is inside Lk
        w_[ee] = 0;
      }
    }
    const Index variables_begin = out;
    elen_[ii] = out - p1 + 1;  // the kept elements plus k
    // Variables: Lk now covers the ones inside it (flagged by nv < 0).
    for (Index p = elements_end; p < p1 + len_[ii]; ++p) {
      const Index j = iw_[static_cast<std::size_t>(p)];
      const Index nvj = nv_[static_cast<std::size_t>(j)];
      if (nvj <= 0) continue;
      d += nvj;
      iw_[static_cast<std::size_t>(out++)] = j;
      hash += static_cast<std::uint64_t>(j);
    }
    if (d == 0) {
      // Mass elimination: i's only neighbour is Lk, so it is eliminated
      // together with k at no extra fill.
      absorb(i, k);
      const Index nvi = -nv_[ii];
      dk -= nvi;
      nvk += nvi;
      eliminated_ += nvi;
      nv_[ii] = 0;
      elen_[ii] = kDead;
      continue;
    }
    degree_[ii] = std::min(degree_[ii], d);
    // Prepend k: the first kept variable moves to the end and the first
    // kept element to the variables' start. At least one entry (k itself,
    // or an element absorbed into k) was dropped, so the slot at `out`
    // belongs to i's list.
    iw_[static_cast<std::size_t>(out)] =
        iw_[static_cast<std::size_t>(variables_begin)];
    iw_[static_cast<std::size_t>(variables_begin)] =
        iw_[static_cast<std::size_t>(p1)];
    iw_[static_cast<std::size_t>(p1)] = k;
    len_[ii] = out - p1 + 1;
    // Hash bucket for supervariable detection (links reuse next_/last_).
    const auto bucket =
        static_cast<Index>(hash % static_cast<std::uint64_t>(n_));
    next_[ii] = hash_head_[static_cast<std::size_t>(bucket)];
    hash_head_[static_cast<std::size_t>(bucket)] = i;
    last_[ii] = bucket;
  }
}

void ApproximateMinimumDegree::detect_supervariables(Index lk_begin,
                                                     Index lk_end) {
  for (Index pk = lk_begin; pk < lk_end; ++pk) {
    const Index first = iw_[static_cast<std::size_t>(pk)];
    if (nv_[static_cast<std::size_t>(first)] >= 0) continue;  // merged
    const auto bucket = static_cast<std::size_t>(
        last_[static_cast<std::size_t>(first)]);
    Index i = hash_head_[bucket];
    hash_head_[bucket] = -1;
    // Compare every pair of the bucket: i's list (past the leading k) is
    // marked, then each later j with the same shape is checked against it.
    for (; i != -1 && next_[static_cast<std::size_t>(i)] != -1;
         i = next_[static_cast<std::size_t>(i)], advance_mark(1)) {
      const auto ii = static_cast<std::size_t>(i);
      for (Index p = pe_[ii] + 1; p < pe_[ii] + len_[ii]; ++p) {
        w_[static_cast<std::size_t>(iw_[static_cast<std::size_t>(p)])] = mark_;
      }
      Index previous = i;
      for (Index j = next_[ii]; j != -1;) {
        const auto jj = static_cast<std::size_t>(j);
        bool same = len_[jj] == len_[ii] && elen_[jj] == elen_[ii];
        for (Index p = pe_[jj] + 1; same && p < pe_[jj] + len_[jj]; ++p) {
          same = w_[static_cast<std::size_t>(
                     iw_[static_cast<std::size_t>(p)])] == mark_;
        }
        if (same) {
          // j is indistinguishable from i: fold it into the supervariable.
          absorb(j, i);
          nv_[ii] += nv_[jj];
          nv_[jj] = 0;
          elen_[jj] = kDead;
          j = next_[jj];
          next_[static_cast<std::size_t>(previous)] = j;
        } else {
          previous = j;
          j = next_[jj];
        }
      }
    }
  }
}

std::vector<Index> ApproximateMinimumDegree::order() {
  while (eliminated_ < n_) {
    // --- Pivot: a supervariable of minimum approximate degree. ------------
    Index k = -1;
    while (min_degree_ < n_ &&
           (k = head_[static_cast<std::size_t>(min_degree_)]) == -1) {
      ++min_degree_;
    }
    BBS_ASSERT_MSG(k != -1, "amd: degree lists exhausted early");
    const auto kk = static_cast<std::size_t>(k);
    remove_degree(k);
    const Index elenk = elen_[kk];
    Index nvk = nv_[kk];
    eliminated_ += nvk;

    // --- New element Lk: the union of k's elements and variables. --------
    // With no elements, Lk is a subset of k's own list and is built in
    // place; otherwise it goes to the end of the workspace. Its length is
    // at most k's degree, an upper bound on the weight of its variables.
    if (elenk > 0 && iw_end_ + degree_[kk] > static_cast<Index>(iw_.size())) {
      iw_.resize(static_cast<std::size_t>(iw_end_ + degree_[kk]));
    }
    Index dk = 0;
    nv_[kk] = -nvk;
    const Index k_list = pe_[kk];
    const Index lk_begin = elenk == 0 ? k_list : iw_end_;
    Index lk_end = lk_begin;
    for (Index source = 0; source <= elenk; ++source) {
      // source < elenk: the source-th element of k; source == elenk: k's
      // own variable neighbours.
      const Index e = source < elenk
                          ? iw_[static_cast<std::size_t>(k_list + source)]
                          : k;
      const auto ee = static_cast<std::size_t>(e);
      const Index begin = source < elenk ? pe_[ee] : k_list + elenk;
      const Index end = source < elenk ? pe_[ee] + len_[ee] : k_list + len_[kk];
      for (Index p = begin; p < end; ++p) {
        const Index i = iw_[static_cast<std::size_t>(p)];
        const auto ii = static_cast<std::size_t>(i);
        const Index nvi = nv_[ii];
        if (nvi <= 0) continue;  // merged, deferred, or already in Lk
        dk += nvi;
        nv_[ii] = -nvi;
        iw_[static_cast<std::size_t>(lk_end++)] = i;
        remove_degree(i);
      }
      if (e != k) {
        absorb(e, k);  // element absorption: Le joins Lk
        w_[ee] = 0;
      }
    }
    degree_[kk] = dk;
    pe_[kk] = lk_begin;
    len_[kk] = lk_end - lk_begin;
    elen_[kk] = kElement;

    // --- Degree update, absorption, mass elimination. --------------------
    compute_set_differences(lk_begin, lk_end);
    update_variables(k, lk_begin, lk_end, dk, nvk);
    degree_[kk] = dk;
    max_element_ = std::max(max_element_, dk);
    advance_mark(max_element_);

    detect_supervariables(lk_begin, lk_end);

    // --- Finalise Lk: keep its principal variables, queue their degrees. -
    Index out = lk_begin;
    for (Index pk = lk_begin; pk < lk_end; ++pk) {
      const Index i = iw_[static_cast<std::size_t>(pk)];
      const auto ii = static_cast<std::size_t>(i);
      const Index nvi = -nv_[ii];
      if (nvi <= 0) continue;
      nv_[ii] = nvi;
      // Bound (4): external degree through the other elements plus
      // |Lk \ i|, capped by the variables left.
      const Index d =
          std::min(degree_[ii] + dk - nvi, n_ - eliminated_ - nvi);
      degree_[ii] = d;
      push_degree(i, d);
      min_degree_ = std::min(min_degree_, d);
      iw_[static_cast<std::size_t>(out++)] = i;
    }
    nv_[kk] = nvk;
    len_[kk] = out - lk_begin;
    if (len_[kk] == 0) {
      pe_[kk] = -1;
      w_[kk] = 0;
    }
    if (elenk != 0) iw_end_ = out;
  }
  return postorder();
}

std::vector<Index> ApproximateMinimumDegree::postorder() const {
  // Children lists of the assembly tree, built so each node visits its
  // child elements (in index order) before its merged or mass-eliminated
  // variables; a supervariable's members then precede their principal.
  const auto n = static_cast<std::size_t>(n_);
  std::vector<Index> first_child(n, -1);
  std::vector<Index> sibling(n, -1);
  for (const bool elements : {false, true}) {
    for (Index j = n_ - 1; j >= 0; --j) {
      const auto jj = static_cast<std::size_t>(j);
      if ((nv_[jj] > 0) != elements || parent_[jj] == -1) continue;
      const auto p = static_cast<std::size_t>(parent_[jj]);
      sibling[jj] = first_child[p];
      first_child[p] = j;
    }
  }
  std::vector<Index> order;
  order.reserve(n);
  std::vector<Index> stack;
  for (Index root = 0; root < n_; ++root) {
    const auto rr = static_cast<std::size_t>(root);
    if (parent_[rr] != -1 || nv_[rr] == 0) continue;  // not a tree root
    stack.push_back(root);
    while (!stack.empty()) {
      const auto top = static_cast<std::size_t>(stack.back());
      const Index child = first_child[top];
      if (child == -1) {
        order.push_back(stack.back());
        stack.pop_back();
      } else {
        first_child[top] = sibling[static_cast<std::size_t>(child)];
        stack.push_back(child);
      }
    }
  }
  order.insert(order.end(), dense_.begin(), dense_.end());
  BBS_ASSERT_MSG(order.size() == n, "amd: postorder missed a node");
  return order;
}

}  // namespace

std::vector<Index> compute_ordering(const SparseMatrix& pattern,
                                    OrderingMethod method) {
  switch (method) {
    case OrderingMethod::kNatural: {
      BBS_REQUIRE(pattern.rows() == pattern.cols(),
                  "ordering: matrix must be square");
      std::vector<Index> p(static_cast<std::size_t>(pattern.rows()));
      for (std::size_t i = 0; i < p.size(); ++i) p[i] = static_cast<Index>(i);
      return p;
    }
    case OrderingMethod::kApproximateMinimumDegree:
      return ApproximateMinimumDegree(pattern).order();
  }
  throw ContractViolation("compute_ordering: unknown method");
}

bool is_permutation(const std::vector<Index>& p) {
  std::vector<bool> seen(p.size(), false);
  for (Index v : p) {
    if (v < 0 || static_cast<std::size_t>(v) >= p.size()) return false;
    if (seen[static_cast<std::size_t>(v)]) return false;
    seen[static_cast<std::size_t>(v)] = true;
  }
  return true;
}

const char* ordering_name(OrderingMethod method) {
  switch (method) {
    case OrderingMethod::kNatural:
      return "natural";
    case OrderingMethod::kApproximateMinimumDegree:
      return "amd";
  }
  return "?";
}

}  // namespace bbs::linalg
