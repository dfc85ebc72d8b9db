// Fill-reducing orderings for the sparse LDL^T factorisation.
//
// The KKT matrices of the interior-point solver (whose variable block, once
// the cone rows are eliminated, has the normal-equation pattern) inherit the
// topology of the task graphs: long chains, hubs where a processor's
// budget row meets all of its tasks, and a few dense rows. Two methods are
// provided:
//   * Natural                  — identity permutation (the ablation baseline
//                                of bench_ablation_ordering),
//   * ApproximateMinimumDegree — quotient-graph AMD (Amestoy, Davis & Duff,
//                                SIMAX 1996): supervariables, approximate
//                                external degrees, element and aggressive
//                                absorption, mass elimination, dense rows
//                                deferred, and a postordered result. It
//                                works in the space of the input pattern, in
//                                time close to linear in its size.
#pragma once

#include <vector>

#include "bbs/linalg/sparse_matrix.hpp"

namespace bbs::linalg {

enum class OrderingMethod {
  kNatural,
  kApproximateMinimumDegree,
};

/// Computes a fill-reducing permutation for a square matrix whose *pattern*
/// is interpreted symmetrically (the union of the stored pattern and its
/// transpose is used; values and the diagonal are ignored). Returns perm
/// with perm[new_index] = old_index.
std::vector<Index> compute_ordering(const SparseMatrix& pattern,
                                    OrderingMethod method);

/// True iff `p` is a permutation of 0..p.size()-1.
bool is_permutation(const std::vector<Index>& p);

/// Human-readable method name for reports.
const char* ordering_name(OrderingMethod method);

}  // namespace bbs::linalg
