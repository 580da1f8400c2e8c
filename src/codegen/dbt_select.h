// Branch-free selection kernels for the columnar batch path.
//
// A selection vector is a dense array of uint32 row indices. Each kernel
// takes a flat column lane plus an input selection (`base`; nullptr means
// the identity 0..n-1), writes the surviving indices to `out` and returns
// the survivor count. `out` may alias `base`, so AND-composition is a chain
// of in-place refinement passes:
//
//   uint32_t k = SelCmp(shipdate, SelOp::kGe, lo, nullptr, n, sel);
//   k = SelCmp(shipdate, SelOp::kLt, hi, sel, k, sel);
//   k = SelCmp(quantity, SelOp::kLt, INT64_C(24), sel, k, sel);
//
// The inner loops are plain branch-free compress loops (`out[k] = i; k +=
// pred`) over int64/double lanes — no intrinsics, the compiler's
// auto-vectorizer does the rest. String equality gets a length-prechecked
// scalar kernel so generated selection prologues never run a per-row
// std::string comparison loop inline.
//
// Generated batch handlers run every group of more than one row through
// the vectorized path (selection prologue + statement-major phases) and a
// single row through the scalar on_<R> handler; both produce byte-identical
// state (tests/differential_test.cc pins it).
#ifndef DBTOASTER_CODEGEN_DBT_SELECT_H_
#define DBTOASTER_CODEGEN_DBT_SELECT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dbt {

enum class SelOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

namespace sel_detail {

/// One compress pass: append i to out when pred(lane[i]), for i drawn from
/// `base` (or 0..n-1 when base == nullptr). Branch-free on the predicate.
template <typename T, typename Pred>
inline uint32_t Pass(const T* lane, const uint32_t* base, uint32_t n,
                     uint32_t* out, Pred pred) {
  uint32_t k = 0;
  if (base == nullptr) {
    for (uint32_t i = 0; i < n; ++i) {
      out[k] = i;
      k += static_cast<uint32_t>(pred(lane[i]));
    }
  } else {
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t r = base[i];
      out[k] = r;
      k += static_cast<uint32_t>(pred(lane[r]));
    }
  }
  return k;
}

}  // namespace sel_detail

/// lane[i] <op> c. T is int64_t or double (dates travel as int64 days).
template <typename T>
inline uint32_t SelCmp(const T* lane, SelOp op, T c, const uint32_t* base,
                       uint32_t n, uint32_t* out) {
  switch (op) {
    case SelOp::kEq:
      return sel_detail::Pass(lane, base, n, out,
                              [c](T v) { return v == c; });
    case SelOp::kNe:
      return sel_detail::Pass(lane, base, n, out,
                              [c](T v) { return v != c; });
    case SelOp::kLt:
      return sel_detail::Pass(lane, base, n, out, [c](T v) { return v < c; });
    case SelOp::kLe:
      return sel_detail::Pass(lane, base, n, out,
                              [c](T v) { return v <= c; });
    case SelOp::kGt:
      return sel_detail::Pass(lane, base, n, out, [c](T v) { return v > c; });
    case SelOp::kGe:
      return sel_detail::Pass(lane, base, n, out,
                              [c](T v) { return v >= c; });
  }
  return 0;
}

/// Half-open range: lo <= lane[i] < hi (the shape EXTRACT(YEAR)=c rewrites
/// to over day-encoded dates).
template <typename T>
inline uint32_t SelRange(const T* lane, T lo, T hi, const uint32_t* base,
                         uint32_t n, uint32_t* out) {
  return sel_detail::Pass(lane, base, n, out,
                          [lo, hi](T v) { return lo <= v && v < hi; });
}

/// Small-list membership (IN-list); branch-free inner fold over the list.
template <typename T>
inline uint32_t SelIn(const T* lane, const T* vals, size_t nvals,
                      const uint32_t* base, uint32_t n, uint32_t* out) {
  return sel_detail::Pass(lane, base, n, out, [vals, nvals](T v) {
    int hit = 0;
    for (size_t j = 0; j < nvals; ++j) hit |= static_cast<int>(v == vals[j]);
    return hit != 0;
  });
}

/// String lane equality with a length precheck: mismatched rows cost one
/// size_t compare, never a character scan.
inline uint32_t SelStrEq(const std::string* lane, const std::string& c,
                         const uint32_t* base, uint32_t n, uint32_t* out) {
  const size_t len = c.size();
  return sel_detail::Pass(lane, base, n, out, [&c, len](const std::string& v) {
    return v.size() == len && v == c;
  });
}

inline uint32_t SelStrNe(const std::string* lane, const std::string& c,
                         const uint32_t* base, uint32_t n, uint32_t* out) {
  const size_t len = c.size();
  return sel_detail::Pass(lane, base, n, out, [&c, len](const std::string& v) {
    return v.size() != len || v != c;
  });
}

/// Stack-or-heap scratch for one selection vector. Groups up to kInline
/// rows (including the scalar on_<R> wrapper's 1-row lanes) select with no
/// allocation; larger groups spill to a vector sized once per call.
class SelBuf {
 public:
  uint32_t* data(uint32_t n) {
    if (n <= kInline) return small_;
    heap_.resize(n);
    return heap_.data();
  }

 private:
  static constexpr uint32_t kInline = 64;
  uint32_t small_[kInline];
  std::vector<uint32_t> heap_;
};

}  // namespace dbt

#endif  // DBTOASTER_CODEGEN_DBT_SELECT_H_
