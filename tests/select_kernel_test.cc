// Per-kernel coverage for the branch-free selection kernels in
// src/codegen/dbt_select.h. Every kernel is checked against a scalar
// reference over both the identity base (nullptr) and an explicit
// selection vector, including in-place refinement (out aliasing base).

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "src/codegen/dbt_select.h"

namespace {

using dbt::SelOp;

template <typename T>
std::vector<uint32_t> Reference(const std::vector<T>& lane,
                                const std::vector<uint32_t>* base,
                                std::function<bool(const T&)> pred) {
  std::vector<uint32_t> out;
  if (base == nullptr) {
    for (uint32_t i = 0; i < lane.size(); ++i)
      if (pred(lane[i])) out.push_back(i);
  } else {
    for (uint32_t r : *base)
      if (pred(lane[r])) out.push_back(r);
  }
  return out;
}

std::vector<int64_t> I64Lane(uint32_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<int64_t> lane(n);
  for (auto& v : lane) v = static_cast<int64_t>(rng() % 17) - 4;
  return lane;
}

std::vector<double> F64Lane(uint32_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<double> lane(n);
  for (auto& v : lane) v = 0.25 * (static_cast<int>(rng() % 33) - 16);
  return lane;
}

template <typename T>
std::function<bool(const T&)> OpPred(SelOp op, T c) {
  switch (op) {
    case SelOp::kEq: return [c](const T& v) { return v == c; };
    case SelOp::kNe: return [c](const T& v) { return v != c; };
    case SelOp::kLt: return [c](const T& v) { return v < c; };
    case SelOp::kLe: return [c](const T& v) { return v <= c; };
    case SelOp::kGt: return [c](const T& v) { return v > c; };
    case SelOp::kGe: return [c](const T& v) { return v >= c; };
  }
  return [](const T&) { return false; };
}

const SelOp kAllOps[] = {SelOp::kEq, SelOp::kNe, SelOp::kLt,
                         SelOp::kLe, SelOp::kGt, SelOp::kGe};

TEST(SelectKernel, CmpI64AllOpsIdentityBase) {
  const auto lane = I64Lane(203, 1);
  std::vector<uint32_t> out(lane.size());
  for (SelOp op : kAllOps) {
    const int64_t c = 3;
    uint32_t k = dbt::SelCmp(lane.data(), op, c, nullptr,
                             static_cast<uint32_t>(lane.size()), out.data());
    auto want = Reference<int64_t>(lane, nullptr, OpPred<int64_t>(op, c));
    ASSERT_EQ(k, want.size()) << static_cast<int>(op);
    EXPECT_EQ(std::vector<uint32_t>(out.begin(), out.begin() + k), want);
  }
}

TEST(SelectKernel, CmpF64AllOpsExplicitBase) {
  const auto lane = F64Lane(211, 2);
  std::vector<uint32_t> base;
  for (uint32_t i = 0; i < lane.size(); i += 2) base.push_back(i);
  std::vector<uint32_t> out(base.size());
  for (SelOp op : kAllOps) {
    const double c = 0.5;
    uint32_t k = dbt::SelCmp(lane.data(), op, c, base.data(),
                             static_cast<uint32_t>(base.size()), out.data());
    auto want = Reference<double>(lane, &base, OpPred<double>(op, c));
    ASSERT_EQ(k, want.size()) << static_cast<int>(op);
    EXPECT_EQ(std::vector<uint32_t>(out.begin(), out.begin() + k), want);
  }
}

TEST(SelectKernel, RangeHalfOpen) {
  const auto lane = I64Lane(157, 3);
  std::vector<uint32_t> out(lane.size());
  uint32_t k = dbt::SelRange<int64_t>(lane.data(), -1, 4, nullptr,
                                      static_cast<uint32_t>(lane.size()),
                                      out.data());
  auto want = Reference<int64_t>(
      lane, nullptr, [](const int64_t& v) { return -1 <= v && v < 4; });
  ASSERT_EQ(k, want.size());
  EXPECT_EQ(std::vector<uint32_t>(out.begin(), out.begin() + k), want);
  // Bounds are half-open: lo survives, hi does not.
  std::vector<int64_t> edges = {-2, -1, 3, 4};
  k = dbt::SelRange<int64_t>(edges.data(), -1, 4, nullptr, 4, out.data());
  EXPECT_EQ(k, 2u);
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(out[1], 2u);
}

TEST(SelectKernel, InListI64AndF64) {
  const auto ilane = I64Lane(190, 4);
  const int64_t ivals[] = {0, 5, 9};
  std::vector<uint32_t> out(ilane.size());
  uint32_t k = dbt::SelIn(ilane.data(), ivals, 3, nullptr,
                          static_cast<uint32_t>(ilane.size()), out.data());
  auto want = Reference<int64_t>(ilane, nullptr, [&](const int64_t& v) {
    return v == 0 || v == 5 || v == 9;
  });
  ASSERT_EQ(k, want.size());
  EXPECT_EQ(std::vector<uint32_t>(out.begin(), out.begin() + k), want);

  const auto dlane = F64Lane(190, 5);
  const double dvals[] = {0.0, 0.25};
  out.assign(dlane.size(), 0);
  k = dbt::SelIn(dlane.data(), dvals, 2, nullptr,
                 static_cast<uint32_t>(dlane.size()), out.data());
  auto dwant = Reference<double>(
      dlane, nullptr, [&](const double& v) { return v == 0.0 || v == 0.25; });
  ASSERT_EQ(k, dwant.size());
  EXPECT_EQ(std::vector<uint32_t>(out.begin(), out.begin() + k), dwant);

  // Empty IN-list selects nothing.
  k = dbt::SelIn(ilane.data(), ivals, 0, nullptr,
                 static_cast<uint32_t>(ilane.size()), out.data());
  EXPECT_EQ(k, 0u);
}

TEST(SelectKernel, StringEqNe) {
  std::vector<std::string> lane = {"MAIL", "SHIP", "MAIL", "RAIL",
                                   "",     "MAILX", "MAIL"};
  std::vector<uint32_t> out(lane.size());
  uint32_t k = dbt::SelStrEq(lane.data(), "MAIL", nullptr,
                             static_cast<uint32_t>(lane.size()), out.data());
  EXPECT_EQ(std::vector<uint32_t>(out.begin(), out.begin() + k),
            (std::vector<uint32_t>{0, 2, 6}));
  k = dbt::SelStrNe(lane.data(), "MAIL", nullptr,
                    static_cast<uint32_t>(lane.size()), out.data());
  EXPECT_EQ(std::vector<uint32_t>(out.begin(), out.begin() + k),
            (std::vector<uint32_t>{1, 3, 4, 5}));
  // Base-restricted string pass.
  std::vector<uint32_t> base = {1, 2, 5};
  k = dbt::SelStrEq(lane.data(), "MAIL", base.data(), 3, out.data());
  EXPECT_EQ(std::vector<uint32_t>(out.begin(), out.begin() + k),
            (std::vector<uint32_t>{2}));
}

TEST(SelectKernel, AndCompositionInPlace) {
  // Refinement chain with out aliasing base, mirroring generated prologues.
  const auto date = I64Lane(512, 7);
  const auto qty = I64Lane(512, 8);
  const auto disc = F64Lane(512, 9);
  std::vector<uint32_t> sel(date.size());
  uint32_t k = dbt::SelCmp<int64_t>(date.data(), SelOp::kGe, 0, nullptr,
                                    static_cast<uint32_t>(date.size()),
                                    sel.data());
  k = dbt::SelCmp<int64_t>(date.data(), SelOp::kLt, 6, sel.data(), k,
                           sel.data());
  k = dbt::SelCmp<int64_t>(qty.data(), SelOp::kLt, 2, sel.data(), k,
                           sel.data());
  k = dbt::SelCmp<double>(disc.data(), SelOp::kGe, -0.5, sel.data(), k,
                          sel.data());
  auto want = Reference<int64_t>(date, nullptr, [&](const int64_t&) {
    return false;  // replaced below; Reference needs index-based pred here
  });
  want.clear();
  for (uint32_t i = 0; i < date.size(); ++i) {
    if (date[i] >= 0 && date[i] < 6 && qty[i] < 2 && disc[i] >= -0.5)
      want.push_back(i);
  }
  ASSERT_EQ(k, want.size());
  EXPECT_EQ(std::vector<uint32_t>(sel.begin(), sel.begin() + k), want);
}

TEST(SelectKernel, EmptyAndFullSelectivity) {
  const auto lane = I64Lane(300, 11);
  std::vector<uint32_t> out(lane.size());
  uint32_t k = dbt::SelCmp<int64_t>(lane.data(), SelOp::kLt, -100, nullptr,
                                    static_cast<uint32_t>(lane.size()),
                                    out.data());
  EXPECT_EQ(k, 0u);
  k = dbt::SelCmp<int64_t>(lane.data(), SelOp::kLt, 100, nullptr,
                           static_cast<uint32_t>(lane.size()), out.data());
  EXPECT_EQ(k, lane.size());
  for (uint32_t i = 0; i < k; ++i) EXPECT_EQ(out[i], i);
}

TEST(SelectKernel, ZeroRows) {
  std::vector<uint32_t> out(1);
  uint32_t k =
      dbt::SelCmp<int64_t>(nullptr, SelOp::kEq, 0, nullptr, 0, out.data());
  EXPECT_EQ(k, 0u);
}

TEST(SelectKernel, SelBufStackAndHeap) {
  dbt::SelBuf buf;
  uint32_t* small = buf.data(64);
  ASSERT_NE(small, nullptr);
  small[63] = 42;  // in-bounds write on the inline buffer
  uint32_t* big = buf.data(4096);
  ASSERT_NE(big, nullptr);
  big[4095] = 7;
  EXPECT_NE(small, big);
}

}  // namespace
