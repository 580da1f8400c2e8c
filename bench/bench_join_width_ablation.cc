// Ablation for the recursive-compilation design choice: per-event cost as a
// function of join width (2-, 3-, 4-, 5-way chain joins).
//
// Each extra relation adds one recursion level. Re-evaluation re-joins the
// whole chain per event; first-order IVM re-joins everything but the
// updated relation; DBToaster's recursion replaces every join with
// materialised maps, so per-event cost stays a small constant number of map
// operations regardless of width (more maps exist, but each event touches
// only the affected ones).
#include "bench/bench_common.h"
#include "src/common/rng.h"
#include "src/common/str.h"

namespace dbtoaster::bench {
namespace {

/// Chain schema A1(X0,X1), A2(X1,X2), ..., Ak(X_{k-1},X_k);
/// query: sum(A1.X0 * Ak.Xk) joined along the chain.
Catalog ChainCatalog(int width) {
  Catalog cat;
  for (int i = 1; i <= width; ++i) {
    (void)cat.AddRelation(Schema(
        StrFormat("A%d", i),
        {{StrFormat("X%d", i - 1), Type::kInt}, {StrFormat("X%d", i), Type::kInt}}));
  }
  return cat;
}

std::string ChainQuery(int width) {
  std::string sql = StrFormat("select sum(A1.X0 * A%d.X%d) from ", width,
                              width);
  for (int i = 1; i <= width; ++i) {
    if (i > 1) sql += ", ";
    sql += StrFormat("A%d", i);
  }
  sql += " where ";
  for (int i = 1; i < width; ++i) {
    if (i > 1) sql += " and ";
    sql += StrFormat("A%d.X%d = A%d.X%d", i, i, i + 1, i);
  }
  return sql;
}

void RunWidth(int width) {
  Catalog cat = ChainCatalog(width);
  std::string sql = ChainQuery(width);
  Rng rng(31);
  // Keep the chain fan-out ~2 per level so join cardinality stays bounded
  // at every width (the point is per-event cost, not blow-up).
  const size_t preload_n = 400;
  const int64_t domain = static_cast<int64_t>(preload_n) / 2;
  std::vector<Event> preload, probe;
  for (size_t i = 0; i < preload_n; ++i) {
    for (int r = 1; r <= width; ++r) {
      preload.push_back(Event::Insert(
          StrFormat("A%d", r),
          {Value(rng.Range(0, domain)), Value(rng.Range(0, domain))}));
    }
  }
  for (int i = 0; i < 100; ++i) {
    probe.push_back(Event::Insert(
        StrFormat("A%d", 1 + static_cast<int>(rng.Uniform(width))),
        {Value(rng.Range(0, domain)), Value(rng.Range(0, domain))}));
  }
  auto measure = [&](auto&& apply) {
    double t0 = NowSeconds();
    for (const Event& ev : probe) apply(ev);
    return (NowSeconds() - t0) / probe.size() * 1e6;
  };

  double reeval_us, ivm1_us, toaster_us;
  size_t maps = 0;
  {
    baseline::ReevalEngine e(cat, /*eager=*/true);
    (void)e.AddQuery("q", sql);
    for (const Event& ev : preload) (void)e.database().Apply(ev);
    reeval_us = measure([&](const Event& ev) { (void)e.OnEvent(ev); });
  }
  {
    baseline::Ivm1Engine e(cat);
    (void)e.AddQuery("q", sql);
    for (const Event& ev : preload) (void)e.OnEvent(ev);
    ivm1_us = measure([&](const Event& ev) { (void)e.OnEvent(ev); });
  }
  {
    auto program = compiler::CompileQuery(cat, "q", sql);
    maps = program.value().maps.size();
    runtime::Engine e(std::move(program).value());
    for (const Event& ev : preload) (void)e.OnEvent(ev);
    toaster_us = measure([&](const Event& ev) { (void)e.OnEvent(ev); });
  }
  std::printf("%6d %8zu %16.1f %16.2f %16.2f\n", width, maps, reeval_us,
              ivm1_us, toaster_us);
}

}  // namespace
}  // namespace dbtoaster::bench

int main() {
  std::printf(
      "== ablation: per-event latency vs join width (chain joins) ==\n");
  std::printf("%6s %8s %16s %16s %16s\n", "width", "maps", "reeval us/ev",
              "ivm1 us/ev", "toaster-i us/ev");
  for (int w : {2, 3, 4, 5}) dbtoaster::bench::RunWidth(w);
  std::printf(
      "\nshape check: reeval cost grows with every added join; the recursive\n"
      "compiler adds maps (compile-time state) instead of run-time joins.\n");
  return 0;
}
