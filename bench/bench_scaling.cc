// §2's asymptotic claim: "we generate asymptotically simpler code at each
// recurrence". Per-event latency as a function of database size |DB|:
// re-evaluation degrades with |DB| (it rescans/rejoins), first-order IVM
// grows with index fan-out, DBToaster stays flat (map lookups).
#include "bench/bench_common.h"
#include "src/common/rng.h"

namespace dbtoaster::bench {
namespace {

Catalog Fig2Catalog() {
  Catalog cat;
  (void)cat.AddRelation(Schema("R", {{"A", Type::kInt}, {"B", Type::kInt}}));
  (void)cat.AddRelation(Schema("S", {{"B", Type::kInt}, {"C", Type::kInt}}));
  (void)cat.AddRelation(Schema("T", {{"C", Type::kInt}, {"D", Type::kInt}}));
  return cat;
}

constexpr char kQuery[] =
    "select sum(R.A * T.D) from R, S, T where R.B = S.B and S.C = T.C";

/// Build a database of `n` rows/relation, then measure the cost of 200
/// additional events on each engine.
void RunAtSize(size_t n) {
  Catalog cat = Fig2Catalog();
  Rng rng(99);
  std::vector<Event> preload;
  const int64_t domain = static_cast<int64_t>(n) / 4 + 4;
  for (size_t i = 0; i < n; ++i) {
    for (const char* rel : {"R", "S", "T"}) {
      preload.push_back(Event::Insert(
          rel, {Value(rng.Range(0, domain)), Value(rng.Range(0, domain))}));
    }
  }
  std::vector<Event> probe;
  for (int i = 0; i < 200; ++i) {
    probe.push_back(Event::Insert(
        i % 3 == 0   ? "R"
        : i % 3 == 1 ? "S"
                     : "T",
        {Value(rng.Range(0, domain)), Value(rng.Range(0, domain))}));
  }

  auto measure = [&](auto&& apply) {
    double t0 = NowSeconds();
    for (const Event& ev : probe) apply(ev);
    return (NowSeconds() - t0) / static_cast<double>(probe.size()) * 1e6;
  };

  double reeval_us, ivm1_us, toaster_us;
  {
    baseline::ReevalEngine e(cat, /*eager=*/true);
    (void)e.AddQuery("q", kQuery);
    baseline::ReevalEngine* ep = &e;
    // preload without re-evaluation cost in the measurement
    baseline::ReevalEngine lazy(cat, false);
    for (const Event& ev : preload) (void)e.database().Apply(ev);
    (void)lazy;
    reeval_us = measure([&](const Event& ev) { (void)ep->OnEvent(ev); });
  }
  {
    baseline::Ivm1Engine e(cat);
    (void)e.AddQuery("q", kQuery);
    for (const Event& ev : preload) (void)e.OnEvent(ev);
    ivm1_us = measure([&](const Event& ev) { (void)e.OnEvent(ev); });
  }
  {
    auto program = compiler::CompileQuery(cat, "q", kQuery);
    runtime::Engine e(std::move(program).value());
    for (const Event& ev : preload) (void)e.OnEvent(ev);
    toaster_us = measure([&](const Event& ev) { (void)e.OnEvent(ev); });
  }
  std::printf("%10zu %16.1f %16.2f %16.2f\n", n, reeval_us, ivm1_us,
              toaster_us);
}

}  // namespace
}  // namespace dbtoaster::bench

int main() {
  std::printf("== per-event latency vs database size (Fig2 query) ==\n");
  std::printf("%10s %16s %16s %16s\n", "|rel|", "reeval us/ev",
              "ivm1 us/ev", "toaster-i us/ev");
  for (size_t n : {100u, 400u, 1600u, 6400u}) {
    dbtoaster::bench::RunAtSize(n);
  }
  std::printf(
      "\nshape check: reeval grows superlinearly with |DB|; toaster stays "
      "flat.\n");
  return 0;
}
