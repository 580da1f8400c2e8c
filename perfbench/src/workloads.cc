// The three workloads: their streams, sizes, rates and thread counts, and
// the benchmark's own model of each query's result.
//
// Sizes are fixed per round, so every run does the same work for a given
// seed; a run repeats whole rounds. See README.md for why each workload is
// here and which layer it loads.
#include <algorithm>
#include <deque>
#include <map>
#include <unordered_map>

#include "gen/best_bid.hpp"
#include "gen/mm.hpp"
#include "gen/q3s.hpp"
#include "gen/q41.hpp"
#include "gen/revenue.hpp"
#include "harness.h"
#include "src/common/rng.h"
#include "src/workload/orderbook.h"
#include "src/workload/tpch.h"

namespace perfbench {
namespace {

using dbtoaster::EventKind;
using dbtoaster::Rng;
using dbtoaster::RowEq;
using dbtoaster::RowHash;

using RowCounts = std::unordered_map<Row, int64_t, RowHash, RowEq>;

template <typename P>
QuerySpec Query(const char* name) {
  return QuerySpec{name, [] { return std::make_unique<P>(); }};
}

void ApplyTo(RowCounts* rel, const Event& e) {
  int64_t& c = (*rel)[e.tuple];
  c += e.kind == EventKind::kInsert ? 1 : -1;
  if (c == 0) rel->erase(e.tuple);
}

int64_t I(const Row& r, size_t c) { return r[c].AsInt(); }

// ---- order book: mm, best_bid ----------------------------------------------

/// The live book, BIDS and ASKS rows (ID, BROKER_ID, PRICE, VOLUME).
class BookOracle : public Oracle {
 public:
  void Apply(const Event& e) override {
    ApplyTo(e.relation == "BIDS" ? &bids_ : &asks_, e);
  }

  std::vector<Row> Expected(const std::string& query) const override {
    return query == "mm" ? MarketMaker() : BestBid();
  }

 private:
  struct Side {
    int64_t n = 0;
    int64_t volume = 0;
  };

  /// Per broker on both sides: the sum over bid/ask pairs of
  /// (ask volume - bid volume) is nBids * askVolume - nAsks * bidVolume.
  std::vector<Row> MarketMaker() const {
    std::map<int64_t, std::pair<Side, Side>> brokers;
    for (const auto& [row, c] : bids_) {
      Side& s = brokers[I(row, 1)].first;
      s.n += c;
      s.volume += c * I(row, 3);
    }
    for (const auto& [row, c] : asks_) {
      Side& s = brokers[I(row, 1)].second;
      s.n += c;
      s.volume += c * I(row, 3);
    }
    std::vector<Row> out;
    for (const auto& [broker, sides] : brokers) {
      const auto& [b, a] = sides;
      if (b.n == 0 || a.n == 0) continue;
      out.push_back(Row{Value(broker), Value(b.n * a.volume - a.n * b.volume)});
    }
    return out;
  }

  std::vector<Row> BestBid() const {
    if (bids_.empty()) return {};
    int64_t best = INT64_MIN;
    for (const auto& [row, c] : bids_) best = std::max(best, I(row, 2));
    return {Row{Value(best)}};
  }

  RowCounts bids_, asks_;
};

/// At least `n` order-book events continuing `gen`.
std::vector<Event> BookEvents(dbtoaster::workload::OrderBookGenerator* gen,
                              size_t n) {
  std::vector<Event> out;
  while (out.size() < n) gen->Next(&out);
  return out;
}

WorkloadSpec OrderbookTick() {
  WorkloadSpec w;
  w.name = "orderbook-tick";
  w.queries = {Query<dbtoaster_gen::mm_Program>("mm"),
               Query<dbtoaster_gen::best_bid_Program>("best_bid")};
  w.closed_batch = 4;
  w.open_cap = 16;
  w.offered_rate = 20000;
  w.tail_window = 100;
  w.pool_threads = 1;
  w.readers = 1;
  w.read_interval_us = 250;
  w.setup_reps = 20;
  w.interp_events = 20000;
  w.make_stream = [](uint64_t seed) {
    dbtoaster::workload::OrderBookConfig cfg;
    cfg.seed = seed;
    dbtoaster::workload::OrderBookGenerator gen(cfg);
    Stream s;
    s.closed = BookEvents(&gen, 150000);
    s.open = BookEvents(&gen, 40000);
    return s;
  };
  w.make_oracle = [] { return std::make_unique<BookOracle>(); };
  return w;
}

// ---- warehouse loading: q41, revenue ---------------------------------------

/// The live TPC-H-shaped relations, joined by hash on demand.
class WarehouseOracle : public Oracle {
 public:
  void Apply(const Event& e) override { ApplyTo(&rels_[e.relation], e); }

  std::vector<Row> Expected(const std::string& query) const override {
    // Dimension rows by key; keys are unique in the generated stream, but
    // multiplicities are carried through the join all the same.
    auto index = [&](const char* rel) {
      std::unordered_multimap<int64_t, std::pair<const Row*, int64_t>> out;
      auto it = rels_.find(rel);
      if (it == rels_.end()) return out;
      for (const auto& [row, c] : it->second) out.emplace(I(row, 0), std::make_pair(&row, c));
      return out;
    };
    const auto orders = index("ORDERS");
    std::map<Row, std::pair<int64_t, int64_t>> groups;  // group -> (sum, tuples)
    auto lineitems = rels_.find("LINEITEM");
    if (lineitems == rels_.end()) return {};
    if (query == "revenue") {
      for (const auto& [l, lc] : lineitems->second) {
        auto [ob, oe] = orders.equal_range(I(l, 0));
        for (auto o = ob; o != oe; ++o) {
          const int64_t m = lc * o->second.second;
          auto& g = groups[Row{(*o->second.first)[2]}];
          g.first += m * I(l, 4) * I(l, 3);
          g.second += m;
        }
      }
    } else {
      const auto customers = index("CUSTOMER");
      const auto suppliers = index("SUPPLIER");
      const auto parts = index("PART");
      for (const auto& [l, lc] : lineitems->second) {
        auto [ob, oe] = orders.equal_range(I(l, 0));
        for (auto o = ob; o != oe; ++o) {
          const Row& order = *o->second.first;
          auto [cb, ce] = customers.equal_range(I(order, 1));
          for (auto c = cb; c != ce; ++c) {
            const Row& cust = *c->second.first;
            if (I(cust, 2) != 1) continue;
            auto [sb, se] = suppliers.equal_range(I(l, 2));
            for (auto s = sb; s != se; ++s) {
              if (I(*s->second.first, 2) != 1) continue;
              auto [pb, pe] = parts.equal_range(I(l, 1));
              for (auto p = pb; p != pe; ++p) {
                const int64_t mfgr = I(*p->second.first, 1);
                if (mfgr != 1 && mfgr != 2) continue;
                const int64_t m = lc * o->second.second * c->second.second *
                                  s->second.second * p->second.second;
                auto& g = groups[Row{order[2], cust[1]}];
                g.first += m * (I(l, 4) - I(l, 5));
                g.second += m;
              }
            }
          }
        }
      }
    }
    std::vector<Row> out;
    for (const auto& [key, g] : groups) {
      if (g.second == 0) continue;
      Row row = key;
      row.push_back(Value(g.first));
      out.push_back(std::move(row));
    }
    return out;
  }

 private:
  std::map<std::string, RowCounts> rels_;
};

WorkloadSpec WarehouseLoad() {
  WorkloadSpec w;
  w.name = "warehouse-load";
  w.queries = {Query<dbtoaster_gen::q41_Program>("q41"),
               Query<dbtoaster_gen::revenue_Program>("revenue")};
  w.initial_batch = 1024;
  w.closed_batch = 1024;
  w.open_cap = 1024;
  w.offered_rate = 10000;
  w.pool_threads = 3;
  w.readers = 1;
  w.read_interval_us = 250;
  w.sync_events = 16384;
  w.setup_reps = 5;
  w.interp_events = 2048;
  w.make_stream = [](uint64_t seed) {
    dbtoaster::workload::TpchConfig cfg;
    cfg.seed = seed;
    dbtoaster::workload::TpchGenerator gen(cfg);
    Stream s;
    s.initial = gen.DimensionLoad();
    while (s.closed.size() < 60000) gen.NextOrder(&s.closed);
    while (s.open.size() < 15000) gen.NextOrder(&s.open);
    return s;
  };
  w.make_oracle = [] { return std::make_unique<WarehouseOracle>(); };
  return w;
}

// ---- wide-view serving: q3s --------------------------------------------------

constexpr int64_t kCustomers = 1000;
constexpr size_t kLiveOrders = 21000;
const char* const kSegments[] = {"BUILDING", "AUTOMOBILE", "MACHINERY",
                                 "HOUSEHOLD", "FURNITURE"};

int64_t Cutoff() { return dbtoaster::CivilToDays(1995, 3, 15); }

/// A sliding window of orders: each new order retires the oldest one, so the
/// q3s view keeps a steady number of groups while each batch touches few.
class OrderWindow {
 public:
  explicit OrderWindow(uint64_t seed) : rng_(seed) {}

  void Customers(std::vector<Event>* out) {
    for (int64_t c = 1; c <= kCustomers; ++c) {
      const char* seg = rng_.Chance(0.8) ? kSegments[0] : kSegments[1 + rng_.Uniform(4)];
      out->push_back(Event::Insert("CUSTOMER", {Value(c), Value(seg)}));
    }
  }

  /// One new order with its line items.
  void Add(std::vector<Event>* out) {
    std::vector<Event> order;
    const int64_t key = next_key_++;
    const int64_t date = Cutoff() - 120 + rng_.Range(0, 149);
    order.push_back(Event::Insert(
        "ORDERS", {Value(key), Value(rng_.Range(1, kCustomers)), Value(date),
                   Value(int64_t{0})}));
    const int64_t lines = rng_.Range(1, 7);
    for (int64_t l = 0; l < lines; ++l) {
      order.push_back(Event::Insert(
          "LINEITEM",
          {Value(key), Value(static_cast<double>(rng_.Range(90000, 10000000)) / 100.0),
           Value(static_cast<double>(rng_.Range(0, 10)) / 100.0),
           Value(date + rng_.Range(1, 121))}));
    }
    out->insert(out->end(), order.begin(), order.end());
    live_.push_back(std::move(order));
  }

  /// Deletes the oldest live order and its line items.
  void Retire(std::vector<Event>* out) {
    std::vector<Event>& order = live_.front();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      out->push_back(Event::Delete(it->relation, it->tuple));
    }
    live_.pop_front();
  }

 private:
  Rng rng_;
  int64_t next_key_ = 1;
  std::deque<std::vector<Event>> live_;
};

/// q3s by a direct group-by over the live relations.
class ServeOracle : public Oracle {
 public:
  void Apply(const Event& e) override { ApplyTo(&rels_[e.relation], e); }

  std::vector<Row> Expected(const std::string&) const override {
    std::unordered_map<int64_t, int64_t> building;  // custkey -> count
    for (const auto& [c, n] : rels_.at("CUSTOMER")) {
      if (c[1].AsString() == "BUILDING") building[I(c, 0)] += n;
    }
    std::unordered_map<int64_t, int64_t> orders;  // qualifying orderkey -> count
    for (const auto& [o, n] : rels_.at("ORDERS")) {
      auto c = building.find(I(o, 1));
      if (c != building.end() && I(o, 2) < Cutoff()) orders[I(o, 0)] += n * c->second;
    }
    std::map<int64_t, std::pair<double, int64_t>> groups;
    for (const auto& [l, n] : rels_.at("LINEITEM")) {
      auto o = orders.find(I(l, 0));
      if (o == orders.end() || I(l, 3) <= Cutoff()) continue;
      auto& g = groups[I(l, 0)];
      const int64_t m = n * o->second;
      g.first += static_cast<double>(m) * l[1].AsDouble() * (1 - l[2].AsDouble());
      g.second += m;
    }
    std::vector<Row> out;
    for (const auto& [key, g] : groups) {
      if (g.second != 0) out.push_back(Row{Value(key), Value(g.first)});
    }
    return out;
  }

 private:
  std::map<std::string, RowCounts> rels_;
};

WorkloadSpec TpchServe() {
  WorkloadSpec w;
  w.name = "tpch-serve";
  w.queries = {Query<dbtoaster_gen::q3s_Program>("q3s")};
  w.initial_batch = 4096;
  w.closed_batch = 64;
  w.open_cap = 64;
  w.offered_rate = 2500;
  w.tail_window = 250;
  w.pool_threads = 1;
  w.readers = 2;
  w.read_interval_us = 1000;
  w.setup_reps = 3;
  w.interp_events = 8192;
  w.recovery_reps = 4;
  w.rel_tol = 1e-9;
  w.make_stream = [](uint64_t seed) {
    OrderWindow window(seed);
    Stream s;
    window.Customers(&s.initial);
    for (size_t i = 0; i < kLiveOrders; ++i) window.Add(&s.initial);
    while (s.closed.size() < 5000) {
      window.Add(&s.closed);
      window.Retire(&s.closed);
    }
    while (s.open.size() < 3000) {
      window.Add(&s.open);
      window.Retire(&s.open);
    }
    return s;
  };
  w.make_oracle = [] { return std::make_unique<ServeOracle>(); };
  return w;
}

const std::vector<WorkloadSpec>& All() {
  static const std::vector<WorkloadSpec> all = {OrderbookTick(), WarehouseLoad(),
                                                TpchServe()};
  return all;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : All()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> out;
  for (const WorkloadSpec& w : All()) out.push_back(w.name);
  return out;
}

}  // namespace perfbench
