// Shared cache-conscious collection core for BOTH map layers: the
// dbtc-generated code (dbt::Map / dbt::SliceIndex / dbt::ExtremeMap in
// dbtoaster_runtime.h) and the interpreted runtime (runtime::ValueMap,
// storage::Table multisets). Self-contained on purpose: generated sources
// are compiled with only this directory on the include path (the paper's
// "embedded mode"), so this header may not include anything from the rest
// of the repository.
//
// Contents:
//  - Mix64 / HashCombine / HashScalar / TupleHash: the single finalized
//    hashing scheme used by every map layer in the system.
//  - Slab / PoolAlloc: a size-class pooled allocator. Small chunks are
//    carved out of bump-allocated blocks and recycled through per-class
//    free lists (table doublings and SliceIndex key-sets reuse each
//    other's retired arrays); large chunks get dedicated blocks that are
//    returned eagerly. reserved_bytes() is the true resident footprint.
//  - FlatTable / FlatMap / FlatSet: open-addressing hash tables with
//    linear probing, robin-hood displacement, power-of-two capacity and
//    tombstone-free backward-shift deletion. Probe loops touch a dense
//    hash word array first, so misses rarely load slot payloads.
#ifndef DBTOASTER_CODEGEN_DBT_FLAT_MAP_H_
#define DBTOASTER_CODEGEN_DBT_FLAT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace dbt {

// ---------------------------------------------------------------------------
// Hashing core.
// ---------------------------------------------------------------------------

/// 64-bit mix (splitmix64 finalizer); good avalanche for integer keys.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combine two hashes (boost-style, with a 64-bit constant).
inline size_t HashCombine(size_t seed, size_t h) {
  return seed ^ (h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

/// Seed for composite-key folds (tuples and dynamic rows use the same one).
inline constexpr size_t kHashSeed = 0x9e3779b97f4a7c15ULL;

inline size_t HashScalar(int64_t v) {
  return Mix64(static_cast<uint64_t>(v));
}
/// Integral doubles hash like the equal int64 (2 == 2.0 must collide for
/// the dynamically-typed row keys of the interpreted layer). The guard is
/// exactly int64's range — [-2^63, 2^63), both bounds representable — so
/// every double that exact numeric comparison can equate with an int64
/// takes the integer hash, and the conversion below stays defined.
inline size_t HashScalar(double v) {
  if (v >= -9223372036854775808.0 && v < 9223372036854775808.0) {
    const int64_t i = static_cast<int64_t>(v);
    if (static_cast<double>(i) == v) return Mix64(static_cast<uint64_t>(i));
  }
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return Mix64(bits);
}
/// FNV-1a over the bytes, finalized with Mix64 (std::hash<string> differs
/// between standard libraries; view materialization order must not).
inline size_t HashScalar(const std::string& v) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : v) {
    h = (h ^ c) * 0x100000001b3ULL;
  }
  return Mix64(h);
}

namespace internal {
template <typename Tuple, size_t... I>
size_t HashTupleImpl(const Tuple& t, std::index_sequence<I...>) {
  size_t h = kHashSeed;
  ((h = HashCombine(h, HashScalar(std::get<I>(t)))), ...);
  return h;
}
}  // namespace internal

// ---------------------------------------------------------------------------
// Shard routing: the logical partition count is a fixed constant (NOT the
// thread count), so a sharded execution's per-partition event subsequences —
// and therefore its map contents — are identical at every thread count.
// Routing consumes bits 48..50 of the finalized scalar hash: the low bits
// pick the home bucket inside a partition and the top byte is the probe
// fragment, so all three uses stay decorrelated.
// ---------------------------------------------------------------------------

inline constexpr size_t kNumShards = 8;

inline size_t ShardOfHash(size_t h) {
  return (static_cast<uint64_t>(h) >> 48) & (kNumShards - 1);
}

/// Shard of a routing scalar (int64/double/string), via the shared
/// finalized hash so both map layers route identically.
template <typename T>
size_t ShardOf(const T& v) {
  return ShardOfHash(HashScalar(v));
}

/// Hash functor for std::tuple keys; same fold as the interpreted layer's
/// RowHash so both layers see identical finalized hashes.
struct TupleHash {
  template <typename... Ts>
  size_t operator()(const std::tuple<Ts...>& t) const {
    return internal::HashTupleImpl(t,
                                   std::make_index_sequence<sizeof...(Ts)>());
  }
};

// ---------------------------------------------------------------------------
// Retained-bytes helpers: heap payloads reachable from an entry but not
// resident in the table's slab (string bodies). Used by state accounting.
// ---------------------------------------------------------------------------

inline size_t ExternalBytes(int64_t) { return 0; }
inline size_t ExternalBytes(double) { return 0; }
inline size_t ExternalBytes(const std::string& s) {
  // SSO bodies live inside the slot (inside the slab); only spilled ones
  // occupy extra heap. Detect SSO portably: the body pointer aims inside
  // the string object itself.
  const char* p = s.data();
  const char* obj = reinterpret_cast<const char*>(&s);
  const bool sso = p >= obj && p < obj + sizeof(std::string);
  return sso ? 0 : s.capacity() + 1;
}
template <typename... Ts>
size_t ExternalBytes(const std::tuple<Ts...>& t) {
  return std::apply(
      [](const Ts&... vs) {
        size_t n = 0;
        ((n += ExternalBytes(vs)), ...);
        return n;
      },
      t);
}
template <typename A, typename B>
size_t ExternalBytes(const std::pair<A, B>& p) {
  return ExternalBytes(p.first) + ExternalBytes(p.second);
}

// ---------------------------------------------------------------------------
// Slab: size-class pooled allocator.
// ---------------------------------------------------------------------------

class Slab {
 public:
  Slab() = default;
  Slab(const Slab&) = delete;
  Slab& operator=(const Slab&) = delete;
  ~Slab() {
    for (const Block& b : blocks_) ::operator delete(b.ptr);
    for (const Block& b : dedicated_) ::operator delete(b.ptr);
  }

  void* Allocate(size_t bytes) {
    if (bytes == 0) return nullptr;
    const size_t cls = SizeClass(bytes);
    if (cls > kMaxChunkLog2) {
      // Dedicated block: returned to the OS eagerly on Deallocate, so a
      // growing table does not strand its past arrays.
      void* p = ::operator new(bytes);
      dedicated_.push_back(Block{p, bytes});
      reserved_ += bytes;
      live_ += bytes;
      return p;
    }
    const size_t chunk = size_t{1} << cls;
    live_ += chunk;
    if (FreeNode* head = free_[cls]) {
      free_[cls] = head->next;
      return head;
    }
    if (bump_left_ < chunk) NewBlock(chunk);
    void* p = bump_;
    bump_ += chunk;
    bump_left_ -= chunk;
    return p;
  }

  void Deallocate(void* p, size_t bytes) {
    if (p == nullptr || bytes == 0) return;
    const size_t cls = SizeClass(bytes);
    if (cls > kMaxChunkLog2) {
      // Dedicated blocks live in their own (small: one per currently-big
      // array) list, so this scan does not degrade with bump-block count.
      for (size_t i = 0; i < dedicated_.size(); ++i) {
        if (dedicated_[i].ptr == p) {
          reserved_ -= dedicated_[i].bytes;
          live_ -= dedicated_[i].bytes;
          ::operator delete(p);
          dedicated_[i] = dedicated_.back();
          dedicated_.pop_back();
          return;
        }
      }
      return;
    }
    const size_t chunk = size_t{1} << cls;
    auto* n = static_cast<FreeNode*>(p);
    n->next = free_[cls];
    free_[cls] = n;
    live_ -= chunk;
  }

  /// Bytes held from the OS (blocks + dedicated allocations).
  size_t reserved_bytes() const { return reserved_; }
  /// Bytes handed out and not yet freed.
  size_t live_bytes() const { return live_; }

 private:
  struct FreeNode {
    FreeNode* next;
  };
  struct Block {
    void* ptr;
    size_t bytes;
  };

  static constexpr size_t kMinChunkLog2 = 4;   // 16 B: holds a FreeNode.
  static constexpr size_t kMaxChunkLog2 = 12;  // 4 KiB; larger = dedicated.
  static constexpr size_t kMaxBlock = size_t{1} << 16;  // 64 KiB

  static size_t SizeClass(size_t bytes) {
    size_t cls = kMinChunkLog2;
    while ((size_t{1} << cls) < bytes) ++cls;
    return cls;
  }

  void NewBlock(size_t at_least) {
    // Tail of the previous block (if any) is parked in the free lists so
    // it is not stranded.
    while (bump_left_ >= (size_t{1} << kMinChunkLog2)) {
      size_t cls = kMaxChunkLog2;
      while ((size_t{1} << cls) > bump_left_) --cls;
      Deallocate(bump_, size_t{1} << cls);
      live_ += size_t{1} << cls;  // undo Deallocate's live_ accounting
      bump_ += size_t{1} << cls;
      bump_left_ -= size_t{1} << cls;
    }
    size_t sz = next_block_;
    if (sz < at_least) sz = at_least;
    next_block_ = next_block_ * 2 < kMaxBlock ? next_block_ * 2 : kMaxBlock;
    void* p = ::operator new(sz);
    blocks_.push_back(Block{p, sz});
    reserved_ += sz;
    bump_ = static_cast<char*>(p);
    bump_left_ = sz;
  }

  std::vector<Block> blocks_;      ///< bump blocks (freed only at teardown)
  std::vector<Block> dedicated_;   ///< live oversized allocations
  char* bump_ = nullptr;
  size_t bump_left_ = 0;
  FreeNode* free_[kMaxChunkLog2 + 1] = {};
  size_t next_block_ = 1024;
  size_t reserved_ = 0;
  size_t live_ = 0;
};

/// std-allocator adapter over a Slab. With no slab bound it falls back to
/// the global heap, so default-constructed (empty / moved-from) containers
/// stay valid.
template <typename T>
struct PoolAlloc {
  using value_type = T;
  using propagate_on_container_copy_assignment = std::false_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;

  Slab* slab = nullptr;

  PoolAlloc() = default;
  explicit PoolAlloc(Slab* s) : slab(s) {}
  template <typename U>
  PoolAlloc(const PoolAlloc<U>& o) : slab(o.slab) {}

  T* allocate(size_t n) {
    const size_t bytes = n * sizeof(T);
    if (slab != nullptr) return static_cast<T*>(slab->Allocate(bytes));
    return static_cast<T*>(::operator new(bytes));
  }
  void deallocate(T* p, size_t n) {
    if (slab != nullptr) {
      slab->Deallocate(p, n * sizeof(T));
    } else {
      ::operator delete(p);
    }
  }
  template <typename U>
  bool operator==(const PoolAlloc<U>& o) const {
    return slab == o.slab;
  }
};

// ---------------------------------------------------------------------------
// FlatTable: the open-addressing core.
// ---------------------------------------------------------------------------

/// Robin-hood linear-probing table over `Entry` slots, probed through a
/// dense metadata array. Each slot's `info` word packs its probe distance
/// (high byte, +1 so 0 still means empty) with an 8-bit fragment of its
/// hash: `info = (dist + 1) << 8 | frag`. Chains are kept sorted by info
/// (robin-hood displacement on the composite order), so a lookup walks the
/// metadata with a single monotone comparison per step and touches the
/// entry payload only when the distance AND fragment both match — point
/// probes rarely load slot memory at all. `KeyOf` projects the key out of
/// an entry. Deletion is tombstone-free (backward shift), so probe
/// sequences never degrade. Storage comes from a slab: an owned one
/// created lazily on first insert, or an external one shared with sibling
/// tables (SliceIndex key-sets all draw from their index's slab).
template <typename Entry, typename Key, typename KeyOf, typename Hash,
          typename Eq>
class FlatTable {
 public:
  static constexpr size_t npos = static_cast<size_t>(-1);
  static constexpr size_t kMinCapacity = 8;

  FlatTable() = default;
  explicit FlatTable(Slab* external) : slab_(external) {}

  FlatTable(const FlatTable& o) { CopyFrom(o); }
  FlatTable& operator=(const FlatTable& o) {
    if (this != &o) {
      FreeArrays();
      owned_.reset();
      slab_ = nullptr;
      CopyFrom(o);
    }
    return *this;
  }
  FlatTable(FlatTable&& o) noexcept
      : owned_(std::move(o.owned_)),
        slab_(o.slab_),
        info_(std::move(o.info_)),
        slots_(std::move(o.slots_)),
        mask_(o.mask_),
        size_(o.size_) {
    o.slab_ = nullptr;
    o.mask_ = 0;
    o.size_ = 0;
  }
  FlatTable& operator=(FlatTable&& o) noexcept {
    if (this != &o) {
      // Release my arrays into my (still live) slab before dropping it.
      info_ = std::move(o.info_);
      slots_ = std::move(o.slots_);
      mask_ = o.mask_;
      size_ = o.size_;
      owned_ = std::move(o.owned_);
      slab_ = o.slab_;
      o.slab_ = nullptr;
      o.mask_ = 0;
      o.size_ = 0;
    }
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return slots_.size(); }

  /// Slot index of `k`, or npos.
  template <typename LK>
  size_t FindIndex(const LK& k) const {
    if (size_ == 0) return npos;
    const size_t h = Hash{}(k);
    size_t i = h & mask_;
    uint32_t want = kHome | Frag(h);
    while (true) {
      const uint32_t m = info_[i];
      if (m == want && Eq{}(KeyOf{}(slots_[i]), k)) return i;
      // Sorted-chain invariant: once the occupant's info drops below the
      // candidate's (empty slots are 0), the key cannot be further on.
      if (m < want) return npos;
      want += kStep;
      i = (i + 1) & mask_;
    }
  }

  /// Find `k`, inserting `make()` if absent. The returned slot index is
  /// valid until the next insert/erase.
  template <typename LK, typename MakeEntry>
  std::pair<size_t, bool> FindOrInsert(const LK& k, MakeEntry&& make) {
    if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) Grow();
    const size_t h = Hash{}(k);
    size_t i = h & mask_;
    uint32_t want = kHome | Frag(h);
    while (true) {
      const uint32_t m = info_[i];
      if (m == want && Eq{}(KeyOf{}(slots_[i]), k)) return {i, false};
      if (m < want) {
        if (want >= kMaxInfo) {  // distance saturated: grow and retry
          ForceGrow();
          return FindOrInsert(k, make);
        }
        if (m == 0) {
          info_[i] = want;
          slots_[i] = make();
          ++size_;
          return {i, true};
        }
        // Richer occupant: take its slot, displace it onward.
        Entry carry = std::move(slots_[i]);
        const uint32_t ch = m + kStep;
        info_[i] = want;
        slots_[i] = make();
        ++size_;
        ShiftIn(ch, std::move(carry), (i + 1) & mask_);
        return {i, true};
      }
      want += kStep;
      i = (i + 1) & mask_;
    }
  }

  template <typename LK>
  bool Erase(const LK& k) {
    const size_t i = FindIndex(k);
    if (i == npos) return false;
    EraseIndex(i);
    return true;
  }

  /// Backward-shift deletion: slide the displaced tail of the probe chain
  /// one slot back instead of leaving a tombstone. When occupancy drops
  /// below 1/8 the arrays are rebuilt at half capacity (hysteresis against
  /// the 3/4 grow threshold), so scans over long-lived maps stay O(live)
  /// instead of O(historical peak) — the interpreted slice-scan fix.
  void EraseIndex(size_t i) {
    while (true) {
      const size_t n = (i + 1) & mask_;
      const uint32_t m = info_[n];
      if (m < kHome + kStep) break;  // empty, or already at its home slot
      info_[i] = m - kStep;
      slots_[i] = std::move(slots_[n]);
      i = n;
    }
    info_[i] = 0;
    slots_[i] = Entry{};  // release payloads (strings, nested sets)
    --size_;
    if (slots_.size() > kMinCapacity && size_ * 8 < slots_.size()) {
      Resize(slots_.size() / 2);
    }
  }

  void Clear() {
    if (size_ == 0) return;
    // Large tables release their arrays into the slab (recycled by the next
    // growth chain) so a clear-and-refill pattern — hybrid re-evaluation
    // statements — does not strand peak-sized probe arrays.
    if (slots_.size() > 64) {
      FreeArrays();
      return;
    }
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (info_[i] != 0) {
        info_[i] = 0;
        slots_[i] = Entry{};
      }
    }
    size_ = 0;
  }

  Entry& SlotEntry(size_t i) { return slots_[i]; }
  const Entry& SlotEntry(size_t i) const { return slots_[i]; }

  /// Resident footprint of the owned slab (0 when drawing from a shared
  /// slab: the owner reports it once).
  size_t PoolBytes() const {
    return owned_ != nullptr ? sizeof(Slab) + owned_->reserved_bytes() : 0;
  }

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Entry;
    using reference = const Entry&;
    using pointer = const Entry*;
    using difference_type = std::ptrdiff_t;

    const_iterator() = default;
    const_iterator(const FlatTable* t, size_t i) : t_(t), i_(i) { Skip(); }
    reference operator*() const { return t_->slots_[i_]; }
    pointer operator->() const { return &t_->slots_[i_]; }
    const_iterator& operator++() {
      ++i_;
      Skip();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator c = *this;
      ++*this;
      return c;
    }
    bool operator==(const const_iterator&) const = default;

   private:
    void Skip() {
      while (i_ < t_->info_.size() && t_->info_[i_] == 0) ++i_;
    }
    const FlatTable* t_ = nullptr;
    size_t i_ = 0;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, info_.size()); }

 private:
  using InfoVec = std::vector<uint32_t, PoolAlloc<uint32_t>>;
  using SlotVec = std::vector<Entry, PoolAlloc<Entry>>;

  static constexpr uint32_t kStep = 0x100;   ///< +1 probe distance
  static constexpr uint32_t kHome = 0x100;   ///< distance 0 (occupied)
  static constexpr uint32_t kMaxInfo = 0x100 * 255;

  static uint32_t Frag(size_t h) {
    // High bits: the low ones pick the home bucket. Widen first so the
    // shift stays defined on 32-bit size_t targets (frag degrades to 0
    // there, which only weakens the filter, never correctness).
    return static_cast<uint32_t>(static_cast<uint64_t>(h) >> 56);
  }

  void EnsureSlab() {
    if (slab_ == nullptr) {
      owned_ = std::make_unique<Slab>();
      slab_ = owned_.get();
    }
  }

  void Grow() {
    if (slots_.empty()) {
      EnsureSlab();
      info_ = InfoVec(kMinCapacity, 0, PoolAlloc<uint32_t>(slab_));
      slots_ = SlotVec(kMinCapacity, PoolAlloc<Entry>(slab_));
      mask_ = kMinCapacity - 1;
      return;
    }
    if ((size_ + 1) * 4 <= slots_.size() * 3) return;
    ForceGrow();
  }

  void ForceGrow() { Resize(slots_.size() * 2); }

  void Resize(size_t new_cap) {
    InfoVec old_info = std::move(info_);
    SlotVec old_slots = std::move(slots_);
    info_ = InfoVec(new_cap, 0, PoolAlloc<uint32_t>(slab_));
    slots_ = SlotVec(new_cap, PoolAlloc<Entry>(slab_));
    mask_ = new_cap - 1;
    for (size_t i = 0; i < old_info.size(); ++i) {
      if (old_info[i] != 0) {
        const size_t h = Hash{}(KeyOf{}(old_slots[i]));
        ShiftIn(kHome | Frag(h), std::move(old_slots[i]), h & mask_);
      }
    }
  }

  /// Robin-hood displacement of a keyed entry known to be absent. `ci` is
  /// the carried entry's info for position `i`.
  void ShiftIn(uint32_t ci, Entry&& entry, size_t i) {
    Entry carry = std::move(entry);
    while (true) {
      const uint32_t m = info_[i];
      if (m == 0) {
        info_[i] = ci;
        slots_[i] = std::move(carry);
        return;
      }
      if (m < ci) {
        std::swap(slots_[i], carry);
        info_[i] = ci;
        ci = m;
      }
      ci += kStep;
      i = (i + 1) & mask_;
    }
  }

  void CopyFrom(const FlatTable& o) {
    if (o.size_ == 0) return;
    EnsureSlab();
    info_ = InfoVec(o.info_.begin(), o.info_.end(), PoolAlloc<uint32_t>(slab_));
    slots_ =
        SlotVec(o.slots_.begin(), o.slots_.end(), PoolAlloc<Entry>(slab_));
    mask_ = o.mask_;
    size_ = o.size_;
  }

  void FreeArrays() {
    info_ = InfoVec();
    slots_ = SlotVec();
    mask_ = 0;
    size_ = 0;
  }

  std::unique_ptr<Slab> owned_;  // declared before the arrays: destroyed
  Slab* slab_ = nullptr;         // after they release into it
  InfoVec info_;                 // (dist + 1) << 8 | frag; 0 = empty
  SlotVec slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

// ---------------------------------------------------------------------------
// FlatMap / FlatSet: keyed front-ends over FlatTable.
// ---------------------------------------------------------------------------

template <typename K, typename V, typename Hash = TupleHash,
          typename Eq = std::equal_to<K>>
class FlatMap {
  struct KeyOf {
    const K& operator()(const std::pair<K, V>& e) const { return e.first; }
  };
  using Table = FlatTable<std::pair<K, V>, K, KeyOf, Hash, Eq>;

 public:
  using value_type = std::pair<K, V>;
  using const_iterator = typename Table::const_iterator;
  static constexpr size_t npos = Table::npos;

  FlatMap() = default;
  explicit FlatMap(Slab* slab) : table_(slab) {}

  std::pair<size_t, bool> try_emplace(const K& k) {
    return table_.FindOrInsert(k, [&] { return value_type(k, V{}); });
  }
  std::pair<size_t, bool> try_emplace(const K& k, V v) {
    return table_.FindOrInsert(
        k, [&] { return value_type(k, std::move(v)); });
  }
  template <typename MakeV>
  std::pair<size_t, bool> try_emplace_with(const K& k, MakeV&& mk) {
    return table_.FindOrInsert(k, [&] { return value_type(k, mk()); });
  }

  V* find(const K& k) {
    const size_t i = table_.FindIndex(k);
    return i == npos ? nullptr : &table_.SlotEntry(i).second;
  }
  const V* find(const K& k) const {
    const size_t i = table_.FindIndex(k);
    return i == npos ? nullptr : &table_.SlotEntry(i).second;
  }
  bool contains(const K& k) const { return table_.FindIndex(k) != npos; }

  const K& key_at(size_t i) const { return table_.SlotEntry(i).first; }
  V& value_at(size_t i) { return table_.SlotEntry(i).second; }
  const V& value_at(size_t i) const { return table_.SlotEntry(i).second; }

  bool erase(const K& k) { return table_.Erase(k); }
  void erase_at(size_t i) { table_.EraseIndex(i); }
  void clear() { table_.Clear(); }

  size_t size() const { return table_.size(); }
  bool empty() const { return table_.empty(); }
  size_t capacity() const { return table_.capacity(); }
  size_t pool_bytes() const { return table_.PoolBytes(); }

  const_iterator begin() const { return table_.begin(); }
  const_iterator end() const { return table_.end(); }

 private:
  Table table_;
};

template <typename K, typename Hash = TupleHash,
          typename Eq = std::equal_to<K>>
class FlatSet {
  struct Identity {
    const K& operator()(const K& k) const { return k; }
  };
  using Table = FlatTable<K, K, Identity, Hash, Eq>;

 public:
  using const_iterator = typename Table::const_iterator;

  FlatSet() = default;
  explicit FlatSet(Slab* slab) : table_(slab) {}

  bool insert(const K& k) {
    return table_.FindOrInsert(k, [&] { return k; }).second;
  }
  bool contains(const K& k) const { return table_.FindIndex(k) != Table::npos; }
  bool erase(const K& k) { return table_.Erase(k); }
  void clear() { table_.Clear(); }

  size_t size() const { return table_.size(); }
  bool empty() const { return table_.empty(); }
  size_t pool_bytes() const { return table_.PoolBytes(); }

  const_iterator begin() const { return table_.begin(); }
  const_iterator end() const { return table_.end(); }

 private:
  Table table_;
};

// ---------------------------------------------------------------------------
// Sharded: a thin partitioned front over any map-like store.
// ---------------------------------------------------------------------------

/// kNumShards independent partitions of `M`, routed by the finalized hash
/// of tuple-key component `kRoutePos` (the shard attribute chosen by the
/// compiler's shard plan). Each partition owns its own slab, so concurrent
/// workers pinned to distinct partitions share no allocator state and take
/// no locks on the hot path. Point operations route; iteration walks
/// part(0) .. part(kNumShards - 1) in fixed order, so materialized views
/// are identical at every thread count. size()/bytes() sum partitions.
template <typename M, size_t kRoutePos>
class Sharded {
 public:
  static constexpr size_t kParts = kNumShards;

  template <typename K>
  static size_t shard_of(const K& k) {
    return ShardOf(std::get<kRoutePos>(k));
  }

  M& part(size_t s) { return parts_[s]; }
  const M& part(size_t s) const { return parts_[s]; }

  template <typename K>
  auto get(const K& k) const {
    return parts_[shard_of(k)].get(k);
  }
  template <typename K>
  bool contains(const K& k) const {
    return parts_[shard_of(k)].contains(k);
  }
  /// Forwarded Map::find_value: mutable slot of a live entry, routed to the
  /// owning partition (nullptr when absent).
  template <typename K>
  auto find_value(const K& k) {
    return parts_[shard_of(k)].find_value(k);
  }
  template <typename K, typename V>
  auto add(const K& k, V delta) {
    return parts_[shard_of(k)].add(k, std::move(delta));
  }
  template <typename K, typename V>
  auto set(const K& k, V v) {
    return parts_[shard_of(k)].set(k, std::move(v));
  }

  void clear() {
    for (M& p : parts_) p.clear();
  }
  /// Serving: each partition records its writes into its own shard's list
  /// of `log` (see dbt::GroupLog), so pool workers never share a list.
  template <typename Log>
  void track(Log& log, bool on) {
    for (size_t s = 0; s < kParts; ++s) parts_[s].track_list(&log.lists[s], on);
  }
  size_t size() const {
    size_t n = 0;
    for (const M& p : parts_) n += p.size();
    return n;
  }
  size_t bytes() const {
    size_t n = sizeof(*this) - kParts * sizeof(M);
    for (const M& p : parts_) n += p.bytes();
    return n;
  }

  /// Visit every entry in fixed part order (the same order iteration and
  /// materialized views use, so derived structures rebuilt from a walk are
  /// identical at every thread count).
  template <typename F>
  void for_each(F&& f) const {
    for (const M& p : parts_) p.for_each(f);
  }

  /// Serialize / restore part by part. Routing is hash-of-component, which
  /// is a pure function of the key, so saving and loading per part lands
  /// every entry back in its owning partition by construction. The Ser and
  /// Deser types stay template parameters so this header does not need the
  /// serializer (only instantiations that snapshot pull it in).
  template <typename S>
  void save(S& s) const {
    for (const M& p : parts_) p.save(s);
  }
  template <typename D>
  bool load(D& d) {
    bool ok = true;
    for (M& p : parts_) ok = p.load(d) && ok;
    return ok;
  }

 private:
  M parts_[kParts];
};

}  // namespace dbt

#endif  // DBTOASTER_CODEGEN_DBT_FLAT_MAP_H_
