// Generic byte-budgeted LRU cache behind every cache in the drive: the block
// buffer cache, decoded journal sectors, objects (inodes), the file system's
// directory and attribute caches, and the FFS baseline's buffer cache.
#ifndef S4_SRC_CACHE_LRU_H_
#define S4_SRC_CACHE_LRU_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "src/util/check.h"

namespace s4 {

// Key -> Value cache with per-entry cost accounting and exact LRU eviction.
// EvictFn is called for each evicted entry (e.g. to checkpoint a dirty
// inode). Insertion of an entry larger than the budget is still accepted:
// the cache then holds just that entry.
//
// Layout (DESIGN.md section 18): entries live in fixed pages of
// kPageEntries slots that never move, so a Value* stays valid until its
// entry leaves the cache. Recency is a doubly linked list of slot indices
// and freed slots are chained on a free list. The index is an open-
// addressing table (Fibonacci hashing, linear probing, backward-shift
// deletion) that stores each key beside its slot, so probes never touch
// entries. Lookups never write: Peek may run concurrently with other Peeks
// as long as nothing mutates the cache.
template <typename Key, typename Value>
class LruCache {
 public:
  using EvictFn = std::function<void(const Key&, Value&&)>;

  explicit LruCache(uint64_t capacity_bytes) : capacity_(capacity_bytes) {}
  ~LruCache() {
    for (uint32_t s = head_; s != kNil;) {
      Slot& e = SlotAt(s);
      s = e.next;
      e.node()->~Node();
    }
  }
  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  void set_evict_fn(EvictFn fn) { evict_fn_ = std::move(fn); }
  uint64_t capacity() const { return capacity_; }
  uint64_t used() const { return used_; }
  size_t entry_count() const { return size_; }

  // Returns a pointer to the cached value and marks it most-recently-used,
  // or nullptr. The pointer stays valid until the entry is evicted, removed
  // or the cache is destroyed; replacing the key updates the pointee.
  Value* Get(const Key& key) {
    size_t b = FindBucket(key);
    if (b == kNoBucket) {
      return nullptr;
    }
    uint32_t s = buckets_[b].slot;
    MoveToFront(s);
    return &SlotAt(s).node()->value;
  }

  // Lookup without touching recency. Never writes to the cache.
  Value* Peek(const Key& key) {
    size_t b = FindBucket(key);
    return b == kNoBucket ? nullptr : &SlotAt(buckets_[b].slot).node()->value;
  }

  // Inserts or replaces. `cost` is the entry's budget charge. Replacing an
  // existing key hands the displaced value to the eviction callback — it may
  // be dirty state whose side effect (e.g. checkpointing) must not be lost.
  void Put(const Key& key, Value value, uint64_t cost) {
    if (size_t b = FindBucket(key); b != kNoBucket) {
      uint32_t s = buckets_[b].slot;
      Slot& e = SlotAt(s);
      Value displaced = std::move(e.node()->value);
      e.node()->value = std::move(value);
      used_ += cost;
      used_ -= e.cost;
      e.cost = cost;
      MoveToFront(s);
      if (evict_fn_) {
        evict_fn_(key, std::move(displaced));
      }
      EvictToFit();
      return;
    }
    if ((size_ + 1) * 2 > buckets_.size()) {
      GrowIndex();
    }
    uint32_t s = AllocateSlot();
    Slot& e = SlotAt(s);
    ::new (static_cast<void*>(e.storage)) Node{key, std::move(value)};
    e.cost = cost;
    LinkFront(s);
    IndexInsert(key, s);
    ++size_;
    used_ += cost;
    EvictToFit();
  }

  // Removes without invoking the eviction callback. Returns true if present.
  bool Remove(const Key& key) {
    size_t b = FindBucket(key);
    if (b == kNoBucket) {
      return false;
    }
    uint32_t s = buckets_[b].slot;
    EraseBucket(b);
    Unlink(s);
    Slot& e = SlotAt(s);
    used_ -= e.cost;
    --size_;
    e.node()->~Node();
    FreeSlot(s);
    return true;
  }

  // Evicts everything through the callback (used at unmount/sync).
  void Clear() {
    while (size_ > 0) {
      EvictOne();
    }
  }

  // Visits entries from most to least recently used. Visitor may not mutate
  // the cache.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint32_t s = head_; s != kNil; s = SlotAt(s).next) {
      const Node& n = *SlotAt(s).node();
      fn(n.key, n.value);
    }
  }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;
  static constexpr size_t kNoBucket = SIZE_MAX;
  static constexpr uint32_t kPageShift = 10;
  static constexpr uint32_t kPageEntries = 1u << kPageShift;
  static constexpr size_t kMinBuckets = 16;

  struct Node {
    Key key;
    Value value;
  };
  // A live slot holds a constructed Node in `storage`; a free one holds
  // nothing and chains the free list through `next`.
  struct Slot {
    uint32_t prev = kNil;
    uint32_t next = kNil;
    uint64_t cost = 0;
    alignas(Node) unsigned char storage[sizeof(Node)];

    Node* node() { return std::launder(reinterpret_cast<Node*>(storage)); }
  };
  // slot == kNil marks an empty bucket.
  struct Bucket {
    Key key;
    uint32_t slot;
  };

  Slot& SlotAt(uint32_t s) const { return pages_[s >> kPageShift][s & (kPageEntries - 1)]; }

  uint32_t AllocateSlot() {
    if (free_ != kNil) {
      uint32_t s = free_;
      free_ = SlotAt(s).next;
      return s;
    }
    if (slots_made_ == pages_.size() * kPageEntries) {
      S4_CHECK(slots_made_ < kNil - kPageEntries);
      pages_.push_back(std::unique_ptr<Slot[]>(new Slot[kPageEntries]));
    }
    return slots_made_++;
  }

  void FreeSlot(uint32_t s) {
    SlotAt(s).next = free_;
    free_ = s;
  }

  void LinkFront(uint32_t s) {
    Slot& e = SlotAt(s);
    e.prev = kNil;
    e.next = head_;
    if (head_ != kNil) {
      SlotAt(head_).prev = s;
    } else {
      tail_ = s;
    }
    head_ = s;
  }

  void Unlink(uint32_t s) {
    Slot& e = SlotAt(s);
    if (e.prev != kNil) {
      SlotAt(e.prev).next = e.next;
    } else {
      head_ = e.next;
    }
    if (e.next != kNil) {
      SlotAt(e.next).prev = e.prev;
    } else {
      tail_ = e.prev;
    }
  }

  void MoveToFront(uint32_t s) {
    if (s != head_) {
      Unlink(s);
      LinkFront(s);
    }
  }

  // Fibonacci hashing: the top bits of hash * 2^64/phi spread even
  // consecutive keys (disk addresses, object ids) across the table.
  size_t Home(const Key& key) const {
    uint64_t h = static_cast<uint64_t>(std::hash<Key>{}(key));
    return static_cast<size_t>((h * 0x9E3779B97F4A7C15ull) >> index_shift_);
  }

  size_t FindBucket(const Key& key) const {
    if (buckets_.empty()) {
      return kNoBucket;
    }
    size_t mask = buckets_.size() - 1;
    for (size_t i = Home(key);; i = (i + 1) & mask) {
      const Bucket& b = buckets_[i];
      if (b.slot == kNil) {
        return kNoBucket;
      }
      if (b.key == key) {
        return i;
      }
    }
  }

  // `key` must be absent and the table below half full.
  void IndexInsert(const Key& key, uint32_t s) {
    size_t mask = buckets_.size() - 1;
    size_t i = Home(key);
    while (buckets_[i].slot != kNil) {
      i = (i + 1) & mask;
    }
    buckets_[i] = Bucket{key, s};
  }

  void GrowIndex() {
    std::vector<Bucket> old = std::move(buckets_);
    size_t n = old.empty() ? kMinBuckets : old.size() * 2;
    buckets_.assign(n, Bucket{Key(), kNil});
    index_shift_ = 64 - std::countr_zero(n);
    for (const Bucket& b : old) {
      if (b.slot != kNil) {
        IndexInsert(b.key, b.slot);
      }
    }
  }

  // Backward-shift deletion: pull each later member of the probe run into
  // the hole when the hole lies between its home and where it sits, so the
  // table never needs tombstones.
  void EraseBucket(size_t hole) {
    size_t mask = buckets_.size() - 1;
    for (size_t i = (hole + 1) & mask; buckets_[i].slot != kNil; i = (i + 1) & mask) {
      size_t home = Home(buckets_[i].key);
      if (((i - home) & mask) >= ((i - hole) & mask)) {
        buckets_[hole] = buckets_[i];
        hole = i;
      }
    }
    buckets_[hole].slot = kNil;
  }

  void EvictOne() {
    S4_CHECK(size_ > 0);
    uint32_t s = tail_;
    Slot& victim = SlotAt(s);
    Key key = victim.node()->key;
    Value value = std::move(victim.node()->value);
    used_ -= victim.cost;
    EraseBucket(FindBucket(key));
    Unlink(s);
    --size_;
    victim.node()->~Node();
    FreeSlot(s);
    if (evict_fn_) {
      evict_fn_(key, std::move(value));
    }
  }

  void EvictToFit() {
    // Keep at least the newest entry even if it alone exceeds the budget.
    while (used_ > capacity_ && size_ > 1) {
      EvictOne();
    }
  }

  EvictFn evict_fn_;
  uint64_t capacity_;
  uint64_t used_ = 0;
  size_t size_ = 0;
  // Entry pages; never shrunk or moved, so slot addresses are stable.
  std::vector<std::unique_ptr<Slot[]>> pages_;
  uint32_t slots_made_ = 0;  // slots ever handed out; pages_ hold at least this many
  uint32_t free_ = kNil;
  uint32_t head_ = kNil;  // most recently used
  uint32_t tail_ = kNil;  // least recently used
  std::vector<Bucket> buckets_;  // power-of-two size, at most half full
  int index_shift_ = 64;
};

}  // namespace s4

#endif  // S4_SRC_CACHE_LRU_H_
