// Single-producer/single-consumer lock-free ring buffer — the per-shard
// packet conduit for the flow-sharded ingest path.
//
// Design:
//   * Power-of-two capacity; head_/tail_ are monotonically increasing u64
//     positions (slot = position & mask), so full/empty never needs a
//     sacrificial slot and wrap-around is a masked index, not a reset.
//   * tail_ is written only by the producer, head_ only by the consumer.
//     Each side keeps a cached copy of the other's index on its own cache
//     line and refreshes it only when the cached view says "full"/"empty",
//     so the steady-state hot path touches no shared line but its own.
//   * Publication protocol: the producer move-assigns slots and then
//     store-releases tail_; the consumer load-acquires tail_ before
//     reading those slots (and symmetrically store-releases head_ after
//     moving items out, which the producer load-acquires before reusing
//     the slots). These two release/acquire pairs are all the slots
//     need — there is no mutex anywhere.
//   * Blocking edges (empty consumer, full producer under kBlock) spin for
//     kSpinRounds cpu_relax rounds, yield for kYieldRounds more (a few
//     microseconds, enough to catch a peer publishing every few us without
//     a wake-up; on a 1-core host the yield is what lets the peer run),
//     then park on a futex: each side owns a padded doorbell word
//     (consumer_parked_, producer_parked_) that it waits on with
//     std::atomic::wait. Parking is a Dekker handshake, so no wake-up is
//     lost even though the publisher only reads the word:
//       parker:    parked = 1; seq_cst fence; re-check index and closed_;
//                  wait while parked == 1
//       publisher: release-store index; seq_cst fence; if parked == 1,
//                  set it to 0 and notify
//     The two fences are ordered in the single total order S. If the
//     parker's fence comes first, the publisher's read sees parked == 1
//     and rings; otherwise the parker's re-check sees the new index and it
//     never sleeps. The publisher decides from the word, never from its
//     cached view of the other index, so a stale cache cannot hide the
//     empty->nonempty edge. close() takes the publisher's part for both
//     words. The fence is the one extra cost on the hot path, once per
//     batch; the word stays in the shared cache state until somebody parks.
//
// close() is the producer's end-of-stream signal: the consumer drains what
// remains and wait_nonempty() then returns false. It also doubles as the
// consumer-death signal — a closed ring stops accepting pushes so a
// producer can wind down instead of feeding an abandoned ring.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

namespace lumen {

namespace detail {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

}  // namespace detail

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to the next power of two (minimum 1).
  explicit SpscRing(size_t capacity) {
    size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  size_t capacity() const { return slots_.size(); }

  // ---- producer side ------------------------------------------------------

  /// Move up to n items from items[0..n) into the ring. Returns how many
  /// were accepted (0 when full or closed); accepted items are moved-from,
  /// the rest are untouched. One release store publishes the whole batch.
  size_t try_push(T* items, size_t n) {
    if (n == 0 || closed_.load(std::memory_order_relaxed)) return 0;
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    size_t free = capacity() - static_cast<size_t>(tail - head_cache_);
    if (free < n) {
      head_cache_ = head_.load(std::memory_order_acquire);
      free = capacity() - static_cast<size_t>(tail - head_cache_);
      if (free == 0) return 0;
    }
    const size_t take = std::min(n, free);
    for (size_t i = 0; i < take; ++i) {
      slots_[static_cast<size_t>(tail + i) & mask_] = std::move(items[i]);
    }
    tail_.store(tail + take, std::memory_order_release);
    wake(consumer_parked_);
    // Occupancy against the producer's cached head: never above capacity,
    // may overestimate the instantaneous value by whatever the consumer
    // drained since the last refresh (conservative for a high-water mark).
    const auto occ = static_cast<uint64_t>(tail + take - head_cache_);
    if (occ > high_water_.load(std::memory_order_relaxed)) {
      high_water_.store(occ, std::memory_order_relaxed);
    }
    return take;
  }

  bool try_push(T&& item) { return try_push(&item, 1) == 1; }

  /// Block until at least one slot is free or the ring is closed.
  /// Returns false when closed (the push would be refused anyway).
  bool wait_notfull() {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    park_until(producer_parked_, producer_parks_, [&] {
      if (closed_.load(std::memory_order_acquire)) return true;
      head_cache_ = head_.load(std::memory_order_acquire);
      return static_cast<size_t>(tail - head_cache_) < capacity();
    });
    return !closed_.load(std::memory_order_acquire);
  }

  /// End-of-stream (or abandon-stream): pushes are refused from here on;
  /// the consumer drains the remainder and then sees "closed". Wakes
  /// whichever side is parked; safe to call from any thread.
  void close() {
    closed_.store(true, std::memory_order_release);
    wake(consumer_parked_);
    wake(producer_parked_);
  }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Peak occupancy observed by the producer (see try_push for the
  /// conservative-overestimate caveat). Producer-written, safe to read
  /// from anywhere after the producer is done.
  size_t high_water() const {
    return static_cast<size_t>(high_water_.load(std::memory_order_relaxed));
  }

  /// How many times the producer parked in wait_notfull (full ring), and
  /// the consumer in wait_nonempty (empty ring). Each is written by its
  /// own side only and may be read from anywhere.
  uint64_t producer_parks() const {
    return producer_parks_.load(std::memory_order_relaxed);
  }
  uint64_t consumer_parks() const {
    return consumer_parks_.load(std::memory_order_relaxed);
  }

  // ---- consumer side ------------------------------------------------------

  /// Move up to max items into out (cleared first). Returns out.size().
  size_t try_pop(std::vector<T>& out, size_t max) {
    out.clear();
    if (max == 0) return 0;
    const uint64_t head = head_.load(std::memory_order_relaxed);
    uint64_t tail = tail_cache_;
    if (tail == head) {
      tail = tail_cache_ = tail_.load(std::memory_order_acquire);
      if (tail == head) return 0;
    }
    const size_t n = std::min(max, static_cast<size_t>(tail - head));
    for (size_t i = 0; i < n; ++i) {
      out.push_back(std::move(slots_[static_cast<size_t>(head + i) & mask_]));
    }
    head_.store(head + n, std::memory_order_release);
    wake(producer_parked_);
    return n;
  }

  /// Block until an item is visible or the ring is closed AND drained.
  /// Returns true when data is ready, false at end-of-stream. The closed
  /// flag is re-checked against a fresh tail so a close racing the final
  /// push never strands items: the producer stores tail before closed, so
  /// observing closed (acquire) makes the final tail visible.
  bool wait_nonempty() {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    park_until(consumer_parked_, consumer_parks_, [&] {
      return tail_.load(std::memory_order_acquire) != head ||
             closed_.load(std::memory_order_acquire);
    });
    return tail_.load(std::memory_order_acquire) != head;
  }

  /// Approximate occupancy (racy by nature; exact once both sides stop).
  size_t size() const {
    return static_cast<size_t>(tail_.load(std::memory_order_acquire) -
                               head_.load(std::memory_order_acquire));
  }

 private:
  static constexpr int kSpinRounds = 64;
  static constexpr int kYieldRounds = 16;

  /// The parking side of the handshake (see the header comment): spin and
  /// yield, then announce on `word`, fence, and sleep only if ready()
  /// still fails.
  template <typename Ready>
  static void park_until(std::atomic<uint32_t>& word,
                         std::atomic<uint64_t>& parks, Ready ready) {
    for (int spin = 0; !ready(); ++spin) {
      if (spin < kSpinRounds) {
        detail::cpu_relax();
        continue;
      }
      if (spin < kSpinRounds + kYieldRounds) {
        std::this_thread::yield();
        continue;
      }
      word.store(1, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (!ready()) {
        parks.fetch_add(1, std::memory_order_relaxed);
        word.wait(1, std::memory_order_relaxed);
      }
      word.store(0, std::memory_order_relaxed);
    }
  }

  /// The publishing side: called after the index (or closed_) store.
  /// The clearing store is seq_cst because notify_one skips its syscall
  /// when it sees no registered waiter, and that check must not be
  /// reordered before the store.
  static void wake(std::atomic<uint32_t>& word) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (word.load(std::memory_order_relaxed) != 0) {
      word.store(0, std::memory_order_seq_cst);
      word.notify_one();
    }
  }

  // Consumer-owned index, producer-read: own cache line.
  alignas(64) std::atomic<uint64_t> head_{0};
  // Producer-owned index, consumer-read: own cache line.
  alignas(64) std::atomic<uint64_t> tail_{0};
  // Producer-local view of head_, plus the producer-written statistics.
  alignas(64) uint64_t head_cache_ = 0;
  std::atomic<uint64_t> high_water_{0};
  std::atomic<uint64_t> producer_parks_{0};
  // Consumer-local view of tail_, plus the consumer-written statistic.
  alignas(64) uint64_t tail_cache_ = 0;
  std::atomic<uint64_t> consumer_parks_{0};
  alignas(64) std::atomic<bool> closed_{false};
  // Doorbell words, one per side: set by the parker, cleared by whoever
  // rings it. Each on its own line, so a publisher's read stays a shared
  // hit until the other side parks.
  alignas(64) std::atomic<uint32_t> consumer_parked_{0};
  alignas(64) std::atomic<uint32_t> producer_parked_{0};

  std::vector<T> slots_;
  size_t mask_ = 0;
};

}  // namespace lumen
