// SpscRing and ModelSlot: the two lock-free primitives under the sharded
// ingest path. Single-threaded tests pin the index arithmetic (wrap-around,
// batched claim/publish, full/empty/closed edges); the two-thread stresses
// are the TSan targets — FIFO integrity across millions of wraps for the
// ring, no torn value and bounded node retention for the slot. The parking
// tests drive each blocking edge into its futex wait and check that every
// waker (push, pop, close) gets it out; a lost wake-up shows as a hang,
// which the ctest timeout turns into a failure.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/model_slot.h"
#include "common/spsc_ring.h"

namespace lumen {
namespace {

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(0).capacity(), 1u);
  EXPECT_EQ(SpscRing<int>(1).capacity(), 1u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(4).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(4096).capacity(), 4096u);
  EXPECT_EQ(SpscRing<int>(5000).capacity(), 8192u);
}

TEST(SpscRing, FifoAcrossManyWraps) {
  SpscRing<int> ring(4);
  std::vector<int> out;
  int next_push = 0, next_pop = 0;
  // Interleave pushes and pops so head/tail wrap the 4-slot ring hundreds
  // of times; order and content must survive every wrap.
  for (int round = 0; round < 1000; ++round) {
    int vals[3];
    for (int i = 0; i < 3; ++i) vals[i] = next_push + i;
    const size_t pushed = ring.try_push(vals, 3);
    next_push += static_cast<int>(pushed);
    ASSERT_GT(pushed, 0u);
    ASSERT_GT(ring.try_pop(out, 2), 0u);
    for (const int v : out) {
      ASSERT_EQ(v, next_pop);
      ++next_pop;
    }
  }
  while (ring.try_pop(out, 64) > 0) {
    for (const int v : out) {
      ASSERT_EQ(v, next_pop);
      ++next_pop;
    }
  }
  EXPECT_EQ(next_pop, next_push);
}

TEST(SpscRing, BatchedClaimPublishPartialAccept) {
  SpscRing<int> ring(8);
  int vals[16];
  for (int i = 0; i < 16; ++i) vals[i] = i;
  // A batch larger than the free space is accepted partially, in order.
  EXPECT_EQ(ring.try_push(vals, 16), 8u);
  EXPECT_EQ(ring.try_push(vals + 8, 8), 0u);  // full
  std::vector<int> out;
  EXPECT_EQ(ring.try_pop(out, 3), 3u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(ring.try_push(vals + 8, 8), 3u);  // exactly the freed slots
  // The consumer refreshes its view of the producer index only when the
  // cached view runs empty, so this claim serves the 5 items it already
  // knew about and the next claim picks up the 3 published since.
  EXPECT_EQ(ring.try_pop(out, 64), 5u);
  EXPECT_EQ(out, (std::vector<int>{3, 4, 5, 6, 7}));
  EXPECT_EQ(ring.try_pop(out, 64), 3u);
  EXPECT_EQ(out, (std::vector<int>{8, 9, 10}));
}

TEST(SpscRing, EmptyFullAndClosedEdges) {
  SpscRing<int> ring(2);
  std::vector<int> out;
  EXPECT_EQ(ring.try_pop(out, 4), 0u);  // empty
  int v = 7;
  ASSERT_TRUE(ring.try_push(std::move(v)));
  v = 8;
  ASSERT_TRUE(ring.try_push(std::move(v)));
  v = 9;
  EXPECT_FALSE(ring.try_push(std::move(v)));  // full
  EXPECT_TRUE(ring.wait_nonempty());

  ring.close();
  v = 10;
  EXPECT_FALSE(ring.try_push(std::move(v)));  // closed: refuse new work
  EXPECT_FALSE(ring.wait_notfull());          // producer told to stop
  // Consumer drains the remainder, then sees end-of-stream.
  EXPECT_TRUE(ring.wait_nonempty());
  EXPECT_EQ(ring.try_pop(out, 4), 2u);
  EXPECT_EQ(out, (std::vector<int>{7, 8}));
  EXPECT_FALSE(ring.wait_nonempty());
}

TEST(SpscRing, MovesElementsThrough) {
  SpscRing<std::unique_ptr<int>> ring(4);
  auto p = std::make_unique<int>(42);
  ASSERT_TRUE(ring.try_push(std::move(p)));
  EXPECT_EQ(p, nullptr);  // accepted items are moved-from
  std::vector<std::unique_ptr<int>> out;
  ASSERT_EQ(ring.try_pop(out, 1), 1u);
  ASSERT_NE(out[0], nullptr);
  EXPECT_EQ(*out[0], 42);
}

TEST(SpscRing, HighWaterTracksPeakOccupancy) {
  SpscRing<int> ring(8);
  EXPECT_EQ(ring.high_water(), 0u);
  int vals[8] = {0, 1, 2, 3, 4, 5, 6, 7};
  ASSERT_EQ(ring.try_push(vals, 5), 5u);
  EXPECT_EQ(ring.high_water(), 5u);
  std::vector<int> out;
  ASSERT_EQ(ring.try_pop(out, 5), 5u);
  EXPECT_EQ(ring.high_water(), 5u);  // a high-water mark never recedes
  ASSERT_EQ(ring.try_push(vals, 8), 8u);
  EXPECT_EQ(ring.high_water(), 8u);
  EXPECT_LE(ring.high_water(), ring.capacity());
}

// The TSan target: one producer and one consumer hammer a tiny ring so
// every publication path (batched push, batched pop, wait/park, close)
// races constantly. The consumer checks the exact FIFO sequence, which
// fails loudly if a slot is ever read before its release-store published it.
TEST(SpscRing, TwoThreadStressKeepsFifo) {
  constexpr uint32_t kCount = 200000;
  SpscRing<uint32_t> ring(64);
  std::atomic<bool> ok{true};

  std::thread consumer([&] {
    std::vector<uint32_t> out;
    uint32_t expect = 0;
    while (ring.wait_nonempty()) {
      ring.try_pop(out, 16);
      for (const uint32_t v : out) {
        if (v != expect) {
          ok.store(false);
          return;
        }
        ++expect;
      }
    }
    if (expect != kCount) ok.store(false);
  });

  uint32_t batch[13];
  uint32_t next = 0;
  while (next < kCount) {
    uint32_t n = 0;
    while (n < 13 && next + n < kCount) {
      batch[n] = next + n;
      ++n;
    }
    uint32_t done = 0;
    while (done < n) {
      const size_t accepted = ring.try_push(batch + done, n - done);
      done += static_cast<uint32_t>(accepted);
      if (accepted == 0) {
        ASSERT_TRUE(ring.wait_notfull());
      }
    }
    next += n;
  }
  ring.close();
  consumer.join();
  EXPECT_TRUE(ok.load());
  EXPECT_GE(ring.high_water(), 1u);
  EXPECT_LE(ring.high_water(), ring.capacity());
}

/// The pause before ping `round`: a busy-wait of 0-16 us, rising in 40 ns
/// steps with the round and wrapping every 400 rounds. The sweep crosses
/// the point where a waiter's spin and yield rounds run out (a few
/// microseconds, by host) in small steps, so some publishes land just as
/// the waiter announces its park: the window in which a handshake without
/// the re-check loses the wake-up. Every 64th round sleeps instead, so the
/// waiter parks even where its yields would hand the CPU to this thread.
void idle_for_round(uint32_t round) {
  if (round % 64 == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    return;
  }
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::nanoseconds((round % 400u) * 40u);
  while (std::chrono::steady_clock::now() < until) {
  }
}

/// Spin until `parks()` reports a parked waiter (the counter is bumped just
/// before the futex wait, so the waker may race into the wait itself).
template <typename Parks>
void await_park(Parks parks) {
  while (parks() == 0) std::this_thread::yield();
}

// One item per round through a ping ring and back through a pong ring. The
// main thread idles before each ping; the echo thread waits for it in
// wait_nonempty and parks whenever the idle outlasts its spin and yield
// rounds. The main thread polls pong without parking, so it is awake at
// every point of the echo's spin-to-park edge, and the idle sweep lands
// some pings right where the echo announces its park. Every round waits
// for its answer, so a lost wake-up hangs here.
TEST(SpscRing, PingPongThroughParkingConsumerKeepsFifo) {
  constexpr uint32_t kRounds = 20000;
  SpscRing<uint32_t> ping(4);
  SpscRing<uint32_t> pong(4);
  std::atomic<bool> ok{true};

  std::thread echo([&] {
    std::vector<uint32_t> out;
    uint32_t expect = 0;
    while (ping.wait_nonempty()) {
      ping.try_pop(out, 4);
      for (uint32_t v : out) {
        if (v != expect++) ok.store(false);
        if (!pong.try_push(std::move(v))) ok.store(false);  // one in flight
      }
    }
    if (expect != kRounds) ok.store(false);
  });

  std::vector<uint32_t> back;
  uint32_t round = 0;
  for (; round < kRounds; ++round) {
    idle_for_round(round);
    uint32_t v = round;
    if (!ping.try_push(std::move(v))) break;  // echo drained the last one
    // Poll hot so the next ping can follow at once; yield only when the
    // echo is slow to answer, which on a single core means it needs to run.
    for (int polls = 0; pong.try_pop(back, 4) == 0; ++polls) {
      if (polls > 4096) std::this_thread::yield();
    }
    if (back.size() != 1 || back[0] != round) break;
  }
  ping.close();
  echo.join();
  EXPECT_EQ(round, kRounds);
  EXPECT_TRUE(ok.load());
  EXPECT_GT(ping.consumer_parks(), 0u);
  EXPECT_LE(ping.consumer_parks(), uint64_t{kRounds} + 1);
}

TEST(SpscRing, CloseWakesParkedConsumer) {
  SpscRing<int> ring(4);
  std::atomic<int> result{-1};
  std::thread consumer([&] { result.store(ring.wait_nonempty() ? 1 : 0); });
  await_park([&] { return ring.consumer_parks(); });
  ring.close();
  consumer.join();
  EXPECT_EQ(result.load(), 0);  // closed and drained: end of stream
}

TEST(SpscRing, CloseWakesParkedProducer) {
  SpscRing<int> ring(2);
  int vals[2] = {1, 2};
  ASSERT_EQ(ring.try_push(vals, 2), 2u);
  std::atomic<int> result{-1};
  std::thread producer([&] { result.store(ring.wait_notfull() ? 1 : 0); });
  await_park([&] { return ring.producer_parks(); });
  ring.close();
  producer.join();
  EXPECT_EQ(result.load(), 0);  // closed: stop pushing
}

TEST(SpscRing, PopWakesProducerParkedOnFullRing) {
  SpscRing<int> ring(2);
  int vals[2] = {1, 2};
  ASSERT_EQ(ring.try_push(vals, 2), 2u);
  std::atomic<int> result{-1};
  std::thread producer([&] { result.store(ring.wait_notfull() ? 1 : 0); });
  await_park([&] { return ring.producer_parks(); });
  std::vector<int> out;
  ASSERT_EQ(ring.try_pop(out, 1), 1u);
  producer.join();
  EXPECT_EQ(result.load(), 1);  // a slot is free
  EXPECT_EQ(ring.consumer_parks(), 0u);
}

TEST(ModelSlot, PinReturnsInitialValue) {
  ModelSlot<int> slot(std::make_unique<int>(11), 2);
  const auto pinned = slot.pin(0);
  ASSERT_NE(pinned.value, nullptr);
  EXPECT_EQ(*pinned.value, 11);
  EXPECT_EQ(pinned.version, 1u);
  EXPECT_EQ(slot.version(), 1u);
  EXPECT_EQ(slot.live_nodes(), 1u);
}

TEST(ModelSlot, PublishAdvancesVersionAndReclaims) {
  ModelSlot<int> slot(std::make_unique<int>(1), 1);
  EXPECT_EQ(*slot.pin(0).value, 1);
  slot.publish(std::make_unique<int>(2));
  // The reader's announced epoch still protects the old node.
  EXPECT_EQ(slot.live_nodes(), 2u);
  const auto pinned = slot.pin(0);
  EXPECT_EQ(*pinned.value, 2);
  EXPECT_EQ(pinned.version, 2u);
  // Re-pinning moved the reader past version 1; the old node is now
  // unreachable and the next reclamation frees it.
  slot.reclaim();
  EXPECT_EQ(slot.live_nodes(), 1u);
}

TEST(ModelSlot, NeverPinnedReaderBlocksReclamationConservatively) {
  ModelSlot<int> slot(std::make_unique<int>(1), 2);
  (void)slot.pin(0);
  slot.publish(std::make_unique<int>(2));
  (void)slot.pin(0);
  slot.reclaim();
  // Reader 1 never pinned (epoch 0): reclamation must keep everything —
  // conservative but never unsafe.
  EXPECT_EQ(slot.live_nodes(), 2u);
  (void)slot.pin(1);
  slot.reclaim();
  EXPECT_EQ(slot.live_nodes(), 1u);
}

// The TSan target for the swap protocol: a writer republishes constantly
// while readers pin and validate. Model carries a self-checking invariant
// (b must equal ~a), so a torn read — mixing fields from two versions or
// touching freed memory — fails immediately. Also checks retention stays
// bounded: superseded nodes are reclaimed while traffic flows.
TEST(ModelSlot, SwapStressNoTornReadsBoundedRetention) {
  struct Model {
    uint64_t a;
    uint64_t b;  // always ~a
  };
  constexpr int kReaders = 3;
  constexpr uint64_t kPublishes = 2000;
  ModelSlot<Model> slot(std::make_unique<Model>(Model{0, ~uint64_t{0}}),
                        kReaders);
  std::atomic<bool> stop{false};
  std::atomic<bool> ok{true};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t last_version = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto pinned = slot.pin(static_cast<size_t>(r));
        const Model m = *pinned.value;
        if (m.b != ~m.a) ok.store(false);            // torn or freed
        if (pinned.version < last_version) ok.store(false);  // went back
        last_version = pinned.version;
      }
    });
  }

  for (uint64_t i = 1; i <= kPublishes; ++i) {
    slot.publish(std::make_unique<Model>(Model{i, ~i}));
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(slot.version(), kPublishes + 1);
  // Once every reader has re-pinned past the last publish, exactly the
  // live node remains (retention is bounded by reader progress, which the
  // joins above made certain).
  (void)slot.pin(0);
  (void)slot.pin(1);
  (void)slot.pin(2);
  slot.reclaim();
  EXPECT_EQ(slot.live_nodes(), 1u);
}

}  // namespace
}  // namespace lumen
