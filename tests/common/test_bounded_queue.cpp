// The bounded circular queue is the shared buffer between the engine
// thread and a link's reactor worker; these tests pin down FIFO order,
// capacity and close semantics, plus a producer/consumer stress run.
#include "common/bounded_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace iov {
namespace {

TEST(BoundedQueue, FifoOrder) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.try_push(i));
  for (int i = 0; i < 8; ++i) {
    auto v = q.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BoundedQueue, CapacityEnforced) {
  BoundedQueue<int> q(3);
  EXPECT_EQ(q.capacity(), 3u);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_TRUE(q.try_push(3));
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.try_push(4));
  EXPECT_EQ(q.size(), 3u);
  q.try_pop();
  EXPECT_TRUE(q.try_push(4));
}

TEST(BoundedQueue, ZeroCapacityClampsToOne) {
  BoundedQueue<int> q(0);
  EXPECT_EQ(q.capacity(), 1u);
  EXPECT_TRUE(q.try_push(7));
  EXPECT_FALSE(q.try_push(8));
}

TEST(BoundedQueue, WrapAroundKeepsOrder) {
  BoundedQueue<int> q(4);
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 10; ++round) {
    while (q.try_push(next_in)) ++next_in;
    for (int i = 0; i < 2; ++i) {
      auto v = q.try_pop();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, next_out++);
    }
  }
}

TEST(BoundedQueue, CloseDrainsRemainingElements) {
  BoundedQueue<int> q(4);
  q.try_push(1);
  q.try_push(2);
  q.close();
  EXPECT_FALSE(q.try_push(3));
  EXPECT_EQ(q.try_pop().value(), 1);
  EXPECT_EQ(q.try_pop().value(), 2);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BoundedQueue, MoveOnlyElements) {
  BoundedQueue<std::unique_ptr<int>> q(2);
  EXPECT_TRUE(q.try_push(std::make_unique<int>(9)));
  auto v = q.try_pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 9);
}

// --- Batch operations (DESIGN.md §8) --------------------------------------

TEST(BoundedQueue, StressSpscPreservesSequence) {
  // One producer thread and one consumer thread through a tiny queue,
  // each retrying on full/empty like the engine thread and a link's
  // reactor worker: the consumer sees every element, in order.
  BoundedQueue<int> q(16);
  constexpr int kCount = 20000;
  std::thread producer([&] {
    for (int i = 0; i < kCount;) {
      if (q.try_push(i)) {
        ++i;
      } else {
        std::this_thread::yield();
      }
    }
    q.close();
  });
  int expected = 0;
  while (true) {
    auto v = q.try_pop();
    if (!v) {
      if (q.closed() && q.empty()) break;
      std::this_thread::yield();
      continue;
    }
    ASSERT_EQ(*v, expected++);
  }
  producer.join();
  EXPECT_EQ(expected, kCount);
}

TEST(BoundedQueue, StressMpmcDeliversEverythingOnce) {
  BoundedQueue<int> q(8);
  constexpr int kPerProducer = 5000;
  constexpr int kProducers = 3;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer;) {
        if (q.try_push(p * kPerProducer + i)) {
          ++i;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  std::vector<int> seen;
  std::mutex seen_mu;
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      while (true) {
        auto v = q.try_pop();
        if (!v) {
          if (q.closed() && q.empty()) return;
          std::this_thread::yield();
          continue;
        }
        std::lock_guard<std::mutex> lock(seen_mu);
        seen.push_back(*v);
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();

  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kPerProducer * kProducers));
  for (int i = 0; i < kPerProducer * kProducers; ++i) EXPECT_EQ(seen[i], i);
}

TEST(BoundedQueueBatch, TryPopBatchDrainsInFifoOrder) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(q.try_push(i));
  std::vector<int> out;
  EXPECT_EQ(q.try_pop_batch(out, 4), 4u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.try_pop_batch(out, 4), 2u);  // appends the remainder
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(q.try_pop_batch(out, 4), 0u);  // empty
}

TEST(BoundedQueueBatch, FifoAcrossMixedSingleAndBatchOps) {
  BoundedQueue<int> q(16);
  std::vector<int> in{0, 1, 2};
  EXPECT_EQ(q.try_push_batch(in), 3u);
  ASSERT_TRUE(q.try_push(3));
  std::vector<int> in2{4, 5};
  EXPECT_EQ(q.try_push_batch(in2), 2u);
  EXPECT_EQ(q.try_pop().value(), 0);
  std::vector<int> out;
  EXPECT_EQ(q.try_pop_batch(out, 3), 3u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.try_pop().value(), 4);
  EXPECT_EQ(q.try_pop().value(), 5);
}

TEST(BoundedQueueBatch, TryPushBatchStopsAtCapacity) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.try_push(0));
  std::vector<int> in{1, 2, 3, 4, 5};
  EXPECT_EQ(q.try_push_batch(in), 3u);  // only 3 slots free
  EXPECT_TRUE(q.full());
  std::vector<int> out;
  EXPECT_EQ(q.try_pop_batch(out, 10), 4u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
}

TEST(BoundedQueueBatch, CloseDrainsThenPopBatchReturnsZero) {
  BoundedQueue<int> q(4);
  q.try_push(1);
  q.try_push(2);
  q.close();
  std::vector<int> in{3};
  EXPECT_EQ(q.try_push_batch(in), 0u);      // closed: nothing accepted
  std::vector<int> out;
  EXPECT_EQ(q.try_pop_batch(out, 8), 2u);  // remaining elements still drain
  EXPECT_EQ(q.try_pop_batch(out, 8), 0u);  // closed and drained
}

TEST(BoundedQueueBatch, MoveOnlyElements) {
  BoundedQueue<std::unique_ptr<int>> q(4);
  std::vector<std::unique_ptr<int>> in;
  in.push_back(std::make_unique<int>(1));
  in.push_back(std::make_unique<int>(2));
  EXPECT_EQ(q.try_push_batch(in), 2u);
  std::vector<std::unique_ptr<int>> out;
  EXPECT_EQ(q.try_pop_batch(out, 4), 2u);
  EXPECT_EQ(*out[0], 1);
  EXPECT_EQ(*out[1], 2);
}

TEST(BoundedQueueBatch, StressBatchProducersAndConsumers) {
  // Batch pushers against batch poppers through a tiny queue, each side
  // retrying on full/empty the way links and the switch do: everything
  // arrives exactly once (and TSan gets a workout on the batch paths).
  BoundedQueue<int> q(8);
  constexpr int kPerProducer = 4000;
  constexpr int kProducers = 2;
  constexpr int kTotal = kPerProducer * kProducers;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::vector<int> in;
      for (int i = 0; i < kPerProducer;) {
        in.clear();
        for (int j = i; j < i + 16 && j < kPerProducer; ++j) {
          in.push_back(p * kPerProducer + j);
        }
        const std::size_t pushed = q.try_push_batch(in);
        i += static_cast<int>(pushed);
        if (pushed == 0) std::this_thread::yield();
      }
    });
  }
  std::vector<int> seen;
  std::mutex seen_mu;
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      std::vector<int> out;
      while (true) {
        out.clear();
        if (q.try_pop_batch(out, 8) == 0) {
          if (q.closed() && q.empty()) return;
          std::this_thread::yield();
          continue;
        }
        std::lock_guard<std::mutex> lock(seen_mu);
        seen.insert(seen.end(), out.begin(), out.end());
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();

  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kTotal));
  for (int i = 0; i < kTotal; ++i) EXPECT_EQ(seen[i], i);
}

}  // namespace
}  // namespace iov
