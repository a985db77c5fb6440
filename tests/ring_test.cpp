// Tests for common::Ring: random operation sequences against std::deque,
// moves, and the capacity contract (grows by doubling, never shrinks, and
// a FIFO that cycles at a bounded depth stops growing).
#include "common/ring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <iterator>
#include <random>
#include <utility>

namespace protean::common {
namespace {

struct Item {
  int key = 0;
  double payload = 0.0;
  bool operator==(const Item&) const = default;
};

void expect_same(const Ring<Item>& ring, const std::deque<Item>& ref) {
  ASSERT_EQ(ring.size(), ref.size());
  EXPECT_EQ(ring.empty(), ref.empty());
  EXPECT_TRUE(std::equal(ring.begin(), ring.end(), ref.begin(), ref.end()));
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(ring[i], ref[i]);
}

TEST(Ring, MatchesDequeUnderRandomOperations) {
  std::mt19937_64 rng(5);
  Ring<Item> ring;
  std::deque<Item> ref;
  std::size_t capacity = 0;
  for (int step = 0; step < 20000; ++step) {
    const Item item{step, 0.5 * step};
    const int op = static_cast<int>(rng() % 100);
    if (op < 40) {
      ring.push_back(item);
      ref.push_back(item);
    } else if (op < 55 && !ref.empty()) {
      ring.pop_front();
      ref.pop_front();
    } else if (op < 75) {
      const std::size_t at = rng() % (ref.size() + 1);
      const auto it =
          ring.insert(std::next(ring.begin(), static_cast<long>(at)), item);
      ref.insert(std::next(ref.begin(), static_cast<long>(at)), item);
      EXPECT_EQ(it.index(), at);
      EXPECT_EQ(*it, item);
    } else if (op < 99 && !ref.empty()) {
      const std::size_t at = rng() % ref.size();
      const auto it =
          ring.erase(std::next(ring.begin(), static_cast<long>(at)));
      ref.erase(std::next(ref.begin(), static_cast<long>(at)));
      EXPECT_EQ(it.index(), at);
    } else if (op == 99) {
      ring.clear();
      ref.clear();
    }
    ASSERT_GE(ring.capacity(), capacity) << "capacity shrank at " << step;
    capacity = ring.capacity();
    if (step % 97 == 0) expect_same(ring, ref);
  }
  expect_same(ring, ref);
  EXPECT_EQ(capacity & (capacity - 1), 0u) << "capacity is a power of two";
}

TEST(Ring, BothEndsMatchDequeUnderRandomOperations) {
  // The container pools' use: push at the back, reuse from the back
  // (LIFO), expire from the front.
  std::mt19937_64 rng(11);
  Ring<Item> ring;
  std::deque<Item> ref;
  for (int step = 0; step < 20000; ++step) {
    const int op = static_cast<int>(rng() % 10);
    if (op < 5) {
      ring.push_back({step, 0.25 * step});
      ref.push_back({step, 0.25 * step});
    } else if (op < 8 && !ref.empty()) {
      EXPECT_EQ(ring[ring.size() - 1], ref.back());
      ring.pop_back();
      ref.pop_back();
    } else if (!ref.empty()) {
      EXPECT_EQ(ring.front(), ref.front());
      ring.pop_front();
      ref.pop_front();
    }
    if (step % 101 == 0) expect_same(ring, ref);
  }
  expect_same(ring, ref);
}

TEST(Ring, MovingTakesTheArrayAndLeavesTheSourceEmpty) {
  Ring<Item> empty;
  EXPECT_EQ(empty.capacity(), 0u);  // nothing allocated until a push
  Ring<Item> a;
  for (int i = 0; i < 12; ++i) a.push_back({i, 0.0});
  a.pop_front();
  const Item* first = &a.front();
  Ring<Item> b(std::move(a));
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.capacity(), 0u);
  ASSERT_EQ(b.size(), 11u);
  EXPECT_EQ(&b.front(), first);  // the same slots, not a copy
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(b[i].key, static_cast<int>(i) + 1);
  }
  a.push_back({99, 0.0});  // a moved-from ring is reusable
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(a.front().key, 99);
}

TEST(Ring, StrictFirstInsertKeepsFifoAmongEqualKeys) {
  // The node queue's policy: an urgent item jumps every queued non-urgent
  // one but stays behind earlier urgent ones.
  Ring<Item> ring;
  for (int i = 0; i < 5; ++i) ring.push_back({0, static_cast<double>(i)});
  for (int i = 0; i < 3; ++i) {
    const auto it = std::find_if(ring.begin(), ring.end(),
                                 [](const Item& x) { return x.key == 0; });
    ring.insert(it, {1, static_cast<double>(i)});
  }
  const double want_payload[] = {0, 1, 2, 0, 1, 2, 3, 4};
  const int want_key[] = {1, 1, 1, 0, 0, 0, 0, 0};
  ASSERT_EQ(ring.size(), 8u);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i].key, want_key[i]) << i;
    EXPECT_EQ(ring[i].payload, want_payload[i]) << i;
  }
}

TEST(Ring, CyclingAtBoundedDepthStopsGrowing) {
  Ring<Item> ring;
  for (int i = 0; i < 20; ++i) ring.push_back({i, 0.0});
  const std::size_t capacity = ring.capacity();
  EXPECT_EQ(capacity, 32u);
  // Wrap around the slot array many times at a depth of 20..31.
  for (int i = 20; i < 10000; ++i) {
    ring.push_back({i, 0.0});
    if (ring.size() > 25) {
      ring.pop_front();
      ring.pop_front();
    }
  }
  EXPECT_EQ(ring.capacity(), capacity);
  for (std::size_t i = 1; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i].key, ring[i - 1].key + 1);
  }
  EXPECT_EQ(ring[ring.size() - 1].key, 9999);
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), capacity);
}

}  // namespace
}  // namespace protean::common
