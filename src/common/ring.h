// Ring-buffer FIFO that keeps its capacity.
//
// The node queues and the gateway's arrival grains cycle elements through
// a FIFO once per batch. std::deque frees and reallocates its 512-byte
// blocks as such a queue cycles; Ring grows its slot array by doubling and
// never shrinks it, so a queue that has reached its working depth
// allocates nothing more. It also supports insertion and erasure in the
// middle (strict batches jump queued BE work; dispatch takes any placeable
// batch), shifting the elements on the shorter side as std::deque does.
// A default-constructed or moved-from Ring owns no array, so building and
// moving one allocates nothing (the per-model container pools in
// cluster/node.h live in a std::vector and move when it grows).
//
// Ring holds plain values: a vacated slot keeps its stale bytes until it is
// reused. The slot array grows with realloc, which moves a large block by
// remapping its pages rather than copying them, and leaves the new half
// untouched until slots are written; so a deep backlog's growth costs no
// transient second copy of the queue.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <iterator>
#include <new>
#include <type_traits>
#include <utility>

#include "common/check.h"

namespace protean::common {

template <typename T>
class Ring {
  static_assert(std::is_trivially_copyable_v<T>,
                "Ring never resets vacated slots and grows with realloc");
  static_assert(alignof(T) <= alignof(std::max_align_t));

 public:
  template <bool Const>
  class Iterator {
   public:
    using Owner = std::conditional_t<Const, const Ring, Ring>;
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = std::conditional_t<Const, const T*, T*>;
    using reference = std::conditional_t<Const, const T&, T&>;

    Iterator() = default;
    Iterator(Owner* ring, std::size_t index) : ring_(ring), index_(index) {}
    operator Iterator<true>() const
      requires(!Const)
    {
      return {ring_, index_};
    }

    reference operator*() const { return (*ring_)[index_]; }
    pointer operator->() const { return &(*ring_)[index_]; }
    std::size_t index() const noexcept { return index_; }

    Iterator& operator++() {
      ++index_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++index_;
      return old;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.index_ == b.index_;
    }

   private:
    Owner* ring_ = nullptr;
    std::size_t index_ = 0;
  };
  using iterator = Iterator<false>;
  using const_iterator = Iterator<true>;
  using value_type = T;

  Ring() = default;
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;
  /// Takes the slot array; the source is left empty, with no array.
  Ring(Ring&& other) noexcept
      : slots_(std::exchange(other.slots_, nullptr)),
        capacity_(std::exchange(other.capacity_, 0)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  ~Ring() { std::free(slots_); }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return capacity_; }

  T& operator[](std::size_t i) { return slots_[slot(i)]; }
  const T& operator[](std::size_t i) const { return slots_[slot(i)]; }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }

  iterator begin() noexcept { return {this, 0}; }
  iterator end() noexcept { return {this, size_}; }
  const_iterator begin() const noexcept { return {this, 0}; }
  const_iterator end() const noexcept { return {this, size_}; }

  void push_back(T value) {
    grow_if_full();
    slots_[slot(size_)] = value;
    ++size_;
  }

  void pop_front() {
    PROTEAN_DCHECK(size_ > 0);
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

  void pop_back() {
    PROTEAN_DCHECK(size_ > 0);
    --size_;
  }

  /// Inserts before `pos`; returns an iterator to the new element.
  iterator insert(const_iterator pos, T value) {
    const std::size_t at = pos.index();
    PROTEAN_DCHECK(at <= size_);
    grow_if_full();
    if (at < size_ - at) {
      // Open a slot at the front and shift [0, at) down by one.
      head_ = (head_ + capacity_ - 1) & (capacity_ - 1);
      ++size_;
      for (std::size_t i = 0; i < at; ++i) {
        (*this)[i] = (*this)[i + 1];
      }
    } else {
      ++size_;
      for (std::size_t i = size_ - 1; i > at; --i) {
        (*this)[i] = (*this)[i - 1];
      }
    }
    (*this)[at] = value;
    return {this, at};
  }

  /// Removes the element at `pos`; returns an iterator to its successor.
  iterator erase(const_iterator pos) {
    const std::size_t at = pos.index();
    PROTEAN_DCHECK(at < size_);
    if (at < size_ - 1 - at) {
      for (std::size_t i = at; i > 0; --i) {
        (*this)[i] = (*this)[i - 1];
      }
      pop_front();
    } else {
      for (std::size_t i = at; i + 1 < size_; ++i) {
        (*this)[i] = (*this)[i + 1];
      }
      --size_;
    }
    return {this, at};
  }

  /// Empties the ring; its capacity is kept.
  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }

 private:
  std::size_t slot(std::size_t i) const noexcept {
    return (head_ + i) & (capacity_ - 1);
  }

  /// Doubles the slot array (a power of two) when every slot is taken.
  /// The full ring occupies [head, C) then [0, head) of the old array; the
  /// shorter of the two runs moves into the new half so the ring stays
  /// contiguous modulo 2C.
  void grow_if_full() {
    if (size_ < capacity_) return;
    const std::size_t grown = capacity_ == 0 ? 8 : 2 * capacity_;
    void* block = std::realloc(slots_, grown * sizeof(T));
    if (block == nullptr) throw std::bad_alloc();
    slots_ = static_cast<T*>(block);
    if (head_ < capacity_ - head_) {
      std::copy(slots_, slots_ + head_, slots_ + capacity_);
    } else {
      std::copy(slots_ + head_, slots_ + capacity_,
                slots_ + head_ + capacity_);
      head_ += capacity_;
    }
    capacity_ = grown;
  }

  T* slots_ = nullptr;  // malloc'd; T is trivially copyable
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace protean::common
