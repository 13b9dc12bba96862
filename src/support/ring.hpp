// A FIFO over a growable ring buffer that keeps its capacity.
//
// std::deque allocates and frees a block every few elements even when it
// never holds more than a handful, which puts a heap allocation on every
// few bus messages. This queue grows (doubling) only when full and never
// shrinks, so a queue in steady state pushes and pops without allocating.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace surgeon::support {

/// FIFO of T (default-constructible, move-assignable). A popped or cleared
/// element is reset to T{} so it releases what it owns at once.
template <class T>
class RingQueue {
 public:
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  [[nodiscard]] T& front() noexcept { return buf_[head_]; }
  [[nodiscard]] const T& front() const noexcept { return buf_[head_]; }
  /// The i-th element from the front (i < size()).
  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    return buf_[wrap(head_ + i)];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return buf_[wrap(head_ + i)];
  }

  void push_back(T value) {
    if (size_ == buf_.size()) grow();
    buf_[wrap(head_ + size_)] = std::move(value);
    ++size_;
  }
  void pop_front() {
    buf_[head_] = T{};
    head_ = wrap(head_ + 1);
    --size_;
  }
  void clear() {
    while (!empty()) pop_front();
    head_ = 0;
  }

 private:
  [[nodiscard]] std::size_t wrap(std::size_t i) const noexcept {
    return i >= buf_.size() ? i - buf_.size() : i;
  }
  void grow() {
    std::vector<T> bigger(buf_.empty() ? 4 : 2 * buf_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(buf_[wrap(head_ + i)]);
    }
    buf_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace surgeon::support
