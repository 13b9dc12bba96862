// Deterministic discrete-event simulator: machines, virtual clock, events.
//
// The bus schedules message deliveries and timers here; modules' sleep()
// calls become timer events. Time is virtual (microseconds), so integration
// tests of multi-machine reconfigurations run in milliseconds of wall time
// and are bit-for-bit reproducible.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/arch.hpp"
#include "net/durable.hpp"
#include "support/rng.hpp"

namespace surgeon::net {

using SimTime = std::uint64_t;  // microseconds of virtual time

struct Machine {
  std::string name;
  Arch arch;
};

/// Identity of a directed network link, the unit of event independence for
/// systematic fault-schedule exploration (surgeon::chaos). Two wire events
/// are *independent* -- injecting faults into them in either order yields
/// the same execution -- when they ride different directed links, or the
/// same link at different per-link copy indices: the simulator delivers
/// each link's copies in a deterministic order, and a fault decision for
/// copy k neither observes nor perturbs the decision for copy j != k.
/// Dependent (non-commuting) choices are only ever *alternatives at the
/// same point* (drop copy k vs. deliver copy k), which an explorer
/// branches on rather than reorders. The canonical ordering below lets an
/// explorer enumerate unordered fault *sets* instead of ordered sequences,
/// pruning every schedule that differs only by a reordering of
/// independent events.
struct LinkKey {
  std::string src;
  std::string dst;

  [[nodiscard]] bool loopback() const noexcept { return src == dst; }
  [[nodiscard]] std::string describe() const { return src + "->" + dst; }
  auto operator<=>(const LinkKey&) const = default;
};

/// A point in the space of wire events: the `index`-th copy put on `link`
/// during a deterministic run (0-based, counted per link). The total order
/// (link, index) is the canonical order used to enumerate commutative
/// fault sets exactly once.
struct WirePoint {
  LinkKey link;
  std::uint32_t index = 0;

  [[nodiscard]] std::string describe() const {
    return link.describe() + "#" + std::to_string(index);
  }
  auto operator<=>(const WirePoint&) const = default;
};

/// True when faulting `a` and `b` commutes (see LinkKey): distinct wire
/// points are always independent; only the same point conflicts with
/// itself.
[[nodiscard]] inline bool independent(const WirePoint& a,
                                      const WirePoint& b) noexcept {
  return a != b;
}

/// Network cost model. Delivery latency between two machines; same-machine
/// messages pay only the local cost.
struct LatencyModel {
  SimTime local_us = 10;
  SimTime remote_us = 2000;
  /// Max uniform jitter added to remote deliveries (0 = none).
  SimTime remote_jitter_us = 0;
};

namespace detail {

/// A move-only `void()` closure for one pending simulator event. Closures of
/// up to kInlineBytes live in the record itself; larger ones (or ones whose
/// move may throw) are boxed on the heap and the record holds the pointer.
/// Three function pointers in a per-type table stand in for the virtual
/// calls of std::function; the record is one 64-byte cache line.
class EventClosure {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  template <class Fn>
  static constexpr bool fits_inline() noexcept {
    return sizeof(Fn) <= kInlineBytes &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  EventClosure() noexcept = default;
  EventClosure(EventClosure&& other) noexcept { take(other); }
  EventClosure& operator=(EventClosure&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  EventClosure(const EventClosure&) = delete;
  EventClosure& operator=(const EventClosure&) = delete;
  ~EventClosure() { reset(); }

  /// Stores `f` (the record must be empty).
  template <class F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInline<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kBoxed<Fn>;
    }
  }
  void operator()() { ops_->invoke(buf_); }
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* self);
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* self) noexcept;
  };
  template <class Fn>
  static Fn& inline_fn(void* p) noexcept {
    return *std::launder(static_cast<Fn*>(p));
  }
  template <class Fn>
  static Fn*& boxed_fn(void* p) noexcept {
    return *std::launder(static_cast<Fn**>(p));
  }
  template <class Fn>
  static constexpr Ops kInline = {
      [](void* p) { inline_fn<Fn>(p)(); },
      [](void* from, void* to) noexcept {
        ::new (to) Fn(std::move(inline_fn<Fn>(from)));
        inline_fn<Fn>(from).~Fn();
      },
      [](void* p) noexcept { inline_fn<Fn>(p).~Fn(); }};
  template <class Fn>
  static constexpr Ops kBoxed = {
      [](void* p) { (*boxed_fn<Fn>(p))(); },
      [](void* from, void* to) noexcept {
        ::new (to) Fn*(boxed_fn<Fn>(from));
      },
      [](void* p) noexcept { delete boxed_fn<Fn>(p); }};

  void take(EventClosure& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(other.buf_, buf_);
    ops_ = other.ops_;
    other.ops_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace detail

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : rng_(seed) {}

  /// Registers a machine. Throws BusError if the name is taken.
  void add_machine(const std::string& name, Arch arch);
  [[nodiscard]] bool has_machine(const std::string& name) const {
    return machines_.contains(name);
  }
  /// Throws BusError for an unknown machine.
  [[nodiscard]] const Machine& machine(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> machine_names() const;

  /// The machine's durable storage (disk): survives module and coordinator
  /// process crashes, which lose only in-memory state. Throws BusError for
  /// an unknown machine.
  [[nodiscard]] DurableStore& durable_store(const std::string& machine);
  [[nodiscard]] const DurableStore& durable_store(
      const std::string& machine) const;

  void set_latency_model(LatencyModel model) noexcept { latency_ = model; }
  [[nodiscard]] const LatencyModel& latency_model() const noexcept {
    return latency_;
  }
  /// Latency charged for a message from machine `a` to machine `b`.
  [[nodiscard]] SimTime message_latency(const std::string& a,
                                        const std::string& b);
  /// Same cost model for a link whose same-machine test is pre-resolved
  /// (the bus's compiled adjacency stores it), skipping the string compare.
  /// Consumes the jitter RNG exactly as message_latency does.
  [[nodiscard]] SimTime link_latency(bool same_machine) {
    if (same_machine) return latency_.local_us;
    SimTime jitter = latency_.remote_jitter_us == 0
                         ? 0
                         : rng_.next_below(latency_.remote_jitter_us + 1);
    return latency_.remote_us + jitter;
  }

  [[nodiscard]] SimTime now() const noexcept { return now_us_; }

  /// Advances the clock directly. Used by the scheduler to charge virtual
  /// time for computation (per-instruction cost model); pending events whose
  /// time has passed will run at the advanced clock.
  void advance_time(SimTime dt) noexcept { now_us_ += dt; }

  /// Schedules `fn` (any `void()` callable) at absolute virtual time `t`
  /// (clamped to now). Closures of up to kInlineClosureBytes are stored in
  /// a pooled event record without touching the heap.
  template <class F>
  void schedule_at(SimTime t, F&& fn) {
    if (t < now_us_) t = now_us_;
    const std::uint32_t slot = acquire_record();
    try {
      pool_[slot].emplace(std::forward<F>(fn));
    } catch (...) {
      free_.push_back(slot);
      throw;
    }
    heap_.push_back(Key{t, next_seq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  template <class F>
  void schedule_after(SimTime dt, F&& fn) {
    schedule_at(now_us_ + dt, std::forward<F>(fn));
  }

  static constexpr std::size_t kInlineClosureBytes =
      detail::EventClosure::kInlineBytes;
  /// True when a closure of type F is stored inline (never boxed).
  template <class F>
  static constexpr bool stores_inline() noexcept {
    return detail::EventClosure::fits_inline<std::decay_t<F>>();
  }

  /// Runs the earliest pending event. Returns false when none remain.
  bool step();
  /// Runs events until the queue is empty or `max_events` is hit.
  /// Returns the number of events executed.
  std::size_t run(std::size_t max_events = SIZE_MAX);
  [[nodiscard]] bool idle() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return heap_.size();
  }

 private:
  /// Heap entry of one pending event; its closure sits in pool_[slot].
  struct Key {
    SimTime time;
    std::uint64_t seq;  // tie-break so equal-time events run FIFO
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const noexcept {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  [[nodiscard]] std::uint32_t acquire_record() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    pool_.emplace_back();
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }

  SimTime now_us_ = 0;
  std::uint64_t next_seq_ = 0;
  /// Binary heap of small keys under Later (std::push_heap/pop_heap).
  std::vector<Key> heap_;
  /// Event records, sized by the peak number of pending events; free_
  /// lists the records no pending event holds.
  std::vector<detail::EventClosure> pool_;
  std::vector<std::uint32_t> free_;
  std::map<std::string, Machine> machines_;
  std::map<std::string, DurableStore> stores_;
  LatencyModel latency_;
  support::SplitMix64 rng_;
};

}  // namespace surgeon::net
