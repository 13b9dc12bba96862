#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "net/sim.hpp"
#include "support/diag.hpp"

namespace surgeon::net {
namespace {

using support::BusError;

TEST(Sim, MachinesRegister) {
  Simulator sim;
  sim.add_machine("a", arch_vax());
  sim.add_machine("b", arch_sparc());
  EXPECT_TRUE(sim.has_machine("a"));
  EXPECT_FALSE(sim.has_machine("c"));
  EXPECT_EQ(sim.machine("b").arch.name, "sparc");
  EXPECT_EQ(sim.machine_names().size(), 2u);
  EXPECT_THROW(sim.add_machine("a", arch_vax()), BusError);
  EXPECT_THROW((void)sim.machine("zz"), BusError);
}

TEST(Sim, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(30, [&] { order.push_back(3); });
  sim.schedule_after(10, [&] { order.push_back(1); });
  sim.schedule_after(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
  EXPECT_TRUE(sim.idle());
}

TEST(Sim, EqualTimeEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Sim, EqualTimeEventsRunFifoAcrossRecycledRecordsAndBoxedClosures) {
  Simulator sim;
  // Run a few events first so the records below are recycled ones, handed
  // out in free-list order rather than scheduling order.
  for (int i = 0; i < 6; ++i) sim.schedule_after(1, [] {});
  sim.run();
  std::vector<int> order;
  std::array<char, 96> ballast{};  // makes the odd closures too big to inline
  for (int i = 0; i < 12; ++i) {
    if (i % 2 == 0) {
      sim.schedule_after(5, [&order, i] { order.push_back(i); });
    } else {
      sim.schedule_after(5, [&order, i, ballast] {
        order.push_back(i + ballast[0]);
      });
    }
  }
  sim.run();
  std::vector<int> want(12);
  for (int i = 0; i < 12; ++i) want[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(order, want);
}

TEST(Sim, SmallClosuresAreStoredInline) {
  // The bus's ack (this + three words), retransmit (this + two words) and
  // the routers' tick closures (this + weak_ptr) must never be boxed.
  struct Ack {
    void* self;
    std::uint64_t uid, stream, seq;
    void operator()() const {}
  };
  static_assert(sizeof(Ack) == 32);
  static_assert(Simulator::stores_inline<Ack>());
  std::weak_ptr<int> alive;
  int* self = nullptr;
  auto tick = [self, alive] { (void)self; };
  static_assert(Simulator::stores_inline<decltype(tick)>());
  static_assert(Simulator::stores_inline<std::function<void()>>());
  std::array<char, Simulator::kInlineClosureBytes + 1> big{};
  auto boxed = [big] { (void)big; };
  static_assert(!Simulator::stores_inline<decltype(boxed)>());
  SUCCEED();
}

/// Counts how many live copies of it are destroyed (moved-from shells do
/// not count) and how often it runs.
struct DestroyCounter {
  int* destroyed;
  int* runs;
  bool live = true;
  DestroyCounter(int* d, int* r) : destroyed(d), runs(r) {}
  DestroyCounter(DestroyCounter&& o) noexcept
      : destroyed(o.destroyed), runs(o.runs), live(o.live) {
    o.live = false;
  }
  DestroyCounter(const DestroyCounter&) = delete;
  DestroyCounter& operator=(const DestroyCounter&) = delete;
  DestroyCounter& operator=(DestroyCounter&&) = delete;
  ~DestroyCounter() {
    if (live) ++*destroyed;
  }
};

TEST(Sim, BoxedClosureRunsAndIsDestroyedExactlyOnce) {
  int destroyed = 0;
  int runs = 0;
  {
    Simulator sim;
    std::array<std::uint64_t, 16> payload{};
    payload[15] = 7;
    std::uint64_t seen = 0;
    auto fn = [c = DestroyCounter(&destroyed, &runs), payload, &seen] {
      ++*c.runs;
      seen = payload[15];
    };
    static_assert(!Simulator::stores_inline<decltype(fn)>());
    sim.schedule_after(3, std::move(fn));
    EXPECT_EQ(destroyed, 0);
    // Grow the pool under the boxed record so it moves while pending.
    for (int i = 0; i < 64; ++i) sim.schedule_after(1, [] {});
    sim.run();
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(seen, 7u);
    EXPECT_EQ(destroyed, 1);
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(Sim, InlineClosureRunsAndIsDestroyedExactlyOnce) {
  int destroyed = 0;
  int runs = 0;
  {
    Simulator sim;
    auto fn = [c = DestroyCounter(&destroyed, &runs)] { ++*c.runs; };
    static_assert(Simulator::stores_inline<decltype(fn)>());
    sim.schedule_after(3, std::move(fn));
    for (int i = 0; i < 64; ++i) sim.schedule_after(1, [] {});
    sim.run();
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(destroyed, 1);
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(Sim, EventSchedulingAThousandEventsGrowsThePoolAndKeepsOrder) {
  Simulator sim;
  struct Ran {
    SimTime at;
    int index;
  };
  std::vector<Ran> ran;
  std::vector<SimTime> due(1000);
  sim.schedule_after(10, [&] {
    // Scheduled from inside a running event: the pool grows from one
    // record to a thousand while this closure is executing.
    for (int i = 0; i < 1000; ++i) {
      const SimTime dt = static_cast<SimTime>((i * 7919) % 13);
      due[static_cast<std::size_t>(i)] = sim.now() + dt;
      sim.schedule_after(dt, [&ran, &sim, i] { ran.push_back({sim.now(), i}); });
    }
    EXPECT_EQ(sim.pending_events(), 1000u);
  });
  sim.run();
  ASSERT_EQ(ran.size(), 1000u);
  for (std::size_t k = 0; k < ran.size(); ++k) {
    EXPECT_EQ(ran[k].at, due[static_cast<std::size_t>(ran[k].index)]);
    if (k > 0) {
      // (time, seq) order: later time, or same time and scheduled later.
      const bool ordered =
          ran[k - 1].at < ran[k].at ||
          (ran[k - 1].at == ran[k].at && ran[k - 1].index < ran[k].index);
      EXPECT_TRUE(ordered) << "event " << ran[k].index << " ran after "
                           << ran[k - 1].index;
    }
  }
}

TEST(Sim, PendingClosuresAreReleasedWhenTheSimulatorIsDestroyed) {
  auto shared = std::make_shared<int>(0);
  {
    Simulator sim;
    std::array<char, 96> ballast{};
    for (int i = 0; i < 8; ++i) {
      sim.schedule_after(static_cast<SimTime>(i), [shared] { ++*shared; });
      sim.schedule_after(static_cast<SimTime>(i), [shared, ballast] {
        *shared += ballast[0];
      });
    }
    sim.run(5);  // some ran, the rest stay pending
    EXPECT_EQ(*shared, 3);
    EXPECT_EQ(shared.use_count(), 1 + 16 - 5);
  }
  EXPECT_EQ(shared.use_count(), 1);
}

TEST(Sim, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(1, [&] {
    ++fired;
    sim.schedule_after(1, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 2u);
}

TEST(Sim, StepReturnsFalseWhenIdle) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_after(1, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Sim, RunRespectsMaxEvents) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 5; ++i) sim.schedule_after(i, [&] { ++fired; });
  EXPECT_EQ(sim.run(3), 3u);
  EXPECT_EQ(fired, 3);
}

TEST(Sim, PastEventsClampToNow) {
  Simulator sim;
  sim.schedule_after(100, [] {});
  sim.run();
  bool ran = false;
  sim.schedule_at(5, [&] { ran = true; });  // in the past
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), 100u);
}

TEST(Sim, LatencyModelDistinguishesLocalAndRemote) {
  Simulator sim;
  sim.add_machine("a", arch_vax());
  sim.add_machine("b", arch_sparc());
  LatencyModel model;
  model.local_us = 3;
  model.remote_us = 500;
  sim.set_latency_model(model);
  EXPECT_EQ(sim.message_latency("a", "a"), 3u);
  EXPECT_EQ(sim.message_latency("a", "b"), 500u);
}

TEST(Sim, RemoteJitterBoundedAndDeterministic) {
  LatencyModel model;
  model.remote_us = 100;
  model.remote_jitter_us = 50;
  Simulator sim1(99), sim2(99);
  sim1.set_latency_model(model);
  sim2.set_latency_model(model);
  for (int i = 0; i < 100; ++i) {
    auto l1 = sim1.message_latency("a", "b");
    EXPECT_GE(l1, 100u);
    EXPECT_LE(l1, 150u);
    EXPECT_EQ(l1, sim2.message_latency("a", "b"));
  }
}

TEST(Sim, AdvanceTimeMovesClock) {
  Simulator sim;
  sim.advance_time(42);
  EXPECT_EQ(sim.now(), 42u);
  // An event scheduled before the advance still runs, at the later clock.
  bool ran = false;
  sim.schedule_at(10, [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), 42u);
}

TEST(Arch, ReferenceArchitecturesDiffer) {
  EXPECT_NE(arch_vax().byte_order, arch_sparc().byte_order);
  EXPECT_NE(arch_vax().slot_padding, arch_sparc().slot_padding);
}

TEST(DurableStore, LogsAppendInOrderAndTruncate) {
  DurableStore store;
  EXPECT_TRUE(store.log("wal").empty());
  store.append("wal", {1, 2});
  store.append("wal", {3});
  ASSERT_EQ(store.log("wal").size(), 2u);
  EXPECT_EQ(store.log("wal")[0], (DurableStore::Record{1, 2}));
  EXPECT_EQ(store.log("wal")[1], (DurableStore::Record{3}));
  EXPECT_EQ(store.appends(), 2u);
  EXPECT_EQ(store.bytes_written(), 3u);
  store.truncate("wal");
  EXPECT_TRUE(store.log("wal").empty());
}

TEST(DurableStore, KeyValueAreaWithPrefixScan) {
  DurableStore store;
  EXPECT_EQ(store.get("ckpt/server"), nullptr);
  store.put("ckpt/server", {9});
  store.put("ckpt/filter", {8});
  store.put("other", {7});
  ASSERT_NE(store.get("ckpt/server"), nullptr);
  EXPECT_EQ(*store.get("ckpt/server"), (DurableStore::Record{9}));
  std::vector<std::string> keys = store.keys_with_prefix("ckpt/");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "ckpt/filter");
  EXPECT_EQ(keys[1], "ckpt/server");
  EXPECT_TRUE(store.erase("ckpt/server"));
  EXPECT_FALSE(store.erase("ckpt/server"));
  EXPECT_EQ(store.get("ckpt/server"), nullptr);
  EXPECT_EQ(store.puts(), 3u);
}

TEST(DurableStore, BelongsToTheMachineNotTheProcess) {
  // Each machine has one store; it survives anything short of losing the
  // host, and unknown machines have no disk to write to.
  Simulator sim;
  sim.add_machine("vax", arch_vax());
  sim.add_machine("sparc", arch_sparc());
  sim.durable_store("vax").put("k", {1});
  EXPECT_EQ(sim.durable_store("sparc").get("k"), nullptr);
  ASSERT_NE(sim.durable_store("vax").get("k"), nullptr);
  EXPECT_THROW((void)sim.durable_store("atlantis"), BusError);
}

}  // namespace
}  // namespace surgeon::net
