// surgeon::chaos -- fault injection, reliable-delivery semantics, and the
// randomized reconfiguration-under-faults sweeps.
//
// The sweeps at the bottom run 215 seeded replacement scenarios (counter,
// pipeline, monitor, and crash-the-clone mixes) plus the same 215 seeds
// again as kv machine-loss scenarios (kill a replica-group machine under
// link faults, require the acked-write ledger to hold while the
// GroupManager rebuilds -- invariant 7). Every failure message starts with
// the scenario's describe() line, seed first: reconstructing the spec with
// random_scenario(seed) / random_kv_scenario(seed) plus the sweep's forced
// fields replays the run exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "app/runtime.hpp"
#include "app/samples.hpp"
#include "bus/bus.hpp"
#include "cfg/parser.hpp"
#include "chaos/fault.hpp"
#include "chaos/scenario.hpp"
#include "net/arch.hpp"
#include "reconfig/scripts.hpp"

namespace surgeon {
namespace {

// --- FaultInjector ---------------------------------------------------------

bool same_decision(const bus::FaultDecision& x, const bus::FaultDecision& y) {
  return x.drop == y.drop && x.duplicate == y.duplicate &&
         x.extra_delay_us == y.extra_delay_us &&
         x.duplicate_delay_us == y.duplicate_delay_us;
}

TEST(FaultInjector, SameSeedSameSchedule) {
  chaos::LinkFaults faults{.drop = 0.1, .duplicate = 0.1, .delay = 0.2,
                           .jitter_us = 1000};
  chaos::FaultInjector a(42);
  chaos::FaultInjector b(42);
  chaos::FaultInjector c(43);
  a.set_default(faults);
  b.set_default(faults);
  c.set_default(faults);
  bool diverged_from_c = false;
  for (int i = 0; i < 2000; ++i) {
    bus::FaultDecision da = a.decide("vax", "sparc");
    bus::FaultDecision db = b.decide("vax", "sparc");
    ASSERT_TRUE(same_decision(da, db)) << "decision " << i;
    if (!same_decision(da, c.decide("vax", "sparc"))) diverged_from_c = true;
  }
  EXPECT_TRUE(diverged_from_c);
  EXPECT_EQ(a.stats().decisions, 2000u);
  EXPECT_EQ(a.stats().drops, b.stats().drops);
  EXPECT_GT(a.stats().drops, 0u);
  EXPECT_GT(a.stats().duplicates, 0u);
  EXPECT_GT(a.stats().delays, 0u);
}

TEST(FaultInjector, PerLinkOverrideBeatsDefault) {
  chaos::FaultInjector inj(7);
  inj.set_default(chaos::LinkFaults{.drop = 1.0});
  inj.set_link("vax", "vax", chaos::LinkFaults{});  // loopback is perfect
  EXPECT_TRUE(inj.decide("vax", "sparc").drop);
  EXPECT_FALSE(inj.decide("vax", "vax").drop);
}

TEST(FaultInjector, PartitionDropsEverythingUntilHeal) {
  net::Simulator sim;
  sim.add_machine("vax", net::arch_vax());
  sim.add_machine("sparc", net::arch_sparc());
  bus::Bus bus(sim);
  chaos::FaultInjector inj(1);
  inj.add_partition(chaos::Partition{"vax", "sparc", 0, 5'000});
  inj.attach(bus);
  EXPECT_TRUE(inj.decide("vax", "sparc").drop);
  EXPECT_TRUE(inj.decide("sparc", "vax").drop);
  EXPECT_FALSE(inj.decide("vax", "vax").drop);  // partition is pairwise
  sim.schedule_at(6'000, [] {});
  sim.run();
  EXPECT_FALSE(inj.decide("vax", "sparc").drop);  // healed
  EXPECT_EQ(inj.stats().partition_drops, 2u);
}

TEST(FaultInjector, IsolationCutsOneMachineOff) {
  chaos::FaultInjector inj(1);
  inj.isolate("sparc", 0);
  EXPECT_TRUE(inj.decide("vax", "sparc").drop);
  EXPECT_TRUE(inj.decide("sparc", "mips").drop);
  EXPECT_FALSE(inj.decide("vax", "mips").drop);
}

// --- reliable delivery at the bus level ------------------------------------

class ReliableBusTest : public ::testing::Test {
 protected:
  ReliableBusTest() : bus_(sim_) {
    sim_.add_machine("vax", net::arch_vax());
    sim_.add_machine("sparc", net::arch_sparc());
    net::LatencyModel model;
    model.local_us = 10;
    model.remote_us = 1000;
    sim_.set_latency_model(model);
    bus_.set_delivery(bus::DeliveryOptions{.reliable = true});
  }

  bus::ModuleInfo make_module(const std::string& name,
                              const std::string& machine) {
    bus::ModuleInfo info;
    info.name = name;
    info.machine = machine;
    info.interfaces = {
        bus::InterfaceSpec{"in", bus::IfaceRole::kUse, "i", ""},
        bus::InterfaceSpec{"out", bus::IfaceRole::kDefine, "i", ""},
    };
    return info;
  }

  void add_pair() {
    bus_.add_module(make_module("a", "vax"));
    bus_.add_module(make_module("b", "sparc"));
    bus_.add_binding({"a", "out"}, {"b", "in"});
  }

  std::vector<std::int64_t> drain_b() {
    std::vector<std::int64_t> got;
    while (auto msg = bus_.receive("b", "in")) {
      got.push_back(msg->values[0].as_int());
    }
    return got;
  }

  net::Simulator sim_;
  bus::Bus bus_;
};

TEST_F(ReliableBusTest, DropForcesRetransmission) {
  add_pair();
  int copies = 0;
  bus_.set_fault_hook([&copies](const std::string& src, const std::string&) {
    // Drop the first two wire copies leaving vax; the third gets through.
    if (src == "vax" && ++copies <= 2) return bus::FaultDecision{.drop = true};
    return bus::FaultDecision{};
  });
  bus_.send("a", "out", {ser::Value(std::int64_t{5})});
  sim_.run();
  EXPECT_EQ(drain_b(), (std::vector<std::int64_t>{5}));
  const bus::ReliableStats& rs = bus_.reliable_stats();
  EXPECT_EQ(rs.chaos_drops, 2u);
  EXPECT_GE(rs.retransmits, 2u);
  EXPECT_GE(rs.acks_delivered, 1u);
  EXPECT_EQ(bus_.unacked_total(), 0u);  // acked after the surviving copy
}

TEST_F(ReliableBusTest, DuplicatesAreDiscardedOnReceive) {
  add_pair();
  bus_.set_fault_hook([](const std::string& src, const std::string&) {
    if (src == "vax") {
      return bus::FaultDecision{.duplicate = true, .duplicate_delay_us = 50};
    }
    return bus::FaultDecision{};
  });
  for (std::int64_t i = 1; i <= 3; ++i) {
    bus_.send("a", "out", {ser::Value(i)});
  }
  sim_.run();
  EXPECT_EQ(drain_b(), (std::vector<std::int64_t>{1, 2, 3}));
  EXPECT_GE(bus_.reliable_stats().dup_discards, 3u);
  EXPECT_EQ(bus_.unacked_total(), 0u);
}

TEST_F(ReliableBusTest, ReorderedCopiesAreBufferedAndFlushedInOrder) {
  add_pair();
  bool first = true;
  bus_.set_fault_hook([&first](const std::string& src, const std::string&) {
    if (src == "vax" && first) {
      first = false;  // hold the first message back past the second
      return bus::FaultDecision{.extra_delay_us = 5'000};
    }
    return bus::FaultDecision{};
  });
  bus_.send("a", "out", {ser::Value(std::int64_t{1})});
  bus_.send("a", "out", {ser::Value(std::int64_t{2})});
  sim_.run();
  EXPECT_EQ(drain_b(), (std::vector<std::int64_t>{1, 2}));
  EXPECT_GE(bus_.reliable_stats().ooo_buffered, 1u);
  EXPECT_EQ(bus_.ooo_total(), 0u);  // flushed once the gap filled
}

TEST_F(ReliableBusTest, WideFanOutWaitsForEveryPeersAck) {
  // Six peers: more acks than a message's inline ack set holds.
  bus_.add_module(make_module("a", "vax"));
  for (int i = 0; i < 6; ++i) {
    const std::string name = "b" + std::to_string(i);
    bus_.add_module(make_module(name, "sparc"));
    bus_.add_binding({"a", "out"}, {name, "in"});
  }
  int copies = 0;
  bus_.set_fault_hook([&copies](const std::string& src, const std::string&) {
    // Drop the sixth wire copy, the one toward the last peer.
    if (src == "vax" && ++copies == 6) return bus::FaultDecision{.drop = true};
    return bus::FaultDecision{};
  });
  bus_.send("a", "out", {ser::Value(std::int64_t{4})});
  sim_.run();
  for (int i = 0; i < 6; ++i) {
    const std::string name = "b" + std::to_string(i);
    auto msg = bus_.receive(name, "in");
    ASSERT_TRUE(msg.has_value()) << name;
    EXPECT_FALSE(bus_.receive(name, "in").has_value()) << name;
  }
  const bus::ReliableStats& rs = bus_.reliable_stats();
  // One retransmission, to the one peer that had not acked.
  EXPECT_EQ(rs.retransmits, 1u);
  EXPECT_EQ(rs.transmissions, 7u);
  EXPECT_EQ(rs.acks_delivered, 6u);
  EXPECT_EQ(bus_.unacked_total(), 0u);
}

TEST_F(ReliableBusTest, AcksOutOfOrderSettleTheWindow) {
  add_pair();
  bool first_ack = true;
  bus_.set_fault_hook([&first_ack](const std::string& src, const std::string&) {
    if (src == "sparc" && first_ack) {
      first_ack = false;  // seq 0's ack lands after seq 1's and 2's
      return bus::FaultDecision{.extra_delay_us = 3'000};
    }
    return bus::FaultDecision{};
  });
  for (std::int64_t i = 1; i <= 3; ++i) {
    bus_.send("a", "out", {ser::Value(i)});
  }
  EXPECT_EQ(bus_.unacked_total(), 3u);
  EXPECT_EQ(sim_.run(5), 5u);  // three deliveries, then seq 1's and 2's acks
  EXPECT_EQ(sim_.now(), 2'000u);
  EXPECT_EQ(bus_.unacked_total(), 1u);  // seq 0 still waits, 1 and 2 settled
  sim_.run();
  EXPECT_EQ(drain_b(), (std::vector<std::int64_t>{1, 2, 3}));
  EXPECT_EQ(bus_.reliable_stats().retransmits, 0u);
  EXPECT_EQ(bus_.reliable_stats().acks_delivered, 3u);
  EXPECT_EQ(bus_.unacked_total(), 0u);
  // The stream carries on past the settled window.
  bus_.send("a", "out", {ser::Value(std::int64_t{4})});
  sim_.run();
  EXPECT_EQ(drain_b(), (std::vector<std::int64_t>{4}));
  EXPECT_EQ(bus_.unacked_total(), 0u);
}

TEST_F(ReliableBusTest, GivesUpAfterMaxAttempts) {
  bus_.set_delivery(bus::DeliveryOptions{.reliable = true, .max_attempts = 3});
  add_pair();
  bus_.set_fault_hook([](const std::string& src, const std::string&) {
    return bus::FaultDecision{.drop = src == "vax"};
  });
  bus_.send("a", "out", {ser::Value(std::int64_t{9})});
  sim_.run();
  EXPECT_EQ(drain_b(), (std::vector<std::int64_t>{}));
  EXPECT_EQ(bus_.reliable_stats().gave_up, 1u);
  EXPECT_EQ(bus_.unacked_total(), 0u);  // abandoned, not leaked
}

TEST_F(ReliableBusTest, FireAndForgetLosesDroppedMessages) {
  bus_.set_delivery(bus::DeliveryOptions{});  // the pre-chaos default
  add_pair();
  bus_.set_fault_hook([](const std::string& src, const std::string&) {
    return bus::FaultDecision{.drop = src == "vax"};
  });
  bus_.send("a", "out", {ser::Value(std::int64_t{5})});
  sim_.run();
  // No retry layer: the message is simply gone. This is the baseline the
  // reliable mode exists to fix.
  EXPECT_EQ(drain_b(), (std::vector<std::int64_t>{}));
  EXPECT_EQ(bus_.reliable_stats().retransmits, 0u);
}

// --- crash injection at the runtime level ----------------------------------

class CrashTest : public ::testing::Test {
 protected:
  CrashTest() : rt_(3) {
    rt_.add_machine("vax", net::arch_vax());
    rt_.add_machine("sparc", net::arch_sparc());
    cfg::ConfigFile config =
        cfg::parse_config(app::samples::counter_config_text());
    rt_.load_application(config, "counter", [](const cfg::ModuleSpec& spec) {
      return spec.name == "client" ? app::samples::counter_client_source(6)
                                   : app::samples::counter_server_source();
    });
  }

  app::Runtime rt_;
};

TEST_F(CrashTest, CrashModuleStopsTheProcessButKeepsTheRegistration) {
  ASSERT_TRUE(rt_.run_until(
      [this] { return !rt_.machine_of("client")->output().empty(); },
      1'000'000));
  rt_.crash_module("server", "test crash");
  EXPECT_TRUE(rt_.module_crashed("server"));
  EXPECT_FALSE(rt_.module_running("server"));
  // POLYLITH semantics: the process died, the bus registration did not.
  EXPECT_TRUE(rt_.bus().has_module("server"));
  EXPECT_THROW(rt_.crash_module("nosuch"), support::BusError);
}

TEST_F(CrashTest, CrashAfterFiresOnTheInstructionBudget) {
  rt_.crash_after("server", 0);  // dies at its next scheduling point
  rt_.run_until([this] { return rt_.module_crashed("server"); }, 1'000'000);
  EXPECT_TRUE(rt_.module_crashed("server"));
}

TEST_F(CrashTest, RestartAfterCrashRunsAFreshProcess) {
  rt_.crash_module("server");
  ASSERT_TRUE(rt_.module_crashed("server"));
  rt_.restart_module("server");
  EXPECT_FALSE(rt_.module_crashed("server"));
  EXPECT_TRUE(rt_.module_running("server"));
}

TEST_F(CrashTest, ScheduledRestartReturnsOnTheVirtualClock) {
  rt_.crash_after("server", 0, /*restart_after_us=*/50'000);
  rt_.run_until([this] { return rt_.module_crashed("server"); }, 1'000'000);
  net::SimTime crashed_at = rt_.now();
  rt_.run_until([this] { return rt_.module_running("server"); }, 1'000'000);
  EXPECT_TRUE(rt_.module_running("server"));
  EXPECT_GE(rt_.now(), crashed_at + 50'000);
}

// --- directed scenarios ----------------------------------------------------

TEST(ChaosScenario, ScenariosAreReproducibleFromTheirSeed) {
  chaos::ScenarioSpec spec = chaos::random_scenario(12345);
  chaos::ScenarioResult first = chaos::run_scenario(spec);
  chaos::ScenarioResult second = chaos::run_scenario(spec);
  ASSERT_TRUE(first.ok()) << first.failure;
  EXPECT_EQ(first.output, second.output);
  EXPECT_EQ(first.replaced, second.replaced);
  EXPECT_EQ(first.attempts, second.attempts);
  EXPECT_EQ(first.rstats.retransmits, second.rstats.retransmits);
  EXPECT_EQ(first.fstats.drops, second.fstats.drops);
}

// ISSUE acceptance: Figure 5 completes under 10% drop plus a mid-replacement
// crash of the clone -- the script's retry path installs a second clone from
// the same state capture.
TEST(ChaosScenario, ReplacementSurvivesTenPercentDropAndCloneCrash) {
  chaos::ScenarioSpec spec;
  spec.seed = 77;
  spec.app = chaos::SampleApp::kCounter;
  spec.work_items = 10;
  spec.faults = chaos::LinkFaults{.drop = 0.10, .jitter_us = 2'000};
  spec.crash_clone = true;
  spec.replace_after_outputs = 2;
  spec.target_machine = "sparc";
  chaos::ScenarioResult r = chaos::run_scenario(spec);
  EXPECT_TRUE(r.ok()) << r.failure << "\n  replay: " << spec.describe();
  EXPECT_TRUE(r.replaced) << r.abort_reason;
  EXPECT_GE(r.attempts, 2);  // the crash consumed the first attempt
  EXPECT_EQ(r.output, r.golden);
}

// A partition that never heals stops the control plane cold: the script must
// abort and roll back, and the application must keep serving on the old
// instance with output identical to the fault-free run.
TEST(ChaosScenario, AbortOnDeadControlPlaneLeavesApplicationServing) {
  chaos::ScenarioSpec spec;
  spec.seed = 5;
  spec.app = chaos::SampleApp::kCounter;
  spec.work_items = 8;
  spec.partitions.push_back(chaos::Partition{"vax", "sparc", 0});
  spec.divulge_timeout_us = 2'000'000;
  chaos::ScenarioResult r = chaos::run_scenario(spec);
  EXPECT_TRUE(r.ok()) << r.failure << "\n  replay: " << spec.describe();
  EXPECT_FALSE(r.replaced);
  EXPECT_FALSE(r.abort_reason.empty());
  EXPECT_EQ(r.output, r.golden);  // the abort was invisible to clients
}

// --- kv machine-loss scenarios ----------------------------------------------

// Acceptance: a replica-group machine dies mid-workload, the GroupManager
// rebuilds onto a spare, and the client never notices -- no acked write
// lost, no stale read, output equal to the kill-free golden run.
TEST(ChaosScenario, KvMachineKillHealsWithLedgerIntact) {
  chaos::ScenarioSpec spec;
  spec.seed = 31;
  spec.app = chaos::SampleApp::kKv;
  spec.work_items = 40;
  spec.kv_shards = 3;
  spec.kv_group_size = 2;
  spec.kv_machines = 3;
  spec.kv_spares = 1;
  spec.kv_kill_machine = 0;
  spec.kv_kill_at_us = 20'000;
  chaos::ScenarioResult r = chaos::run_scenario(spec);
  EXPECT_TRUE(r.ok()) << r.failure << "\n  replay: " << spec.describe();
  EXPECT_TRUE(r.replaced);  // redundancy was actually rebuilt
  EXPECT_EQ(r.output, r.golden);
  EXPECT_GT(r.hb_events, 0u);  // invariant 5 ran, not skipped
}

// The failing-seed artifact line must say which machine died and when.
TEST(ChaosScenario, KvDescribeNamesTheKilledMachine) {
  chaos::ScenarioSpec spec = chaos::random_kv_scenario(9);
  const std::string line = spec.describe();
  EXPECT_NE(line.find("app=kv"), std::string::npos) << line;
  EXPECT_NE(line.find("kill=m" + std::to_string(spec.kv_kill_machine) + "@"),
            std::string::npos)
      << line;
}

TEST(ChaosScenario, KvScenariosAreReproducibleFromTheirSeed) {
  chaos::ScenarioSpec spec = chaos::random_kv_scenario(4242);
  chaos::ScenarioResult first = chaos::run_scenario(spec);
  chaos::ScenarioResult second = chaos::run_scenario(spec);
  ASSERT_TRUE(first.ok()) << first.failure << "\n  replay: " << spec.describe();
  EXPECT_EQ(first.output, second.output);
  EXPECT_EQ(first.replaced, second.replaced);
  EXPECT_EQ(first.fstats.drops, second.fstats.drops);
}

// --- randomized sweeps (215 seeded scenarios) -------------------------------

class CounterSweep : public ::testing::TestWithParam<std::uint64_t> {};
class PipelineSweep : public ::testing::TestWithParam<std::uint64_t> {};
class MonitorSweep : public ::testing::TestWithParam<std::uint64_t> {};
class CrashSweep : public ::testing::TestWithParam<std::uint64_t> {};
class KvSweep : public ::testing::TestWithParam<std::uint64_t> {};

void run_sweep_case(chaos::ScenarioSpec spec) {
  chaos::ScenarioResult r = chaos::run_scenario(spec);
  ASSERT_TRUE(r.ok()) << r.failure << "\n  replay: " << spec.describe();
  // Every scenario either completed the replacement or aborted cleanly with
  // a reason; either way the app finished and all four invariants held.
  EXPECT_TRUE(r.replaced || !r.abort_reason.empty());
}

TEST_P(CounterSweep, Invariants) {
  chaos::ScenarioSpec spec = chaos::random_scenario(GetParam());
  spec.app = chaos::SampleApp::kCounter;
  run_sweep_case(spec);
}

TEST_P(PipelineSweep, Invariants) {
  chaos::ScenarioSpec spec = chaos::random_scenario(GetParam());
  spec.app = chaos::SampleApp::kPipeline;
  run_sweep_case(spec);
}

TEST_P(MonitorSweep, Invariants) {
  chaos::ScenarioSpec spec = chaos::random_scenario(GetParam());
  spec.app = chaos::SampleApp::kMonitor;
  run_sweep_case(spec);
}

TEST_P(CrashSweep, Invariants) {
  chaos::ScenarioSpec spec = chaos::random_scenario(GetParam());
  spec.crash_clone = true;
  run_sweep_case(spec);
}

// The machine-loss analogue of run_sweep_case: a kv scenario has no abort
// path -- the service must finish and every invariant (7 included) must
// hold whether or not the kill landed mid-workload.
TEST_P(KvSweep, Invariant7AcrossMachineLoss) {
  chaos::ScenarioSpec spec = chaos::random_kv_scenario(GetParam());
  chaos::ScenarioResult r = chaos::run_scenario(spec);
  ASSERT_TRUE(r.ok()) << r.failure << "\n  replay: " << spec.describe();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CounterSweep,
                         ::testing::Range<std::uint64_t>(1, 101));
INSTANTIATE_TEST_SUITE_P(Seeds, PipelineSweep,
                         ::testing::Range<std::uint64_t>(101, 151));
INSTANTIATE_TEST_SUITE_P(Seeds, MonitorSweep,
                         ::testing::Range<std::uint64_t>(151, 191));
INSTANTIATE_TEST_SUITE_P(Seeds, CrashSweep,
                         ::testing::Range<std::uint64_t>(191, 216));
INSTANTIATE_TEST_SUITE_P(Seeds, KvSweep,
                         ::testing::Range<std::uint64_t>(1, 216));

}  // namespace
}  // namespace surgeon
