// kv-lossy-rebuild: a replicated key-value store on lossy links that loses
// a machine mid-run and rebuilds onto a spare.
//
// A closed-loop client runs a PUT/GET mix through the native router to
// four replica groups of two MiniC shard members on three VAX ring
// machines. Reliable delivery is on, and every link drops, duplicates and
// delays copies by decisions drawn from the fault seed. A GroupManager
// with heartbeats watches the groups; once half the operations are acked
// one ring machine is killed, and the manager confirms the loss and
// rebuilds the lost members onto a SPARC spare while the client keeps
// going.
//
// Chosen because it is the only workload where the reliable layer,
// recover's failure detection and replicate's fan-out and rebuild run;
// router polling and simulator scheduling take most of the host time and
// the VM little. The trace and slo taps are bypassed. The operation count
// is fixed per episode because the rate falls and memory grows with run
// length.
#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <string>

#include "cfg/parser.hpp"
#include "chaos/fault.hpp"
#include "common.hpp"
#include "net/arch.hpp"
#include "recover/detector.hpp"
#include "reconfig/scripts.hpp"
#include "replicate/kv.hpp"
#include "replicate/manager.hpp"

namespace perfbench {
namespace {

using namespace surgeon;

/// Client operations per episode at scale 1.
constexpr int kOps = 10'000;
constexpr std::size_t kShards = 4;
constexpr std::size_t kGroupSize = 2;
constexpr const char* kRingMachines[] = {"m0", "m1", "m2"};
constexpr chaos::LinkFaults kFaults{0.02, 0.01, 0.01, 1'000};
/// Virtual-time budgets: a run that overshoots one fails its checks instead
/// of hanging (heartbeats keep the simulator busy forever).
constexpr net::SimTime kEpisodeBudgetUs = 3'600'000'000;
constexpr net::SimTime kRestoreBudgetUs = 10'000'000;

struct Kv {
  explicit Kv(std::uint64_t fault_seed) : injector(fault_seed) {}
  chaos::FaultInjector injector;
  std::unique_ptr<app::Runtime> rt;
  std::unique_ptr<replicate::KvService> service;
  std::unique_ptr<replicate::GroupManager> manager;
  std::map<std::string, std::uint64_t> insns;  // per instance, max seen
};

replicate::KvOptions kv_options(std::uint64_t kv_seed) {
  replicate::KvOptions o;
  o.seed = kv_seed;
  o.shards = kShards;
  o.group_size = kGroupSize;
  o.machines.assign(std::begin(kRingMachines), std::end(kRingMachines));
  return o;
}

/// Records every live module VM's instruction count. Counts only grow, and
/// instance names are never reused, so the per-name maxima sum to the
/// exact total as long as a VM is polled after its last instruction.
void poll_insns(Kv& kv) {
  for (const std::string& name : kv.rt->bus().module_names()) {
    if (vm::Machine* m = kv.rt->machine_of(name)) {
      std::uint64_t& seen = kv.insns[name];
      seen = std::max(seen, m->instructions_executed());
    }
  }
}

std::unique_ptr<Kv> build(std::uint64_t rt_seed, std::uint64_t kv_seed,
                          std::uint64_t fault_seed, int ops, Tracer& tracer,
                          SetupLayers* layers = nullptr) {
  Tracer::Scope root = tracer.open(SpanKind::kSetup);
  auto kv = std::make_unique<Kv>(fault_seed);
  kv->injector.set_default(kFaults);
  kv->rt = std::make_unique<app::Runtime>(rt_seed);
  app::Runtime& rt = *kv->rt;
  const replicate::KvOptions options = kv_options(kv_seed);
  for (const std::string& m : options.machines) {
    rt.add_machine(m, net::arch_vax());
  }
  rt.add_machine("sp0", net::arch_sparc());
  rt.add_machine(options.control_machine, net::arch_vax());
  bus::DeliveryOptions delivery;
  delivery.reliable = true;
  rt.bus().set_delivery(delivery);
  rt.bus().set_control_machine(options.control_machine);
  kv->injector.attach(rt.bus());
  kv->service = std::make_unique<replicate::KvService>(rt, options);
  const std::int64_t t0 = now_ns();
  {
    Tracer::Scope s = tracer.open(SpanKind::kKvLaunch);
    kv->service->launch(ops);
  }
  if (layers != nullptr) {
    layers->launch_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  // Production cadence scaled so detection and rebuild fit the run:
  // heartbeats every 5 ms, confirmed dead after 90 ms of silence.
  replicate::ManagerOptions mopts;
  mopts.heartbeat_interval_us = 5'000;
  mopts.sweep_interval_us = 20'000;
  mopts.detector.suspicion_timeout_us = 30'000;
  mopts.detector.confirm_timeout_us = 60'000;
  mopts.spares = {"sp0"};
  // Rebuild scripts call this at every step boundary: a retired survivor
  // is polled after its last instruction.
  Kv* raw = kv.get();
  mopts.crash_hook = [raw](const char*) { poll_insns(*raw); };
  kv->manager = std::make_unique<replicate::GroupManager>(*kv->service, mopts);
  kv->manager->start();
  return kv;
}

/// The client's operation script replayed from its seed: the value each
/// key must hold once every operation is acked (0 if never written).
std::map<std::int64_t, std::int64_t> reference_state(std::uint64_t kv_seed,
                                                     int ops) {
  std::mt19937_64 rng(kv_seed);
  const auto keys =
      static_cast<std::int64_t>(kShards) * replicate::kSlotsPerShard;
  std::map<std::int64_t, std::int64_t> state;
  for (std::int64_t k = 0; k < keys; ++k) state[k] = 0;
  for (int i = 0; i < ops; ++i) {
    const auto key = static_cast<std::int64_t>(rng() % keys);
    if (rng() % 100 < 60) {
      state[key] = static_cast<std::int64_t>(1 + rng() % 1'000'000);
    }
  }
  return state;
}

}  // namespace

Outcome run_kv_lossy_rebuild(const Options& options, Tracer& tracer) {
  Outcome out;
  const std::uint64_t rt_seed = derive_seed(options.seed, 1);
  const std::uint64_t kv_seed = derive_seed(options.seed, 3);
  const int ops = std::max(8, static_cast<int>(kOps * options.scale));
  // The ring seed fixes the placement, so every episode places alike. The
  // victim is a ring machine that hosts at least one member: killing an
  // empty one would leave nothing to detect or rebuild.
  app::Runtime scratch(rt_seed);
  const replicate::KvService placed(scratch, kv_options(kv_seed));
  std::vector<std::string> hosts;
  for (const auto& group : placed.placements()) {
    hosts.insert(hosts.end(), group.begin(), group.end());
  }
  std::sort(hosts.begin(), hosts.end());
  hosts.erase(std::unique(hosts.begin(), hosts.end()), hosts.end());
  const std::string victim = hosts[derive_seed(options.seed, 4) % hosts.size()];
  const std::map<std::int64_t, std::int64_t> reference =
      reference_state(kv_seed, ops);

  const auto build_plain = [&] {
    return build(rt_seed, kv_seed, options.fault_seed, ops, tracer);
  };

  SetupLayers layers;
  Histogram pending;
  EpisodeValues kept;

  auto episode = [&](bool armed) {
    auto kv = build(rt_seed, kv_seed, options.fault_seed, ops, tracer,
                    armed ? &layers : nullptr);
    app::Runtime& rt = *kv->rt;
    replicate::KvService& service = *kv->service;
    replicate::GroupManager& manager = *kv->manager;
    replicate::KvClient& client = service.client();
    std::uint64_t rounds = 0;
    Histogram* depth = armed ? &pending : nullptr;
    net::SimTime killed_at = 0, confirmed_at = 0;

    const std::int64_t t0 = now_ns();
    bool finished = false, rebuilt = false;
    {
      Tracer::Scope e = tracer.open(SpanKind::kEpisode);
      const auto half = static_cast<std::uint64_t>(ops / 2);
      const auto out_of_time = [&] { return rt.now() >= kEpisodeBudgetUs; };
      (void)drive(rt, tracer, rounds, [&] {
        return client.stats().acked >= half || out_of_time();
      }, depth);
      if (client.stats().acked >= half) {
        poll_insns(*kv);  // the victim's VMs die with their counts
        killed_at = rt.now();
        {
          Tracer::Scope s = tracer.open(SpanKind::kKill);
          (void)rt.crash_machine(victim);
        }
        Tracer::Scope w = tracer.open(SpanKind::kRebuildWait);
        (void)drive(rt, tracer, rounds, [&] {
          if (confirmed_at == 0 &&
              manager.detector().health(victim, rt.now()) ==
                  recover::MachineHealth::kConfirmed) {
            confirmed_at = rt.now();
          }
          return manager.stats().machines_rebuilt >= 1 ||
                 rt.now() >= killed_at + kRestoreBudgetUs;
        }, depth);
        rebuilt = manager.stats().machines_rebuilt >= 1;
      }
      (void)drive(rt, tracer, rounds,
                  [&] { return client.done() || out_of_time(); }, depth);
      finished = client.done();
    }
    const double host_s = static_cast<double>(now_ns() - t0) * 1e-9;
    manager.stop();

    // References: the final read-back must equal both the client's own
    // ledger of acked writes and the state replayed here from the seed.
    const auto& readback = client.readback();
    const auto& ledger = client.acked_writes();
    std::uint64_t bad_keys = 0;
    for (const auto& [key, want] : reference) {
      const auto rb = readback.find(key);
      const auto lg = ledger.find(key);
      const std::int64_t got = rb == readback.end() ? -1 : rb->second;
      const std::int64_t acked = lg == ledger.end() ? 0 : lg->second;
      if (got != want || acked != want) {
        ++bad_keys;
        out.check(false, "kv-lossy-rebuild: key " + std::to_string(key) +
                             " read back " + std::to_string(got) +
                             ", ledger " + std::to_string(acked) +
                             ", reference " + std::to_string(want));
      }
    }
    const std::uint64_t violations = client.ledger_violations().size();
    const std::uint64_t stale = service.router().stats().stale_gets;
    const std::uint64_t lost = manager.stats().data_loss_groups;
    out.check(finished, "kv-lossy-rebuild: client did not finish");
    out.check(rebuilt, "kv-lossy-rebuild: redundancy was never restored");
    out.check(violations == 0, "kv-lossy-rebuild: " +
                                   std::to_string(violations) +
                                   " ledger violations");
    out.check(stale == 0,
              "kv-lossy-rebuild: " + std::to_string(stale) + " stale gets");
    out.check(lost == 0, "kv-lossy-rebuild: " + std::to_string(lost) +
                             " groups lost data");
    out.check(!rt.first_fault(), "kv-lossy-rebuild: a module faulted");
    for (std::size_t g = 0; g < kShards; ++g) {
      out.check(service.router().members(g).size() == kGroupSize,
                "kv-lossy-rebuild: group " + std::to_string(g) +
                    " is not at full strength");
    }
    // The client's script: the ops, then a read-back GET of every key.
    const std::uint64_t script =
        static_cast<std::uint64_t>(ops) + reference.size();
    out.attempted += script;
    std::uint64_t failed = violations + bad_keys;
    if (!finished || !rebuilt || stale != 0 || lost != 0) failed = script;
    out.failed += std::min(failed, script);

    net::SimTime restored_at = 0, requested_at = 0;
    for (const auto& r : manager.rebuilds()) {
      restored_at = std::max(restored_at, r.restored_at);
      if (requested_at == 0 || r.requested_at < requested_at) {
        requested_at = r.requested_at;
      }
    }
    // The sweep that acts on the verdict can be the first round to see it.
    if (confirmed_at == 0 ||
        (requested_at != 0 && requested_at < confirmed_at)) {
      confirmed_at = requested_at;
    }
    poll_insns(*kv);
    std::uint64_t insns = 0;
    for (const auto& [name, count] : kv->insns) insns += count;
    const bus::ReliableStats& rs = rt.bus().reliable_stats();
    const double msgs = static_cast<double>(rt.bus().stats().messages_sent);
    const double n = static_cast<double>(client.stats().acked);
    std::vector<double> latency_us;
    for (const auto& s : service.router().latencies()) {
      latency_us.push_back(static_cast<double>(s.latency_us));
    }
    keep_first(
        out, kept,
        {{"episode.requests", n},
         {"vm.insns_per_req", static_cast<double>(insns) / n},
         {"app.rounds_per_req", static_cast<double>(rounds) / n},
         {"bus.msgs_per_req", msgs / n},
         {"bus.delivered_per_req",
          static_cast<double>(rt.bus().stats().messages_delivered) / n},
         {"bus.reliable.tx_per_msg",
          static_cast<double>(rs.transmissions) / msgs},
         {"bus.reliable.retransmits_per_msg",
          static_cast<double>(rs.retransmits) / msgs},
         {"bus.reliable.dup_discards", static_cast<double>(rs.dup_discards)},
         {"bus.reliable.gave_up", static_cast<double>(rs.gave_up)},
         {"replicate.refans_per_op",
          static_cast<double>(service.router().stats().refans) / n},
         {"replicate.late_replies_per_op",
          static_cast<double>(service.router().stats().late_replies) / n},
         {"recover.confirm_ms",
          static_cast<double>(confirmed_at - killed_at) * 1e-3},
         {"replicate.rebuild_ms",
          static_cast<double>(restored_at - confirmed_at) * 1e-3},
         {"e2e.restore_ms",
          static_cast<double>(restored_at - killed_at) * 1e-3},
         {"e2e.latency_p50_ms", quantile(latency_us, 0.5) * 1e-3},
         {"e2e.latency_p999_ms", quantile(latency_us, 0.999) * 1e-3},
         {"e2e.latency_samples", static_cast<double>(latency_us.size())},
         {"_virtual_end_us", static_cast<double>(rt.now())}},
        "kv-lossy-rebuild");
    return n / host_s;
  };

  Rates rates;
  run_episodes(options, tracer, build_plain, episode, rates);
  add_end_to_end(out, rates);

  add_episode_values(out, kept);
  if (options.trace) {
    // The shard application as KvService::launch loads it.
    const std::string config = replicate::kv_config_text(placed.placements());
    const std::string shard = replicate::kv_shard_source(kShards);
    const auto shard_source = [&](const cfg::ModuleSpec&) { return shard; };
    for (int i = 0; i < kLayerReps; ++i) {
      time_layer_calls(config, "kv", shard_source, tracer, layers);
      // launch() loads the shard application through load_application;
      // time that call alone on the same machines.
      app::Runtime rt(rt_seed);
      for (const char* m : kRingMachines) rt.add_machine(m, net::arch_vax());
      const cfg::ConfigFile parsed = cfg::parse_config(config);
      const std::int64_t t0 = now_ns();
      rt.load_application(parsed, "kv", shard_source);
      layers.load_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
    add_common_layers(out, rates, layers, tracer,
                      static_cast<std::uint64_t>(kept["episode.requests"]) *
                          rates.traced.size());
    out.per_layer["net.pending_events_p50"] = pending.quantile(0.5);
    out.per_layer["net.pending_events_max"] = pending.max();
  }
  return out;
}

}  // namespace perfbench
