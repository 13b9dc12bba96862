// pipeline-diurnal: an open-loop day of traffic through a two-stage
// pipeline, with the filter replaced several times while it serves.
//
// A benchmark-owned source on the VAX emits requests on a schedule the
// benchmark draws from the seed: a raised-cosine day, quiet at midnight
// and four times busier at midday, one simulator event per arrival. The
// filter (VAX) forwards each request to a quiet sink on the SPARC, a
// cross-architecture remote hop with seeded latency jitter. Causal tracing
// and request tagging are on and an slo::RequestTracker observes every
// completion; an instruction cost makes the filter's service time matter
// at the peak. Figure-5 replace_module calls fire on the filter at fixed
// virtual instants, one of them at midday.
//
// Chosen because the trace and slo taps, the simulator event queue and
// reconfig do most of the host work here, while the VM does little, and
// the bus runs one-way remote sends instead of counter-rpc's local
// request/reply. Reliable delivery and replicate are bypassed.
#include <cmath>
#include <cstring>
#include <memory>
#include <random>
#include <string>

#include "app/samples.hpp"
#include "bus/client.hpp"
#include "cfg/parser.hpp"
#include "common.hpp"
#include "net/arch.hpp"
#include "reconfig/scripts.hpp"
#include "slo/request.hpp"

namespace perfbench {
namespace {

using namespace surgeon;

/// Requests per virtual day at scale 1.
constexpr double kRequests = 60'000;
constexpr net::SimTime kDayUs = 600'000'000;  // ten virtual minutes
constexpr net::SimTime kTickUs = 100'000;
constexpr double kPeakToTrough = 4.0;
/// Virtual time charged per VM instruction: the filter's service time at
/// the midday peak takes a large share of the inter-arrival gap.
constexpr std::uint64_t kInsnCostNs = 100'000;
constexpr net::SimTime kRemoteJitterUs = 400;
/// Replacements at day offsets k/(kReplacements+1); the middle one is
/// midday.
constexpr int kReplacements = 5;

/// Arrival offsets from the start of the day, ascending. Expected count per
/// tick follows the rate curve; stochastic rounding keeps the total
/// unbiased and jittered offsets spread a tick's arrivals.
std::vector<net::SimTime> arrival_schedule(std::uint64_t seed,
                                          double requests) {
  std::mt19937_64 rng(seed);
  const auto uniform = [&rng] {
    return static_cast<double>(rng() >> 11) * 0x1p-53;
  };
  const double mean_weight = 1.0 + (kPeakToTrough - 1.0) * 0.5;
  const double base = requests / static_cast<double>(kDayUs);
  std::vector<net::SimTime> out;
  for (net::SimTime t = 0; t < kDayUs; t += kTickUs) {
    const double phase = 2.0 * M_PI * static_cast<double>(t) /
                         static_cast<double>(kDayUs);
    const double weight =
        1.0 + (kPeakToTrough - 1.0) * 0.5 * (1.0 - std::cos(phase));
    const double expected =
        base * weight / mean_weight * static_cast<double>(kTickUs);
    auto n = static_cast<std::uint64_t>(expected);
    if (expected - static_cast<double>(n) > uniform()) ++n;
    for (std::uint64_t j = 0; j < n; ++j) {
      const double frac =
          (static_cast<double>(j) + uniform()) / static_cast<double>(n);
      out.push_back(t + static_cast<net::SimTime>(
                            frac * static_cast<double>(kTickUs)));
    }
  }
  return out;
}

/// A native bus module that sends one request per scheduled arrival on
/// its "out" interface. Each tick schedules that tick's arrivals, so the
/// simulator queue holds about one tick of traffic, not the whole day.
class Source {
 public:
  Source(app::Runtime& rt, const std::vector<net::SimTime>& schedule,
         Tracer& tracer)
      : rt_(&rt), schedule_(&schedule), tracer_(&tracer),
        client_(rt.bus(), kModule) {
    bus::ModuleInfo info;
    info.name = kModule;
    info.machine = "vax";
    info.source = "builtin:perfbench-source";
    info.interfaces.push_back(
        bus::InterfaceSpec{"out", bus::IfaceRole::kDefine, "", ""});
    rt.bus().add_module(std::move(info));
    rt.bus().add_binding(bus::BindingEnd{kModule, "out"},
                         bus::BindingEnd{"filter", "in"});
    rt.bus().set_request_entry(kModule, "out");
  }

  void start() {
    start_ = rt_->now();
    tick(0);
  }
  [[nodiscard]] std::uint64_t sent() const { return sent_; }
  [[nodiscard]] bool done() const { return sent_ == schedule_->size(); }
  [[nodiscard]] net::SimTime start_time() const { return start_; }
  [[nodiscard]] const std::vector<double>& send_ns() const {
    return send_ns_;
  }

 private:
  static constexpr const char* kModule = "source";

  void tick(net::SimTime t) {
    const net::SimTime end = t + kTickUs;
    while (next_ < schedule_->size() && (*schedule_)[next_] < end) {
      rt_->simulator().schedule_at(start_ + (*schedule_)[next_],
                                   [this] { send(); });
      ++next_;
    }
    if (next_ < schedule_->size()) {
      rt_->simulator().schedule_at(start_ + end, [this, end] { tick(end); });
    }
  }

  void send() {
    ++sent_;
    // The bus mints request ids in send order, so the span's id is the
    // id the trace events of this request carry.
    Tracer::Scope s = tracer_->open(SpanKind::kSend, sent_);
    if (tracer_->armed()) {
      const std::int64_t t0 = now_ns();
      client_.write("out", {ser::Value{static_cast<std::int64_t>(sent_)}});
      send_ns_.push_back(static_cast<double>(now_ns() - t0));
    } else {
      client_.write("out", {ser::Value{static_cast<std::int64_t>(sent_)}});
    }
  }

  app::Runtime* rt_;
  const std::vector<net::SimTime>* schedule_;
  Tracer* tracer_;
  bus::Client client_;
  std::size_t next_ = 0;
  std::uint64_t sent_ = 0;
  net::SimTime start_ = 0;
  std::vector<double> send_ns_;
};

app::Runtime::SourceProvider sources() {
  return [](const cfg::ModuleSpec& spec) {
    return spec.name == "filter" ? app::samples::pipeline_filter_source()
                                 : app::samples::pipeline_quiet_sink_source();
  };
}

/// One built pipeline. Members die in reverse order: the source, then the
/// runtime (whose recorder calls the tracker), then the tracker.
struct Pipeline {
  slo::RequestTracker tracker;
  std::vector<double> latency_us;
  std::uint64_t incomplete = 0;
  std::unique_ptr<app::Runtime> rt;
  std::unique_ptr<Source> source;
};

std::unique_ptr<Pipeline> build(std::uint64_t seed,
                                const std::vector<net::SimTime>& schedule,
                                Tracer& tracer, SetupLayers* layers = nullptr) {
  Tracer::Scope root = tracer.open(SpanKind::kSetup);
  auto p = std::make_unique<Pipeline>();
  p->rt = std::make_unique<app::Runtime>(seed);
  app::Runtime& rt = *p->rt;
  rt.add_machine("vax", net::arch_vax());
  rt.add_machine("sparc", net::arch_sparc());
  net::LatencyModel latency = rt.simulator().latency_model();
  latency.remote_jitter_us = kRemoteJitterUs;
  rt.simulator().set_latency_model(latency);
  rt.set_instruction_cost_ns(kInsnCostNs);
  cfg::ConfigFile config;
  {
    Tracer::Scope s = tracer.open(SpanKind::kCfgParse);
    config = cfg::parse_config(app::samples::pipeline_open_config_text());
  }
  const std::int64_t t0 = now_ns();
  {
    Tracer::Scope s = tracer.open(SpanKind::kAppLoad);
    rt.load_application(config, "pipeline", sources());
  }
  if (layers != nullptr) {
    layers->load_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  rt.enable_causal_tracing();
  p->source = std::make_unique<Source>(rt, schedule, tracer);
  rt.bus().set_request_terminal("sink", "in");
  Pipeline* raw = p.get();
  rt.tracer().add_observer([raw, &tracer](const trace::Event& ev) {
    Tracer::Scope s = tracer.open(SpanKind::kObserve, ev.request);
    raw->tracker.observe(ev);
    for (const slo::Completion& c : raw->tracker.drain()) {
      raw->latency_us.push_back(static_cast<double>(c.latency_us));
      if (!c.complete) ++raw->incomplete;
    }
  });
  return p;
}

std::uint64_t insns_of(app::Runtime& rt, const std::string& instance) {
  vm::Machine* m = rt.machine_of(instance);
  return m == nullptr ? 0 : m->instructions_executed();
}

}  // namespace

Outcome run_pipeline_diurnal(const Options& options, Tracer& tracer) {
  Outcome out;
  const std::uint64_t rt_seed = derive_seed(options.seed, 1);
  const std::vector<net::SimTime> schedule = arrival_schedule(
      derive_seed(options.seed, 2), std::max(1.0, kRequests * options.scale));

  const auto build_plain = [&] { return build(rt_seed, schedule, tracer); };

  SetupLayers layers;
  std::vector<double> send_ns, replace_host_ms;
  Histogram pending;
  EpisodeValues kept;

  auto episode = [&](bool armed) {
    auto p = build(rt_seed, schedule, tracer, armed ? &layers : nullptr);
    app::Runtime& rt = *p->rt;
    Source& source = *p->source;
    std::string filter = "filter";
    std::uint64_t retired_insns = 0;
    std::vector<reconfig::ReplaceReport> reports;
    std::uint64_t rounds = 0;

    const std::int64_t t0 = now_ns();
    bool finished;
    {
      Tracer::Scope e = tracer.open(SpanKind::kEpisode);
      source.start();
      const auto replace_due = [&] {
        const auto k = static_cast<net::SimTime>(reports.size() + 1);
        return source.start_time() + kDayUs * k / (kReplacements + 1);
      };
      finished = drive(
          rt, tracer, rounds,
          [&] {
            if (reports.size() < kReplacements && rt.now() >= replace_due()) {
              const std::int64_t seen_before = global_int(rt, filter, "seen");
              reconfig::ReplaceOptions ro;
              const std::string old = filter;
              ro.crash_hook = [&](const char* step) {
                // The old instance divulged before this step and runs no
                // further instruction; count it before it is deleted.
                if (std::strcmp(step, reconfig::kStepDel) == 0) {
                  retired_insns += insns_of(rt, old);
                }
              };
              const std::int64_t h0 = now_ns();
              {
                Tracer::Scope s = tracer.open(SpanKind::kReplace);
                reports.push_back(reconfig::replace_module(rt, filter, ro));
              }
              if (armed) {
                replace_host_ms.push_back(
                    static_cast<double>(now_ns() - h0) * 1e-6);
              }
              filter = reports.back().new_instance;
              const std::int64_t seen_after = global_int(rt, filter, "seen");
              out.check(seen_before >= 0 && seen_after >= seen_before,
                        "pipeline-diurnal: replacement " +
                            std::to_string(reports.size()) +
                            " lost the filter's state (seen " +
                            std::to_string(seen_before) + " before, " +
                            std::to_string(seen_after) + " after)");
            }
            return source.done() && reports.size() == kReplacements &&
                   p->tracker.completions_total() == source.sent();
          },
          armed ? &pending : nullptr);
      // Let the sink finish the slice that completed the last request.
      (void)drive(rt, tracer, rounds, [] { return false; });
    }
    const double host_s = static_cast<double>(now_ns() - t0) * 1e-9;

    // References: every scheduled request was emitted, reached the filter
    // and the sink exactly once across all replacements, and completed.
    const std::uint64_t sent = source.sent();
    const auto want = static_cast<std::int64_t>(schedule.size());
    const std::int64_t seen = global_int(rt, filter, "seen");
    const std::int64_t got = global_int(rt, "sink", "got");
    const std::uint64_t completed = p->tracker.completions_total();
    out.check(finished, "pipeline-diurnal: the day did not complete");
    out.check(sent == schedule.size(), "pipeline-diurnal: source sent " +
                                           std::to_string(sent) + " of " +
                                           std::to_string(schedule.size()));
    out.check(reports.size() == kReplacements,
              "pipeline-diurnal: " + std::to_string(reports.size()) +
                  " replacements ran");
    out.check(seen == want, "pipeline-diurnal: filter seen " +
                                std::to_string(seen) + " of " +
                                std::to_string(want));
    out.check(got == want, "pipeline-diurnal: sink got " +
                               std::to_string(got) + " of " +
                               std::to_string(want));
    out.check(completed == schedule.size() && p->tracker.open() == 0 &&
                  p->tracker.evicted_open() == 0,
              "pipeline-diurnal: " + std::to_string(completed) +
                  " completions, " + std::to_string(p->tracker.open()) +
                  " left open");
    out.check(p->incomplete == 0, "pipeline-diurnal: " +
                                      std::to_string(p->incomplete) +
                                      " incomplete requests");
    out.check(!rt.first_fault(), "pipeline-diurnal: a module faulted");
    out.attempted += schedule.size();
    std::uint64_t failed =
        schedule.size() - std::min<std::uint64_t>(completed, schedule.size());
    failed += p->incomplete;
    if (seen != want || got != want || !finished) failed = schedule.size();
    out.failed += std::min<std::uint64_t>(failed, schedule.size());

    const auto n = static_cast<double>(schedule.size());
    const std::uint64_t insns =
        retired_insns + insns_of(rt, filter) + insns_of(rt, "sink");
    std::uint64_t dropped = 0;
    for (const std::string& m : rt.tracer().machines()) {
      dropped += rt.tracer().dropped(m);
    }
    std::vector<double> blackout, reaction, moved, bytes;
    for (const auto& r : reports) {
      blackout.push_back(static_cast<double>(r.blackout_us()) * 1e-3);
      reaction.push_back(static_cast<double>(r.reaction_delay()) * 1e-3);
      moved.push_back(static_cast<double>(r.queued_messages_moved));
      bytes.push_back(static_cast<double>(r.state_bytes));
    }
    keep_first(
        out, kept,
        {{"episode.requests", n},
         {"vm.insns_per_req", static_cast<double>(insns) / n},
         {"app.rounds_per_req", static_cast<double>(rounds) / n},
         {"bus.msgs_per_req",
          static_cast<double>(rt.bus().stats().messages_sent) / n},
         {"bus.delivered_per_req",
          static_cast<double>(rt.bus().stats().messages_delivered) / n},
         {"trace.events_per_req",
          static_cast<double>(rt.tracer().total_events()) / n},
         {"trace.dropped", static_cast<double>(dropped)},
         {"reconfig.replacements", static_cast<double>(reports.size())},
         {"reconfig.reaction_ms", median(reaction)},
         {"reconfig.queued_moved", median(moved)},
         {"serialize.state_bytes", median(bytes)},
         {"e2e.latency_p50_ms", quantile(p->latency_us, 0.5) * 1e-3},
         {"e2e.latency_p999_ms", quantile(p->latency_us, 0.999) * 1e-3},
         {"e2e.latency_samples", static_cast<double>(p->latency_us.size())},
         {"e2e.blackout_ms", median(blackout)},
         {"_virtual_end_us", static_cast<double>(rt.now())}},
        "pipeline-diurnal");
    if (armed) {
      send_ns.insert(send_ns.end(), source.send_ns().begin(),
                     source.send_ns().end());
    }
    return n / host_s;
  };

  Rates rates;
  run_episodes(options, tracer, build_plain, episode, rates);
  add_end_to_end(out, rates);
  add_episode_values(out, kept);
  if (options.trace) {
    for (int i = 0; i < kLayerReps; ++i) {
      time_layer_calls(app::samples::pipeline_open_config_text(), "pipeline",
                       sources(), tracer, layers);
    }
    add_common_layers(out, rates, layers, tracer,
                      schedule.size() * rates.traced.size());
    auto& m = out.per_layer;
    m["bus.send_ns_p50"] = quantile(send_ns, 0.5);
    m["bus.send_ns_p99"] = quantile(send_ns, 0.99);
    m["net.pending_events_p50"] = pending.quantile(0.5);
    m["net.pending_events_max"] = pending.max();
    const Tracer::Totals& obs = tracer.totals(SpanKind::kObserve);
    m["slo.track_ns_per_event"] =
        obs.count == 0 ? 0.0
                       : static_cast<double>(obs.total_ns) /
                             static_cast<double>(obs.count);
    m["reconfig.replace_host_ms_p50"] = quantile(replace_host_ms, 0.5);
    m["reconfig.replace_host_ms_max"] = quantile(replace_host_ms, 1.0);
  }
  return out;
}

}  // namespace perfbench
