// counter-rpc: the paper's counter application under a closed loop.
//
// One busy client keeps exactly one request in flight to the server, both
// on the same VAX machine, so every hop is a local bus hop with no
// marshalling across architectures. No tracing, faults or replacement:
// the host time goes to VM dispatch, the builtins behind mh_write/mh_read
// and local bus delivery, and the trace, slo, reconfig, reliable-delivery
// and replicate layers are bypassed.
#include <memory>
#include <string>

#include "app/samples.hpp"
#include "cfg/parser.hpp"
#include "common.hpp"
#include "net/arch.hpp"

namespace perfbench {
namespace {

using namespace surgeon;

/// Requests per episode at scale 1 (about 0.15 s of host time).
constexpr int kRequests = 50'000;
/// The client writes this value every time; bump(k) adds k + (k-1) + ... + 1
/// to the server's total, so the reference total is kBumpSum per request.
constexpr int kArgument = 2;
constexpr std::int64_t kBumpSum = kArgument * (kArgument + 1) / 2;

std::string busy_client_source(int requests) {
  return R"mc(
void main()
{
  int i;
  int reply;
  i = 1;
  while (i <= )mc" +
         std::to_string(requests) + R"mc() {
    mh_write("svc", "i", )mc" +
         std::to_string(kArgument) + R"mc();
    mh_read("svc", "i", &reply);
    i = i + 1;
  }
  print("client-done");
}
)mc";
}

app::Runtime::SourceProvider sources(int requests) {
  return [requests](const cfg::ModuleSpec& spec) {
    return spec.name == "client" ? busy_client_source(requests)
                                 : app::samples::counter_server_source();
  };
}

std::unique_ptr<app::Runtime> build(std::uint64_t seed, int requests,
                                    Tracer& tracer,
                                    SetupLayers* layers = nullptr) {
  Tracer::Scope root = tracer.open(SpanKind::kSetup);
  auto rt = std::make_unique<app::Runtime>(seed);
  rt->add_machine("vax", net::arch_vax());
  cfg::ConfigFile config;
  {
    Tracer::Scope s = tracer.open(SpanKind::kCfgParse);
    config = cfg::parse_config(app::samples::counter_config_text());
  }
  const std::int64_t t0 = now_ns();
  {
    Tracer::Scope s = tracer.open(SpanKind::kAppLoad);
    rt->load_application(config, "counter", sources(requests));
  }
  if (layers != nullptr) {
    layers->load_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return rt;
}

}  // namespace

Outcome run_counter_rpc(const Options& options, Tracer& tracer) {
  Outcome out;
  const std::uint64_t rt_seed = derive_seed(options.seed, 1);
  const int requests = std::max(1, static_cast<int>(kRequests * options.scale));

  const auto build_plain = [&] { return build(rt_seed, requests, tracer); };

  SetupLayers layers;
  Histogram pending;
  EpisodeValues kept;

  auto episode = [&](bool armed) {
    auto rt = build(rt_seed, requests, tracer, armed ? &layers : nullptr);
    std::uint64_t rounds = 0;
    const std::int64_t t0 = now_ns();
    bool finished;
    {
      Tracer::Scope e = tracer.open(SpanKind::kEpisode);
      finished = drive(*rt, tracer, rounds,
                       [&] { return rt->module_finished("client"); },
                       armed ? &pending : nullptr);
    }
    const double host_s = static_cast<double>(now_ns() - t0) * 1e-9;

    // Reference computed here, not read from the program: each request
    // adds kBumpSum to the server's total.
    const std::int64_t expected = kBumpSum * requests + options.check_offset;
    const std::int64_t total = global_int(*rt, "server", "total");
    out.attempted += static_cast<std::uint64_t>(requests);
    const bool ok = finished && total == expected && !rt->first_fault();
    if (!ok) out.failed += static_cast<std::uint64_t>(requests);
    out.check(finished, "counter-rpc: client did not finish");
    out.check(total == expected, "counter-rpc: server total " +
                                     std::to_string(total) + ", expected " +
                                     std::to_string(expected));
    out.check(!rt->first_fault(), "counter-rpc: a module faulted");

    const auto n = static_cast<double>(requests);
    std::uint64_t insns = 0;
    for (const char* m : {"client", "server"}) {
      if (vm::Machine* vm = rt->machine_of(m)) {
        insns += vm->instructions_executed();
      }
    }
    // Every round trip is the same two local hops, so each percentile of
    // the virtual latency equals the mean.
    const double latency_ms = static_cast<double>(rt->now()) * 1e-3 / n;
    keep_first(out, kept,
               {{"vm.insns_per_req", static_cast<double>(insns) / n},
                {"app.rounds_per_req", static_cast<double>(rounds) / n},
                {"bus.msgs_per_req",
                 static_cast<double>(rt->bus().stats().messages_sent) / n},
                {"bus.delivered_per_req",
                 static_cast<double>(rt->bus().stats().messages_delivered) /
                     n},
                {"e2e.latency_p50_ms", latency_ms},
                {"e2e.latency_p999_ms", latency_ms},
                {"e2e.latency_samples", n},
                {"episode.requests", n}},
               "counter-rpc");
    return n / host_s;
  };

  Rates rates;
  run_episodes(options, tracer, build_plain, episode, rates);
  add_end_to_end(out, rates);
  add_episode_values(out, kept);
  if (options.trace) {
    for (int i = 0; i < kLayerReps; ++i) {
      time_layer_calls(app::samples::counter_config_text(), "counter",
                       sources(requests), tracer, layers);
    }
    add_common_layers(out, rates, layers, tracer,
                      static_cast<std::uint64_t>(requests) *
                          rates.traced.size());
    out.per_layer["net.pending_events_p50"] = pending.quantile(0.5);
    out.per_layer["net.pending_events_max"] = pending.max();
  }
  return out;
}

}  // namespace perfbench
