// perfbench: the SURGEON++ benchmark program.
//
//   perfbench --workload counter-rpc|pipeline-diurnal|kv-lossy-rebuild
//             --seed N --seconds S --trace 0|1
//             [--fault-seed N] [--scale X] [--span-file PATH]
//
// Every workload is single-process and single-threaded, runs in virtual
// time, checks its outputs against references it computes itself, and
// prints one line per metric followed by a JSON result line:
//   --trace 0  the end-to-end metrics (host throughput, setup time, memory)
//   --trace 1  the per-layer metrics, from spans and counts the benchmark
//              records around its own calls into each module
// The exit code is 0 only when every check passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "cfg/parser.hpp"
#include "common.hpp"
#include "minic/parser.hpp"
#include "minic/sema.hpp"
#include "vm/compiler.hpp"
#include "xform/transform.hpp"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Printed by an untraced run, in this order. Virtual-time results (request
// latency, blackout, time to restore) and the failed share are part of the
// per-layer set below instead: they do not apply to every workload, and
// the failed share is zero whenever the run is correct.
constexpr MetricSpec kEndToEnd[] = {
    {"throughput_rps", "req/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Printed by a traced run. Every ratio names its base: counts per_req,
// per_op and per_msg divide by one episode's `episode.requests` or bus
// messages; host times per_req (self.*) divide by `obs.traced_requests`,
// the requests of all traced episodes. Host times carry the operation they
// are per (us/build, ns/send, ...); virtual_ms is simulated time, which is
// exact and repeats for a given seed. Metrics of a layer a workload
// bypasses read 0.
constexpr MetricSpec kPerLayer[] = {
    {"episode.requests", "count"},
    {"obs.traced_requests", "count"},
    {"cfg.parse_us", "us/build"},
    {"minic.frontend_us", "us/build"},
    {"xform.prepare_us", "us/build"},
    {"vm.compile_us", "us/build"},
    {"app.load_us", "us/build"},
    {"replicate.launch_us", "us/build"},
    {"vm.insns_per_req", "insn/req"},
    {"app.rounds_per_req", "round/req"},
    {"bus.msgs_per_req", "msg/req"},
    {"bus.delivered_per_req", "msg/req"},
    {"bus.send_ns_p50", "ns/send"},
    {"bus.send_ns_p99", "ns/send"},
    {"net.pending_events_p50", "count"},
    {"net.pending_events_max", "count"},
    {"bus.reliable.tx_per_msg", "tx/msg"},
    {"bus.reliable.retransmits_per_msg", "tx/msg"},
    {"bus.reliable.dup_discards", "count"},
    {"bus.reliable.gave_up", "count"},
    {"trace.events_per_req", "event/req"},
    {"trace.dropped", "count"},
    {"slo.track_ns_per_event", "ns/event"},
    {"reconfig.replacements", "count"},
    {"reconfig.replace_host_ms_p50", "ms/replace"},
    {"reconfig.replace_host_ms_max", "ms/replace"},
    {"reconfig.reaction_ms", "virtual_ms"},
    {"reconfig.queued_moved", "count"},
    {"serialize.state_bytes", "bytes"},
    {"replicate.refans_per_op", "refan/op"},
    {"replicate.late_replies_per_op", "reply/op"},
    {"recover.confirm_ms", "virtual_ms"},
    {"replicate.rebuild_ms", "virtual_ms"},
    {"self.app.round_ns_per_req", "ns/req"},
    {"self.bus.send_ns_per_req", "ns/req"},
    {"self.slo.track_ns_per_req", "ns/req"},
    {"self.reconfig.replace_ns_per_req", "ns/req"},
    {"self.episode_ns_per_req", "ns/req"},
    {"obs.untraced_rps", "req/s"},
    {"obs.traced_rps", "req/s"},
    {"obs.traced_overhead", "ratio"},
    {"obs.spans", "count"},
    {"e2e.latency_p50_ms", "virtual_ms"},
    {"e2e.latency_p999_ms", "virtual_ms"},
    {"e2e.latency_samples", "count"},
    {"e2e.blackout_ms", "virtual_ms"},
    {"e2e.restore_ms", "virtual_ms"},
    {"e2e.failed_share", "ratio"},
};

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss carries over the high-water mark of
  // the process image that exec'd this one (a Python parent, say).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void time_layer_calls(const std::string& config_text,
                      const std::string& application,
                      const surgeon::app::Runtime::SourceProvider& source_of,
                      Tracer& tracer, SetupLayers& out) {
  using namespace surgeon;
  const bool was_armed = tracer.armed();
  tracer.arm(true);
  {
    Tracer::Scope root = tracer.open(SpanKind::kSetup);
    std::int64_t t0 = now_ns();
    cfg::ConfigFile config;
    {
      Tracer::Scope s = tracer.open(SpanKind::kCfgParse);
      config = cfg::parse_config(config_text);
    }
    out.cfg_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    const cfg::ApplicationSpec* app = config.find_application(application);
    double minic_us = 0, xform_us = 0, compile_us = 0;
    for (const auto& inst : app->instances) {
      const cfg::ModuleSpec* spec = config.find_module(inst.module);
      t0 = now_ns();
      minic::Program prog;
      {
        Tracer::Scope s = tracer.open(SpanKind::kMinicFrontend);
        prog = minic::parse_program(source_of(*spec));
        minic::analyze(prog);
      }
      minic_us += static_cast<double>(now_ns() - t0) * 1e-3;
      if (!spec->reconfig_points.empty()) {
        t0 = now_ns();
        Tracer::Scope s = tracer.open(SpanKind::kXformPrepare);
        xform::prepare_module(prog, spec->reconfig_points, {});
        xform_us += static_cast<double>(now_ns() - t0) * 1e-3;
      }
      t0 = now_ns();
      {
        Tracer::Scope s = tracer.open(SpanKind::kVmCompile);
        vm::CompiledProgram compiled = vm::compile(prog);
        (void)compiled;
      }
      compile_us += static_cast<double>(now_ns() - t0) * 1e-3;
    }
    out.minic_us.push_back(minic_us);
    out.xform_us.push_back(xform_us);
    out.compile_us.push_back(compile_us);
  }
  tracer.arm(was_armed);
}

double sustained_rate(const std::vector<double>& rates) {
  return quantile(rates, kSustainedQuantile);
}

void add_end_to_end(Outcome& out, const Rates& rates) {
  out.end_to_end["throughput_rps"] = sustained_rate(rates.untraced);
  out.end_to_end["setup_s"] = median(rates.setup_s);
  out.end_to_end["peak_rss_mb"] = peak_rss_mb();
}

void add_common_layers(Outcome& out, const Rates& rates,
                       const SetupLayers& setup, const Tracer& tracer,
                       std::uint64_t requests) {
  auto& m = out.per_layer;
  m["obs.traced_requests"] = static_cast<double>(requests);
  m["cfg.parse_us"] = median(setup.cfg_us);
  m["minic.frontend_us"] = median(setup.minic_us);
  m["xform.prepare_us"] = median(setup.xform_us);
  m["vm.compile_us"] = median(setup.compile_us);
  m["app.load_us"] = median(setup.load_us);
  m["replicate.launch_us"] = median(setup.launch_us);
  const double untraced = sustained_rate(rates.untraced);
  const double traced = sustained_rate(rates.traced);
  m["obs.untraced_rps"] = untraced;
  m["obs.traced_rps"] = traced;
  m["obs.traced_overhead"] = untraced > 0 ? traced / untraced : 0.0;
  m["obs.spans"] = static_cast<double>(tracer.spans_recorded());
  const auto self_per_req = [&](SpanKind k) {
    return requests == 0 ? 0.0
                         : static_cast<double>(tracer.totals(k).self_ns) /
                               static_cast<double>(requests);
  };
  m["self.app.round_ns_per_req"] = self_per_req(SpanKind::kRound);
  m["self.bus.send_ns_per_req"] = self_per_req(SpanKind::kSend);
  m["self.slo.track_ns_per_req"] = self_per_req(SpanKind::kObserve);
  m["self.reconfig.replace_ns_per_req"] = self_per_req(SpanKind::kReplace);
  m["self.episode_ns_per_req"] = self_per_req(SpanKind::kEpisode);
}

bool Tracer::write(const std::string& path, const std::string& workload,
                   std::uint64_t seed) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
     << ", \"spans_recorded\": " << recorded_ << ", \"totals\": {";
  for (std::size_t k = 0; k < static_cast<std::size_t>(SpanKind::kCount);
       ++k) {
    os << (k == 0 ? "" : ", ") << "\"" << span_name(static_cast<SpanKind>(k))
       << "\": {\"count\": " << totals_[k].count
       << ", \"total_ns\": " << totals_[k].total_ns
       << ", \"self_ns\": " << totals_[k].self_ns << "}";
  }
  os << "},\n\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "" : ",\n") << "{\"id\": " << i + 1
       << ", \"parent\": " << s.parent << ", \"name\": \""
       << span_name(s.kind) << "\", \"request\": " << s.request
       << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
       << "}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--fault-seed N] [--scale X] "
               "[--span-file PATH]\n",
               why);
  return 2;
}

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int run(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--fault-seed") {
        options.fault_seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (arg == "--scale") {
        options.scale = std::stod(value);
      } else if (arg == "--check-offset") {
        options.check_offset = std::stoll(value);
      } else if (arg == "--span-file") {
        options.span_file = value;
      } else {
        return usage(("unknown option " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_seed) return usage("--seed is required");
  if (!(options.seconds > 0) || !(options.scale > 0)) {
    return usage("--seconds and --scale must be positive");
  }
  if (options.fault_seed == 0) {
    options.fault_seed = derive_seed(options.seed, 99);
  }

  Tracer tracer;
  Outcome out;
  if (options.workload == "counter-rpc") {
    out = run_counter_rpc(options, tracer);
  } else if (options.workload == "pipeline-diurnal") {
    out = run_pipeline_diurnal(options, tracer);
  } else if (options.workload == "kv-lossy-rebuild") {
    out = run_kv_lossy_rebuild(options, tracer);
  } else {
    return usage("unknown workload (counter-rpc, pipeline-diurnal, "
                 "kv-lossy-rebuild)");
  }
  out.per_layer["e2e.failed_share"] =
      out.attempted == 0 ? 1.0
                         : static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted);

  // Every name a workload sets must be declared.
  std::set<std::string> declared;
  for (const MetricSpec& m : kEndToEnd) declared.insert(m.name);
  for (const MetricSpec& m : kPerLayer) declared.insert(m.name);
  for (const auto* set : {&out.end_to_end, &out.per_layer}) {
    for (const auto& [name, value] : *set) {
      out.check(declared.contains(name), "undeclared metric " + name);
    }
  }

  std::cout << "workload " << options.workload << " seed " << options.seed
            << " fault_seed " << options.fault_seed << " trace "
            << (options.trace ? 1 : 0) << "\n";
  const auto print_line = [](const MetricSpec& m, double v) {
    std::cout << "metric " << m.name << " = " << format_value(v) << " "
              << m.unit << "\n";
  };
  // The printed set goes to the result line too; an untraced run also
  // prints the virtual-time results, which it measures as well.
  std::string metrics;
  const auto emit = [&](const MetricSpec& m,
                        const std::map<std::string, double>& values) {
    const auto it = values.find(m.name);
    double v = it == values.end() ? 0.0 : it->second;
    out.check(std::isfinite(v), std::string("metric ") + m.name +
                                    " is not finite");
    if (!std::isfinite(v)) v = 0.0;
    print_line(m, v);
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + m.name +
               "\": {\"value\": " + format_value(v) + ", \"unit\": \"" +
               m.unit + "\"}";
  };
  if (options.trace) {
    for (const MetricSpec& m : kPerLayer) emit(m, out.per_layer);
  } else {
    for (const MetricSpec& m : kEndToEnd) {
      out.check(out.end_to_end.contains(m.name),
                std::string("metric ") + m.name + " was not measured");
      emit(m, out.end_to_end);
    }
    for (const MetricSpec& m : kPerLayer) {
      if (std::string(m.name).rfind("e2e.", 0) == 0) {
        print_line(m, out.per_layer[m.name]);
      }
    }
  }

  if (options.trace && !options.span_file.empty()) {
    out.check(tracer.write(options.span_file, options.workload, options.seed),
              "cannot write span file " + options.span_file);
  }
  for (const auto& [what, times] : out.errors) {
    std::cerr << "CHECK FAILED: " << what;
    if (times > 1) std::cerr << " (" << times << " times)";
    std::cerr << "\n";
  }
  const bool correct = out.errors.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
