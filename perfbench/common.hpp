// Shared pieces of the benchmark program: options, host clocks, summary
// statistics, the outside-in span tracer, and the result every workload
// returns to main().
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "app/runtime.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t fault_seed = 0;  // 0: derived from seed
  double seconds = 10.0;
  bool trace = false;
  /// Multiplies every episode size; the benchmark's own tests run at a tiny
  /// scale. Timed runs use 1.
  double scale = 1.0;
  /// Added to the counter-rpc reference total. Nonzero only in the test
  /// that proves a wrong reference makes the run fail.
  std::int64_t check_offset = 0;
  std::string span_file;
};

/// Sample quantile by linear interpolation between closest ranks (the
/// same rule as numpy's default), so a median over an even count is the
/// mean of the middle two.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Depth histogram for small non-negative integers (queue depths).
class Histogram {
 public:
  void add(std::size_t x) {
    if (x >= counts_.size()) counts_.resize(x + 1, 0);
    ++counts_[x];
    ++total_;
  }
  [[nodiscard]] double quantile(double q) const {
    if (total_ == 0) return 0.0;
    const auto rank = static_cast<std::uint64_t>(
        q * static_cast<double>(total_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen > rank) return static_cast<double>(i);
    }
    return static_cast<double>(counts_.size() - 1);
  }
  [[nodiscard]] double max() const {
    return counts_.empty() ? 0.0 : static_cast<double>(counts_.size() - 1);
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

// --- outside-in tracing ------------------------------------------------------

/// The call boundaries the benchmark owns. Each span carries one of these.
enum class SpanKind : std::uint8_t {
  kEpisode,       // one measured episode (root)
  kSetup,         // one whole workload construction (root)
  kCfgParse,      // cfg::parse_config
  kMinicFrontend, // minic::parse_program + minic::analyze
  kXformPrepare,  // xform::prepare_module
  kVmCompile,     // vm::compile
  kAppLoad,       // app::Runtime::load_application
  kKvLaunch,      // replicate::KvService::launch
  kRound,         // one app::Runtime::step scheduling round
  kReplace,       // reconfig::replace_module
  kSend,          // the open-loop source's bus::Client::write
  kObserve,       // slo::RequestTracker observe + drain
  kKill,          // app::Runtime::crash_machine
  kRebuildWait,   // rounds from the kill until redundancy is restored
  kCount
};

inline const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::kEpisode: return "episode";
    case SpanKind::kSetup: return "setup";
    case SpanKind::kCfgParse: return "cfg.parse";
    case SpanKind::kMinicFrontend: return "minic.frontend";
    case SpanKind::kXformPrepare: return "xform.prepare";
    case SpanKind::kVmCompile: return "vm.compile";
    case SpanKind::kAppLoad: return "app.load";
    case SpanKind::kKvLaunch: return "replicate.launch";
    case SpanKind::kRound: return "app.round";
    case SpanKind::kReplace: return "reconfig.replace";
    case SpanKind::kSend: return "bus.send";
    case SpanKind::kObserve: return "slo.track";
    case SpanKind::kKill: return "app.crash_machine";
    case SpanKind::kRebuildWait: return "replicate.rebuild_wait";
    case SpanKind::kCount: break;
  }
  return "?";
}

/// Records spans (name, start, end, parent, request id) around the calls
/// the benchmark makes into the program, and folds each closed span into
/// per-kind totals: count, total time, and self time (duration minus the
/// part covered by child spans). Raw spans are kept in memory up to a cap
/// and written out at exit; the totals always cover every span.
///
/// Disarmed (the untraced run), open() is one branch and records nothing.
class Tracer {
 public:
  struct Span {
    std::uint32_t parent = 0;  // the parent's id (index + 1); 0 = root
    SpanKind kind = SpanKind::kEpisode;
    std::uint64_t request = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  class Scope {
   public:
    Scope() = default;
    explicit Scope(Tracer* t) : t_(t) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (t_ != nullptr) t_->close();
    }

   private:
    Tracer* t_ = nullptr;
  };

  explicit Tracer(std::size_t keep = 20'000) : keep_(keep) {}

  [[nodiscard]] bool armed() const { return armed_; }
  void arm(bool on) { armed_ = on; }

  /// Opens a span; it closes when the returned Scope dies.
  [[nodiscard]] Scope open(SpanKind kind, std::uint64_t request = 0) {
    if (!armed_) return Scope();
    Open o;
    o.kind = kind;
    o.start_ns = now_ns();
    if (spans_.size() < keep_) {
      Span s;
      s.parent = stack_.empty() ? 0 : stack_.back().index;
      s.kind = kind;
      s.request = request;
      s.start_ns = o.start_ns;
      spans_.push_back(s);
      o.index = static_cast<std::uint32_t>(spans_.size());
    }
    stack_.push_back(o);
    return Scope(this);
  }

  [[nodiscard]] const Totals& totals(SpanKind k) const {
    return totals_[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::uint64_t spans_recorded() const { return recorded_; }

  /// Writes the kept spans as one JSON document.
  bool write(const std::string& path, const std::string& workload,
             std::uint64_t seed) const;

 private:
  struct Open {
    SpanKind kind = SpanKind::kEpisode;
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
    std::uint32_t index = 0;  // index + 1 of the kept span, 0 if not kept
  };

  void close() {
    const Open o = stack_.back();
    stack_.pop_back();
    const std::int64_t end = now_ns();
    const std::int64_t dur = end - o.start_ns;
    Totals& t = totals_[static_cast<std::size_t>(o.kind)];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - o.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (o.index != 0) spans_[o.index - 1].end_ns = end;
    ++recorded_;
  }

  bool armed_ = false;
  std::size_t keep_;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  Totals totals_[static_cast<std::size_t>(SpanKind::kCount)] = {};
  std::uint64_t recorded_ = 0;
};

// --- results -----------------------------------------------------------------

/// What one workload run reports back to main().
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Failed correctness checks, each with the number of times it failed.
  std::map<std::string, std::uint64_t> errors;
  // Metric values by name; main() owns the names and units, and prints
  // the end-to-end set from an untraced run and the per-layer set from a
  // traced one.
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;

  void check(bool ok, const std::string& what) {
    if (!ok) ++errors[what];
  }
};

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// Runs scheduling rounds until `done()` holds. Returns false if the system
/// went idle or `max_rounds` passed first. Each round is one
/// app::Runtime::step (one span when tracing); when `pending` is given, the
/// simulator queue depth is sampled after every round.
template <class Done>
bool drive(surgeon::app::Runtime& rt, Tracer& tracer, std::uint64_t& rounds,
           Done&& done, Histogram* pending = nullptr,
           std::uint64_t max_rounds = 4'000'000'000ULL) {
  const std::uint64_t limit = rounds + max_rounds;
  while (!done()) {
    if (rounds >= limit) return false;
    ++rounds;
    bool progressed;
    {
      Tracer::Scope s = tracer.open(SpanKind::kRound);
      progressed = rt.step();
    }
    if (pending != nullptr) pending->add(rt.simulator().pending_events());
    if (!progressed) return done();
  }
  return true;
}

/// An integer global of a running module's VM, or -1 if the instance has
/// no process or the global is not an integer.
inline std::int64_t global_int(surgeon::app::Runtime& rt,
                               const std::string& instance,
                               const std::string& name) {
  surgeon::vm::Machine* m = rt.machine_of(instance);
  if (m == nullptr) return -1;
  const surgeon::vm::RtValue v = m->global(name);
  return std::holds_alternative<std::int64_t>(v) ? std::get<std::int64_t>(v)
                                                 : -1;
}

/// Seed for an independent stream derived from the workload seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// --- the run protocol --------------------------------------------------------

/// Identical constructions per batch. A batch runs before every untraced
/// measured episode, so setup samples spread over the whole run instead of
/// one moment of it.
inline constexpr int kSetupBatch = 5;
/// Measured episodes per run at least, whatever --seconds says.
inline constexpr int kMinEpisodes = 5;
/// Seconds of untimed episodes at the start of a run (at most --seconds).
/// A vCPU that sat idle runs fast for its first second or two of load; the
/// measurement starts after that.
inline constexpr double kWarmupSeconds = 1.5;

/// throughput_rps is this quantile of the episode rates: the rate the
/// system sustained in nine episodes of ten. On a shared host the median
/// is not steady: neighbours come and go, and a run spends a varying share
/// of its episodes up to 1.5x faster than the rest. The lower tail moves far
/// less from run to run.
inline constexpr double kSustainedQuantile = 0.1;

/// Host-time samples of a run: the rates of the measured episodes, split
/// by whether the tracer was armed, and the construction times.
struct Rates {
  std::vector<double> untraced;
  std::vector<double> traced;
  std::vector<double> setup_s;
};

/// Builds and destroys the workload kSetupBatch times back to back and
/// appends each construction time in seconds (destruction untimed).
template <class Build>
void time_setup(Build&& build, Rates& rates) {
  for (int i = 0; i < kSetupBatch; ++i) {
    const std::int64_t t0 = now_ns();
    auto built = build();
    rates.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
}

/// Runs warm-up episodes, then measured episodes until `seconds` of wall
/// time have passed (and at least kMinEpisodes). `episode(armed)` builds
/// a fresh system, runs one fixed-size episode on it and returns its rate
/// in requests per host second of the run phase. The untraced run never
/// arms the tracer; the traced run alternates disarmed and armed episodes,
/// so the two rates it compares share the same stretch of host load.
template <class Build, class Episode>
void run_episodes(const Options& options, Tracer& tracer, Build&& build,
                  Episode&& episode, Rates& rates) {
  tracer.arm(false);
  const auto since = [](std::int64_t t0) {
    return static_cast<double>(now_ns() - t0) * 1e-9;
  };
  const std::int64_t w0 = now_ns();
  do {
    (void)episode(false);
  } while (since(w0) < std::min(kWarmupSeconds, options.seconds));
  const std::int64_t t0 = now_ns();
  for (int i = 0;; ++i) {
    const int measured = static_cast<int>(rates.untraced.size() +
                                          rates.traced.size());
    if (measured >= 2 * kMinEpisodes ||
        (!options.trace && measured >= kMinEpisodes)) {
      if (since(t0) >= options.seconds) break;
    }
    const bool armed = options.trace && (i % 2 == 1);
    if (!armed) time_setup(build, rates);
    tracer.arm(armed);
    const double rate = episode(armed);
    tracer.arm(false);
    (armed ? rates.traced : rates.untraced).push_back(rate);
  }
}

/// Counts and virtual times of one episode, by metric name. Every episode
/// of a run replays the same seed, so they must all agree: the first
/// episode's values are kept and any later difference fails the run.
/// Names starting with '_' only fingerprint the run and are not printed.
using EpisodeValues = std::map<std::string, double>;

inline void keep_first(Outcome& out, EpisodeValues& kept, EpisodeValues now,
                       const std::string& workload) {
  if (kept.empty()) {
    kept = std::move(now);
  } else {
    out.check(now == kept, workload + ": episodes of one seed diverged");
  }
}

/// Copies the kept episode values into the per-layer metrics.
inline void add_episode_values(Outcome& out, const EpisodeValues& kept) {
  for (const auto& [name, value] : kept) {
    if (name.rfind('_', 0) != 0) out.per_layer[name] = value;
  }
}

/// Repetitions of the per-layer setup timings of a traced run.
inline constexpr int kLayerReps = 21;

/// Per-layer setup times of the calls load_application makes, made
/// separately by the benchmark on the same inputs (microsecond samples).
struct SetupLayers {
  std::vector<double> cfg_us, minic_us, xform_us, compile_us, load_us,
      launch_us;
};

/// Calls cfg::parse_config, then minic::parse_program + minic::analyze,
/// xform::prepare_module (modules with reconfiguration points) and
/// vm::compile for every instance of `application`, timing each layer
/// and recording spans under one setup root.
void time_layer_calls(const std::string& config_text,
                      const std::string& application,
                      const surgeon::app::Runtime::SourceProvider& source_of,
                      Tracer& tracer, SetupLayers& out);

/// The end-to-end metrics every workload reports.
void add_end_to_end(Outcome& out, const Rates& rates);
/// Per-layer metrics every workload reports from the traced run.
void add_common_layers(Outcome& out, const Rates& rates,
                       const SetupLayers& setup, const Tracer& tracer,
                       std::uint64_t requests);

Outcome run_counter_rpc(const Options& options, Tracer& tracer);
Outcome run_pipeline_diurnal(const Options& options, Tracer& tracer);
Outcome run_kv_lossy_rebuild(const Options& options, Tracer& tracer);

}  // namespace perfbench
