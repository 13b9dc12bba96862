// Dispatch-mode parity: the threaded (computed-goto) loop and the portable
// switch loop must be observationally identical, instruction for
// instruction. Every program here runs under both modes — and, where it
// matters, both fused and unfused — comparing printed output, instruction
// accounting (per-step and total), run state, the native frame image at a
// mid-run synchronization point, capture/encode results, and profiler
// sample attribution. The bottom of the file spot-checks the 215 chaos
// seeds: golden (fault-free) runs must be byte-identical across modes, so
// the dispatch rewrite cannot have moved any virtual-time crash point.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "app/runtime.hpp"
#include "app/samples.hpp"
#include "bus/bus.hpp"
#include "cfg/parser.hpp"
#include "chaos/scenario.hpp"
#include "minic/parser.hpp"
#include "minic/sema.hpp"
#include "vm/compiler.hpp"
#include "vm/machine.hpp"
#include "xform/transform.hpp"

namespace surgeon::vm {
namespace {

// --- trace harness ----------------------------------------------------------

/// One profiler hit, with everything a sampler can attribute.
struct SampleRecord {
  std::uint64_t at = 0;  // instructions_executed() at the hit
  std::uint32_t fn = 0;
  std::optional<Op> op;
  std::vector<Op> window;
  std::vector<std::uint32_t> stack;

  friend bool operator==(const SampleRecord& a, const SampleRecord& b) {
    return std::tie(a.at, a.fn, a.op, a.window, a.stack) ==
           std::tie(b.at, b.fn, b.op, b.window, b.stack);
  }
};

class RecordingSink : public SampleSink {
 public:
  void on_sample(const Machine& m) override {
    SampleRecord r;
    r.at = m.instructions_executed();
    r.fn = m.current_function();
    r.op = m.current_op();
    r.window = m.peek_ops(4);
    m.stack_functions(r.stack);
    records.push_back(std::move(r));
  }
  std::vector<SampleRecord> records;
};

/// Everything observable about one run. Two runs are "parity-equal" when
/// every field matches.
struct Trace {
  std::vector<std::string> output;
  std::uint64_t instructions = 0;
  RunState state = RunState::kRunnable;
  std::string fault;
  std::vector<std::uint64_t> chunk_insns;  // per-step(chunk) accounting
  std::vector<std::uint8_t> frame_image;   // native image at sync point
  std::vector<std::uint8_t> encoded;       // capture block output, if any
  std::vector<SampleRecord> samples;
};

struct TraceOptions {
  std::uint64_t chunk = 1 << 20;    // step() budget per call
  std::uint64_t sample_period = 0;  // 0 = profiler disarmed
  std::uint64_t signal_at = 0;      // raise_signal() once past this count
  std::uint64_t image_at = 0;       // snapshot raw_frame_image() once past
};

Trace run_trace(const CompiledProgram& prog, DispatchMode mode,
                const TraceOptions& opt = {}) {
  Machine m(prog, net::arch_vax());
  m.set_dispatch_mode(mode);
  RecordingSink sink;
  if (opt.sample_period != 0) {
    m.set_sample_sink(&sink);
    m.set_sample_period(opt.sample_period);
  }
  Trace t;
  bool signalled = opt.signal_at == 0;
  bool imaged = opt.image_at == 0;
  for (int guard = 0; guard < 4'000'000; ++guard) {
    if (m.state() != RunState::kRunnable) break;
    auto r = m.step(opt.chunk);
    t.chunk_insns.push_back(r.instructions);
    if (!signalled && m.instructions_executed() >= opt.signal_at) {
      m.raise_signal();
      signalled = true;
    }
    if (!imaged && m.instructions_executed() >= opt.image_at &&
        m.state() == RunState::kRunnable) {
      t.frame_image = m.raw_frame_image();
      imaged = true;
    }
    if (r.state == RunState::kBlockedRead ||
        r.state == RunState::kBlockedDecode) {
      break;  // nothing unblocks a standalone machine
    }
  }
  t.output = m.output();
  t.instructions = m.instructions_executed();
  t.state = m.state();
  t.fault = m.fault_message();
  if (m.last_encoded_state().has_value()) {
    t.encoded = m.last_encoded_state()->encode();
  }
  t.samples = std::move(sink.records);
  return t;
}

void expect_parity(const Trace& threaded, const Trace& sw, const char* what) {
  EXPECT_EQ(threaded.output, sw.output) << what;
  EXPECT_EQ(threaded.instructions, sw.instructions) << what;
  EXPECT_EQ(threaded.state, sw.state) << what;
  EXPECT_EQ(threaded.fault, sw.fault) << what;
  EXPECT_EQ(threaded.chunk_insns, sw.chunk_insns) << what;
  EXPECT_EQ(threaded.frame_image, sw.frame_image) << what;
  EXPECT_EQ(threaded.encoded, sw.encoded) << what;
  EXPECT_EQ(threaded.samples, sw.samples) << what;
}

/// Runs one compiled program under both dispatch modes with the same
/// options and requires identical traces. Returns the threaded trace for
/// further assertions. Degenerates to switch-vs-switch (still a useful
/// fused/stepping check) when the toolchain has no computed goto.
Trace check_modes(const CompiledProgram& prog, const TraceOptions& opt = {},
                  const char* what = "program") {
  Trace sw = run_trace(prog, DispatchMode::kSwitch, opt);
  if (!threaded_dispatch_supported()) return sw;
  Trace th = run_trace(prog, DispatchMode::kThreaded, opt);
  expect_parity(th, sw, what);
  return th;
}

CompiledProgram compile_opts(const std::string& src, bool fuse) {
  minic::Program prog = minic::parse_program(src);
  minic::analyze(prog);
  return compile(prog, CompileOptions{.fuse = fuse});
}

bool has_superinstruction(const CompiledProgram& prog) {
  for (const auto& fn : prog.functions) {
    for (const auto& insn : fn.code) {
      if (is_superinstruction(insn.op)) return true;
    }
  }
  return false;
}

// --- corpus -----------------------------------------------------------------

/// Tight loop: compare+branch loop edges plus slot/const arithmetic — the
/// exact shapes the peephole pass fuses.
const char* kTightLoop = R"(
void main() {
  int i; int sum; int prod;
  i = 0; sum = 0; prod = 1;
  while (i < 200) {
    sum = sum + i;
    sum = sum - 2;
    prod = (prod * 3) % 1000003;
    if (i != 199) { sum = sum + 1; }
    if (i >= 100) { sum = sum * 2 % 65536; }
    if (i <= 50)  { sum = sum - i; }
    if (i > 150)  { sum = sum + prod % 17; }
    i = i + 1;
  }
  print(sum, prod);
}
)";

/// Call-heavy: recursion, pointer out-params, globals across calls.
const char* kCallHeavy = R"(
int calls = 0;

int fib(int n) {
  calls = calls + 1;
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}

void accum(int n, int *out) {
  if (n <= 0) { return; }
  *out = *out + fib(n % 12);
  accum(n - 1, out);
}

void main() {
  int total;
  total = 0;
  accum(25, &total);
  print(total, calls);
}
)";

/// Strings, heap, floats, casts: the value-kind corners of every fused
/// arithmetic handler.
const char* kMixedValues = R"(
void main() {
  string s; float f; int *p; int i; int n;
  s = "x";
  f = 1.5;
  n = 6;
  p = mh_alloc_int(n);
  i = 0;
  while (i < n) {
    p[i] = i * i;
    s = s + "y";
    f = f * 1.25;
    i = i + 1;
  }
  i = 0;
  while (i < n) {
    print(i, p[i], s < "xz", (int)f);
    i = i + 1;
  }
  mh_free(p);
  print(s == "xyyyyyy", f > 4.0);
}
)";

/// Flag cascade via the real transformation: every statement boundary in
/// work() tests the reconfiguration flag, so the hot path is wall-to-wall
/// kStmtFlagJf superinstructions.
std::string worker_source(int rounds, int depth) {
  return R"(
int acc = 0;

void work(int n, int *out) {
  if (n <= 0) { *out = acc; return; }
  work(n - 1, out);
RP:
  acc = acc + n * n;
  *out = acc;
}

void main() {
  int r;
  int round;
  round = 0;
  while (round < )" +
         std::to_string(rounds) + R"() {
    work()" +
         std::to_string(depth) + R"(, &r);
    print(round, r);
    round = round + 1;
  }
  print("final", acc);
}
)";
}

CompiledProgram compile_worker(int rounds, int depth, bool fuse) {
  minic::Program prog = minic::parse_program(worker_source(rounds, depth));
  minic::analyze(prog);
  xform::prepare_module(prog, {cfg::ReconfigPointSpec{"RP", {}, {}}}, {});
  return compile(prog, CompileOptions{.fuse = fuse});
}

// --- parity: full-speed runs ------------------------------------------------

TEST(DispatchParity, TightLoopFused) {
  auto prog = compile_opts(kTightLoop, /*fuse=*/true);
  ASSERT_TRUE(has_superinstruction(prog));
  Trace t = check_modes(prog, {}, "tight loop");
  EXPECT_EQ(t.state, RunState::kDone) << t.fault;
  ASSERT_EQ(t.output.size(), 1u);
}

TEST(DispatchParity, CallHeavyFused) {
  auto prog = compile_opts(kCallHeavy, /*fuse=*/true);
  Trace t = check_modes(prog, {}, "call heavy");
  EXPECT_EQ(t.state, RunState::kDone) << t.fault;
  // total = sum of fib(n % 12) for n = 25..1 = 232 + 0 + 232 + 0 + 1;
  // calls = matching invocation counts (2*fib(k+1) - 1 per top-level call).
  EXPECT_EQ(t.output, std::vector<std::string>{"465 1481"});
}

TEST(DispatchParity, MixedValuesFused) {
  auto prog = compile_opts(kMixedValues, /*fuse=*/true);
  Trace t = check_modes(prog, {}, "mixed values");
  EXPECT_EQ(t.state, RunState::kDone) << t.fault;
}

TEST(DispatchParity, FaultDiagnosticsIdentical) {
  // The off-the-end sentinel and arithmetic faults must produce the same
  // message and the same instruction count in both loops.
  for (const char* src : {
           "void main() { int a; a = 1 / 0; print(a); }",
           "void main() { int *p; print(*p); }",
           "void main() { int* p; p = mh_alloc_int(1); mh_free(p); "
           "mh_free(p); }",
           "void main() { int* p; p = mh_alloc_int(2); print(p[5]); }",
           "void f() { f(); } void main() { f(); }",
       }) {
    auto prog = compile_opts(src, /*fuse=*/true);
    Trace t = check_modes(prog, {}, src);
    EXPECT_EQ(t.state, RunState::kFault) << src;
    EXPECT_FALSE(t.fault.empty()) << src;
  }
}

// --- parity: stepping and budget boundaries ---------------------------------

// step(1) must execute exactly one *component* instruction even when the
// head of a fused sequence is next: the loop takes the slow path and runs
// the plain head opcode.
TEST(DispatchParity, SingleSteppingRunsOneComponentPerStep) {
  auto prog = compile_opts(kTightLoop, /*fuse=*/true);
  TraceOptions opt;
  opt.chunk = 1;
  Trace t = check_modes(prog, opt, "single step");
  EXPECT_EQ(t.state, RunState::kDone) << t.fault;
  for (std::uint64_t n : t.chunk_insns) EXPECT_EQ(n, 1u);
  // Identical totals to the full-speed run: budget handling never skips or
  // double-counts a component.
  Trace full = run_trace(prog, DispatchMode::kSwitch, {});
  EXPECT_EQ(t.instructions, full.instructions);
  EXPECT_EQ(t.output, full.output);
}

// Awkward budgets land mid-fused-sequence on every step; accounting and
// results must not care.
TEST(DispatchParity, OddStepBudgetsLandInsideFusedSequences) {
  auto prog = compile_opts(kTightLoop, /*fuse=*/true);
  Trace full = run_trace(prog, DispatchMode::kSwitch, {});
  for (std::uint64_t chunk : {2u, 3u, 5u, 7u, 13u, 61u}) {
    TraceOptions opt;
    opt.chunk = chunk;
    Trace t = check_modes(prog, opt, "odd budget");
    EXPECT_EQ(t.output, full.output) << "chunk " << chunk;
    EXPECT_EQ(t.instructions, full.instructions) << "chunk " << chunk;
    for (std::uint64_t n : t.chunk_insns) EXPECT_LE(n, chunk);
  }
}

// --- parity: fused vs unfused -----------------------------------------------

// Fusion is a pure dispatch-cost optimization: identical output AND
// identical instruction accounting (a fused op counts op_width components),
// so virtual time is unchanged and chaos goldens cannot shift.
TEST(DispatchParity, FusedAndUnfusedAgreeOnEverythingObservable) {
  for (const char* src : {kTightLoop, kCallHeavy, kMixedValues}) {
    auto fused = compile_opts(src, /*fuse=*/true);
    auto plain = compile_opts(src, /*fuse=*/false);
    ASSERT_FALSE(has_superinstruction(plain));
    for (std::uint64_t chunk : {std::uint64_t{1} << 20, std::uint64_t{7}}) {
      TraceOptions opt;
      opt.chunk = chunk;
      Trace tf = run_trace(fused, DispatchMode::kSwitch, opt);
      Trace tp = run_trace(plain, DispatchMode::kSwitch, opt);
      EXPECT_EQ(tf.output, tp.output);
      EXPECT_EQ(tf.instructions, tp.instructions);
      EXPECT_EQ(tf.state, tp.state);
      if (threaded_dispatch_supported()) {
        Trace tt = run_trace(fused, DispatchMode::kThreaded, opt);
        EXPECT_EQ(tt.output, tp.output);
        EXPECT_EQ(tt.instructions, tp.instructions);
      }
    }
  }
}

// --- parity: capture, frame images, signals ---------------------------------

// Signal mid-recursion in a transformed module: the capture block walks the
// AR stack and divulges abstract state. The encoded bytes must be identical
// across modes, and across fused/unfused code (capture reads pc values that
// fusion must not have moved).
TEST(DispatchParity, CapturedStateByteIdenticalAcrossModes) {
  auto fused = compile_worker(50, 6, /*fuse=*/true);
  ASSERT_TRUE(has_superinstruction(fused));
  TraceOptions opt;
  opt.chunk = 40;  // deliver the signal at an interesting depth
  opt.signal_at = 200;
  Trace t = check_modes(fused, opt, "worker capture");
  EXPECT_EQ(t.state, RunState::kDone) << t.fault;
  EXPECT_FALSE(t.encoded.empty());

  auto plain = compile_worker(50, 6, /*fuse=*/false);
  Trace tp = run_trace(plain, DispatchMode::kSwitch, opt);
  EXPECT_EQ(t.encoded, tp.encoded);
  EXPECT_EQ(t.output, tp.output);
  EXPECT_EQ(t.instructions, tp.instructions);
}

TEST(DispatchParity, RawFrameImageIdenticalAtSyncPoint) {
  auto prog = compile_opts(kCallHeavy, /*fuse=*/true);
  TraceOptions opt;
  opt.chunk = 97;
  opt.image_at = 500;  // mid-recursion
  Trace t = check_modes(prog, opt, "frame image");
  EXPECT_FALSE(t.frame_image.empty());
}

// --- parity: profiler attribution -------------------------------------------

// Samples must fire at the same executed-instruction counts and attribute
// to the same function/opcode/stack in both modes. Periods that are coprime
// with the fused widths force countdown expiry inside fused sequences,
// where the loop must fall back to single-stepping the components.
TEST(DispatchParity, SampleAttributionIdentical) {
  for (std::uint64_t period : {3u, 7u, 11u}) {
    for (bool fuse : {true, false}) {
      auto prog = compile_worker(10, 5, fuse);
      TraceOptions opt;
      opt.sample_period = period;
      Trace t = check_modes(prog, opt, "sampling");
      EXPECT_EQ(t.state, RunState::kDone) << t.fault;
      ASSERT_FALSE(t.samples.empty());
      // Sample hit counts are denominated in component instructions, so the
      // cadence is exact regardless of fusion.
      for (std::size_t i = 0; i < t.samples.size(); ++i) {
        EXPECT_EQ(t.samples[i].at, period * (i + 1)) << "period " << period;
      }
    }
  }
}

// Fused and unfused code attribute samples to the same source position.
// Samples only ever fire at component-instruction boundaries: a countdown
// that would expire *inside* a fused sequence forces the slow path, which
// runs the components singly, so the sample lands either on a preserved
// interior instruction (identical op in both builds) or on a sequence head
// (the fused op, whose first component is the plain build's op).
TEST(DispatchParity, SamplesInsideFusedSequencesLandOnComponentBoundaries) {
  auto fused = compile_worker(10, 5, /*fuse=*/true);
  auto plain = compile_worker(10, 5, /*fuse=*/false);
  TraceOptions opt;
  opt.sample_period = 7;
  Trace tf = run_trace(fused, DispatchMode::kSwitch, opt);
  Trace tp = run_trace(plain, DispatchMode::kSwitch, opt);
  ASSERT_EQ(tf.samples.size(), tp.samples.size());
  for (std::size_t i = 0; i < tf.samples.size(); ++i) {
    EXPECT_EQ(tf.samples[i].at, tp.samples[i].at);
    EXPECT_EQ(tf.samples[i].fn, tp.samples[i].fn);
    EXPECT_EQ(tf.samples[i].stack, tp.samples[i].stack);
    ASSERT_TRUE(tf.samples[i].op.has_value());
    ASSERT_TRUE(tp.samples[i].op.has_value());
    EXPECT_EQ(op_first_component(*tf.samples[i].op), *tp.samples[i].op)
        << "sample " << i << " at " << tf.samples[i].at;
  }
}

// --- builtin sites and the frame pool ---------------------------------------

/// Restores the process-wide default dispatch mode even on test failure.
struct DefaultModeGuard {
  DispatchMode saved = default_dispatch_mode();
  ~DefaultModeGuard() { set_default_dispatch_mode(saved); }
};

std::vector<DispatchMode> all_modes() {
  std::vector<DispatchMode> modes{DispatchMode::kSwitch};
  if (threaded_dispatch_supported()) modes.push_back(DispatchMode::kThreaded);
  return modes;
}

/// Sema admits only literal formats and interface names, but the VM takes
/// both from the operand stack. This rewrites the kPushConst of string
/// literal `literal` in main into a kLoadSlot of local `var`, so the builtin
/// it feeds reads its argument from a variable the program can change.
/// `prog` must be compiled unfused: a fused head would still push the
/// literal itself.
void feed_from_variable(CompiledProgram& prog, const std::string& literal,
                        const std::string& var) {
  CompiledFunction& fn = prog.functions[prog.main_index];
  std::int32_t slot = -1;
  for (std::size_t i = 0; i < fn.slot_names.size(); ++i) {
    if (fn.slot_names[i] == var) slot = static_cast<std::int32_t>(i);
  }
  ASSERT_GE(slot, 0) << var;
  int patched = 0;
  for (Insn& insn : fn.code) {
    if (insn.op != Op::kPushConst) continue;
    const ser::Value& c = prog.constants[static_cast<std::size_t>(insn.a)];
    if (c.is_string() && c.as_string() == literal) {
      insn = Insn{Op::kLoadSlot, slot, 0};
      ++patched;
    }
  }
  ASSERT_EQ(patched, 1) << literal;
}

TEST(BuiltinSites, DanglingFrameRefFaultsAfterItsStorageIsRecycled) {
  // set()'s frame is popped and its vectors go to the pool; churn()'s
  // frames reuse them and have newer ids. The escaped &x, used from the
  // deepest churn(), must still fault, for loads and stores alike, rather
  // than reach whichever frame took the storage.
  for (const char* use : {"print(*g);", "*g = 3;"}) {
    const std::string src = std::string(R"(
int *g;
void set() { int x; x = 7; g = &x; }
void churn(int n) {
  int a; a = n;
  if (n > 0) { churn(n - 1); } else { )") + use + R"( }
}
void main() { set(); churn(10); }
)";
    auto prog = compile_opts(src, /*fuse=*/true);
    Trace t = check_modes(prog, {}, use);
    EXPECT_EQ(t.state, RunState::kFault) << use;
    EXPECT_NE(t.fault.find("dangling pointer"), std::string::npos) << t.fault;
  }
}

TEST(BuiltinSites, DeepRecursionLeavesTheFramePoolCapped) {
  auto prog = compile_opts(R"(
int depth(int n) { if (n <= 0) { return 0; } return depth(n - 1) + 1; }
void main() { print(depth(10000)); print(depth(10000)); }
)",
                           /*fuse=*/true);
  for (DispatchMode mode : all_modes()) {
    Machine m(prog, net::arch_vax());
    m.set_dispatch_mode(mode);
    (void)m.run(50'000'000);
    ASSERT_EQ(m.state(), RunState::kDone) << m.fault_message();
    EXPECT_EQ(m.output(), (std::vector<std::string>{"10000", "10000"}));
    EXPECT_EQ(m.pooled_frame_vectors(), Machine::kFramePoolCap);
  }
}

TEST(BuiltinSites, BadFormatThrowsOnEveryExecution) {
  // The first pass caches "i" at the capture site; the second hands the
  // same site a bad format, which must fault, and keep faulting when the
  // machine is rolled back and runs into it again.
  auto prog = compile_opts(R"(
void main() {
  string f; int n; int i;
  n = 3; i = 0;
  while (i < 2) {
    if (i == 0) { f = "i"; } else { f = "q"; }
    mh_capture("I", n);
    i = i + 1;
  }
}
)",
                           /*fuse=*/false);
  feed_from_variable(prog, "I", "f");
  for (DispatchMode mode : all_modes()) {
    Machine m(prog, net::arch_vax());
    m.set_dispatch_mode(mode);
    auto start = m.checkpoint();
    for (int attempt = 0; attempt < 3; ++attempt) {
      (void)m.run();
      ASSERT_EQ(m.state(), RunState::kFault) << "attempt " << attempt;
      EXPECT_NE(m.fault_message().find("bad format character 'q'"),
                std::string::npos)
          << m.fault_message();
      m.rollback(*start);
    }
    EXPECT_EQ(m.capture_frames_total(), 3u);  // one good capture per pass
  }
}

TEST(BuiltinSites, FormatHeldInAVariableIsHonoured) {
  auto prog = compile_opts(R"(
void main() {
  string f; int n; int i;
  n = 3; i = 0;
  while (i < 4) {
    if (i % 2 == 1) { f = "F"; } else { f = "i"; }
    mh_capture("I", n);
    i = i + 1;
  }
  mh_encode();
}
)",
                           /*fuse=*/false);
  feed_from_variable(prog, "I", "f");
  for (DispatchMode mode : all_modes()) {
    Machine m(prog, net::arch_vax());
    m.set_dispatch_mode(mode);
    (void)m.run();
    ASSERT_EQ(m.state(), RunState::kDone) << m.fault_message();
    ASSERT_TRUE(m.last_encoded_state().has_value());
    const auto& frames = m.last_encoded_state()->frames();
    ASSERT_EQ(frames.size(), 4u);
    for (std::size_t i = 0; i < frames.size(); ++i) {
      ASSERT_EQ(frames[i].values.size(), 1u);
      const ser::Value& v = frames[i].values[0];
      EXPECT_EQ(v.is_real(), i % 2 == 1) << "frame " << i;
      EXPECT_EQ(v.to_real(), 3.0);
    }
  }
}

TEST(BuiltinSites, InterfaceHeldInAVariableIsHonoured) {
  // One mh_write call site alternates between two interfaces; its cached
  // endpoint handle must follow the name.
  auto prog = compile_opts(R"(
void main() {
  string p; int i;
  i = 0;
  while (i < 4) {
    if (i % 2 == 0) { p = "x"; } else { p = "y"; }
    mh_write("PORT", "i", i);
    i = i + 1;
  }
}
)",
                           /*fuse=*/false);
  feed_from_variable(prog, "PORT", "p");
  for (DispatchMode mode : all_modes()) {
    net::Simulator sim;
    sim.add_machine("vax", net::arch_vax());
    bus::Bus bus(sim);
    bus::ModuleInfo src{.name = "a", .machine = "vax"};
    bus::ModuleInfo dst{.name = "b", .machine = "vax"};
    for (const char* iface : {"x", "y"}) {
      src.interfaces.push_back({iface, bus::IfaceRole::kDefine, "i", ""});
      dst.interfaces.push_back({iface, bus::IfaceRole::kUse, "i", ""});
    }
    bus.add_module(src);
    bus.add_module(dst);
    bus.add_binding({"a", "x"}, {"b", "x"});
    bus.add_binding({"a", "y"}, {"b", "y"});
    bus::Client client(bus, "a");
    Machine m(prog, net::arch_vax());
    m.set_dispatch_mode(mode);
    m.attach_client(&client);
    (void)m.run();
    ASSERT_EQ(m.state(), RunState::kDone) << m.fault_message();
    sim.run();
    for (const auto& [iface, first] :
         {std::pair{"x", std::int64_t{0}}, std::pair{"y", std::int64_t{1}}}) {
      for (std::int64_t k = first; k < 4; k += 2) {
        auto msg = bus.receive("b", iface);
        ASSERT_TRUE(msg.has_value()) << iface << " " << k;
        EXPECT_EQ(msg->values.at(0).as_int(), k) << iface;
      }
      EXPECT_FALSE(bus.has_message("b", iface));
    }
  }
}

TEST(BuiltinSites, CounterAppInstructionCountIsExact) {
  // 500 back-to-back requests: 112 instructions per request plus 33 of
  // setup, in both dispatch modes (the count every dispatch change since
  // superinstructions has had to keep).
  DefaultModeGuard guard;
  for (DispatchMode mode : all_modes()) {
    set_default_dispatch_mode(mode);
    app::Runtime rt(3);
    rt.add_machine("vax", net::arch_vax());
    cfg::ConfigFile config =
        cfg::parse_config(app::samples::counter_config_text());
    rt.load_application(config, "counter", [](const cfg::ModuleSpec& spec) {
      if (spec.name != "client") return app::samples::counter_server_source();
      return std::string(R"(
void main() {
  int i; int reply;
  i = 1;
  while (i <= 500) {
    mh_write("svc", "i", 2);
    mh_read("svc", "i", &reply);
    i = i + 1;
  }
  print("client-done");
}
)");
    });
    rt.run_until_idle(50'000'000);
    ASSERT_TRUE(rt.module_finished("client"));
    EXPECT_EQ(rt.machine_of("client")->instructions_executed() +
                  rt.machine_of("server")->instructions_executed(),
              56033u);
  }
}

// --- the 215-seed chaos spot-check ------------------------------------------

// Golden (fault-free) chaos runs drive whole applications — runtime,
// virtual clock, bus, reconfiguration — off instruction counts. If the
// rewrite changed any observable accounting, some seed's golden output
// diverges between the two dispatch modes.
TEST(DispatchParity, ChaosGoldenRunsByteIdenticalAcross215Seeds) {
  if (!threaded_dispatch_supported()) {
    GTEST_SKIP() << "no computed goto on this toolchain";
  }
  DefaultModeGuard guard;
  for (std::uint64_t seed = 1; seed <= 215; ++seed) {
    chaos::ScenarioSpec spec = chaos::random_scenario(seed);
    set_default_dispatch_mode(DispatchMode::kSwitch);
    const std::vector<std::string> golden_switch = chaos::golden_output(spec);
    set_default_dispatch_mode(DispatchMode::kThreaded);
    const std::vector<std::string> golden_threaded =
        chaos::golden_output(spec);
    ASSERT_EQ(golden_threaded, golden_switch) << "seed " << seed;
  }
}

}  // namespace
}  // namespace surgeon::vm
