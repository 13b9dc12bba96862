// Reconfiguration scripts: the procedural descriptions of Figure 5,
// parameterized over module name and attributes as Section 2.2 proposes.
//
// A script coordinates the application-level reconfiguration primitives
// (ref [9]: bind edits, queue capture, state movement, module add/remove)
// with the module-level participation that the transformer installed
// (divulging state at a reconfiguration point, installing it in a clone).
//
// The canonical replacement script, step by step (Figure 5):
//   1. mh_obj_cap        -- obtain the current specification of the module
//   2. register the new instance (same spec, new MACHINE, STATUS="clone")
//   3. mh_bind_cap / mh_edit_bind -- prepare del/add rebinding commands plus
//      "cap" (move queued messages) and "rmq" (clear old queues)
//   4. mh_objstate_move  -- signal the old module, wait for it to divulge,
//      move the abstract state to the new module's decode mailbox
//   5. mh_rebind         -- apply the binding commands atomically
//   6. mh_chg_obj "add"  -- start the new module (it restores itself)
//   7. mh_chg_obj "del"  -- remove the old module
//
// Our addition beyond the figure: an optional drain window between rebind
// and removal, during which messages that were already in flight toward the
// old instance land in its (now unbound) queues and are moved to the new
// instance. The 1993 bus had no delivery latency, so the paper never faced
// in-flight messages; the simulated network does.
#pragma once

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "app/runtime.hpp"

namespace surgeon::reconfig {

// Span names of the replacement script's phases, as recorded into
// rt.metrics() (scope = the replaced instance) and into the
// surgeon_reconfig_step_us histogram. The first seven are the Figure 5
// steps in script order; kStepDrain is our drain-window addition, nested
// inside kStepDel on the timeline. Span timestamps are virtual
// microseconds, so they correlate 1:1 with trace::Event timestamps.
inline constexpr const char* kStepObjCap = "obj_cap";
inline constexpr const char* kStepCloneRegister = "clone_register";
inline constexpr const char* kStepBindEditPrep = "bind_edit_prep";
inline constexpr const char* kStepObjstateMove = "objstate_move";
inline constexpr const char* kStepRebind = "rebind";
inline constexpr const char* kStepAdd = "add";
inline constexpr const char* kStepDel = "del";
inline constexpr const char* kStepDrain = "drain";
/// Not a Figure 5 step: the journal boundary just before the commit record
/// is written, i.e. after kStepDel completed (surgeon::recover).
inline constexpr const char* kStepCommit = "commit";

/// The seven Figure 5 steps, in the order the script performs them.
inline constexpr std::array<const char*, 7> kFigure5Steps = {
    kStepObjCap,  kStepCloneRegister, kStepBindEditPrep, kStepObjstateMove,
    kStepRebind,  kStepAdd,           kStepDel};

/// Thrown when a script cannot complete (module missing, no divulged state
/// within the budget, faulted clone). The message names the Figure 5 step
/// and module instance at which the script failed, e.g.
///   replace_module[objstate_move] module 'server': never divulged ...
class ScriptError : public support::Error {
 public:
  using Error::Error;
};

/// Observer for write-ahead journaling of a replacement (surgeon::recover
/// implements it over the per-machine durable store). The script reports
/// every transaction boundary *before* acting on it, so a coordinator that
/// crashes mid-script leaves enough on disk for a successor to roll the
/// replacement forward (post-divulge) or back (pre-divulge).
///
/// The boundary sequence is a verified contract: verify's plans carry the
/// same tags and verify_test pins them against a recording journal, so a
/// new or reordered boundary must be reflected in verify::shipped_plans()
/// (where the static checker will prove invariants 1-6 across it).
class ScriptJournal {
 public:
  virtual ~ScriptJournal() = default;
  /// A replacement transaction opened: old instance, the pre-assigned clone
  /// name, and the requested target machine ("" = stay in place).
  virtual void begin(const std::string& old_instance,
                     const std::string& new_instance,
                     const std::string& machine) = 0;
  /// About to execute the named step (one of kFigure5Steps, or kStepCommit
  /// just before the commit record is written).
  virtual void intent(const char* step) = 0;
  /// The old module divulged; `state` is the abstract state buffer. This is
  /// the roll-forward watershed: once logged, the replacement can always be
  /// completed from the log alone.
  virtual void divulged(const std::vector<std::uint8_t>& state) = 0;
  /// The script finished; the transaction is closed.
  virtual void committed() = 0;
  /// The script rolled back before the divulge point.
  virtual void aborted(const std::string& reason) = 0;
};

struct ReplaceOptions {
  /// Target machine; empty keeps the module's current machine.
  std::string machine;
  /// Replacement program; null migrates the existing program unchanged.
  /// A replacement must be reconfiguration-compatible: same reconfiguration
  /// graph shape (edge numbering) and captured-variable layouts, so the old
  /// instance's frames install cleanly in the new code.
  std::shared_ptr<const vm::CompiledProgram> program;
  /// Scheduling budget for each wait inside the script.
  std::uint64_t max_rounds = 1'000'000;
  /// Drain window (virtual us) before the old instance is removed; 0
  /// removes it immediately, as the paper's script does.
  net::SimTime drain_us = 10'000;
  /// Wait until the clone has fully restored (reached its reconfiguration
  /// point) before returning.
  bool wait_for_restore = true;
  // --- fault tolerance (surgeon::chaos; appended so positional
  // --- initialization of the original five fields stays valid) ------------
  /// Attempts for the post-divulge installation: when a clone crashes or
  /// its state transfer gives up, the script registers a fresh clone, moves
  /// the bindings/queues across, and re-delivers the saved state buffer.
  /// 1 (the default) reproduces the original single-shot script.
  int max_attempts = 1;
  /// Virtual-time budget for the old module to divulge after the signal.
  /// 0 = wait forever in virtual time (only the scheduling-rounds budget
  /// bounds the wait — a module that never reaches a reconfiguration point
  /// burns all of max_rounds before the script aborts). On expiry the
  /// script aborts and rolls back: the clone is removed, pending control
  /// traffic is cancelled, and the application keeps serving on the old
  /// instance. The default is deliberately generous: 5 virtual seconds
  /// dwarfs any drain/retransmit window the chaos harness produces.
  net::SimTime divulge_timeout_us = 5'000'000;
  /// Virtual-time budget per attempt for the clone to finish restoring;
  /// 0 = wait forever in virtual time (rounds budget only), as above.
  net::SimTime restore_timeout_us = 10'000'000;
  // --- crash recovery (surgeon::recover) ----------------------------------
  /// When set, the script reports each transaction boundary here before
  /// acting on it (write-ahead journaling).
  ScriptJournal* journal = nullptr;
  /// Test/fault-injection hook invoked at every step boundary, after the
  /// journal intent is written and before the step executes. Throwing from
  /// it models a coordinator crash at exactly that boundary.
  std::function<void(const char* step)> crash_hook;
  /// Observes the divulged state buffer (the production capture path);
  /// surgeon::recover persists it as the module's checkpoint.
  std::function<void(const std::vector<std::uint8_t>&)> state_sink;
};

struct ReplaceReport {
  std::string old_instance;
  std::string new_instance;
  net::SimTime requested_at = 0;   // when the signal was sent
  net::SimTime divulged_at = 0;    // when the old module divulged its state
  net::SimTime rebound_at = 0;     // when bindings were switched
  net::SimTime restored_at = 0;    // when the clone finished restoring
                                   // (0 when wait_for_restore was off)
  net::SimTime completed_at = 0;   // when the script finished
  std::size_t state_bytes = 0;
  std::size_t state_frames = 0;
  std::size_t queued_messages_moved = 0;
  /// Installation attempts consumed (1 = no retry was needed).
  int attempts = 1;
  /// Flight-recorder trace grouping of this replacement (0 when causal
  /// tracing was off); filter exporters on it to isolate the operation.
  std::uint64_t trace_id = 0;

  [[nodiscard]] net::SimTime total_delay() const noexcept {
    return completed_at - requested_at;
  }
  [[nodiscard]] net::SimTime reaction_delay() const noexcept {
    return divulged_at - requested_at;
  }
  /// The disruption window: from the moment the old instance passivated
  /// (divulged -- it serves no request after this) until the clone finished
  /// restoring and can serve. Zero when the script did not wait for the
  /// restore. Also observed into surgeon_reconfig_blackout_us.
  [[nodiscard]] net::SimTime blackout_us() const noexcept {
    return restored_at > divulged_at ? restored_at - divulged_at : 0;
  }
};

/// The parameterized replacement script. Works on any module that was
/// prepared for reconfiguration. Returns a report with the new instance
/// name and the timing/size measurements the benchmarks consume.
ReplaceReport replace_module(app::Runtime& rt, const std::string& instance,
                             const ReplaceOptions& options = {});

/// Process migration: replacement with the same program on another machine
/// (the Monitor example's reconfiguration, Figure 1).
ReplaceReport move_module(app::Runtime& rt, const std::string& instance,
                          const std::string& machine);

/// Software maintenance: replacement with a new program version in place.
ReplaceReport update_module(
    app::Runtime& rt, const std::string& instance,
    std::shared_ptr<const vm::CompiledProgram> program);

struct ReplicateReport {
  ReplaceReport primary;          // the in-place clone that continues
  std::string replica_instance;   // the additional clone
};

/// Replication (the SURGEON activity of ref [5]): divulge once, install the
/// same abstract state in TWO clones -- one replacing the original in its
/// bindings, one fresh replica on another machine. The replica gets copies
/// of the original's bindings unless `bind_replica` is false.
ReplicateReport replicate_module(app::Runtime& rt, const std::string& instance,
                                 const std::string& replica_machine,
                                 bool bind_replica = true);

// --- script building blocks, exposed for surgeon::recover -----------------

/// mh_edit_bind command batch repointing every binding of `from` to `to`:
/// del/add per bound peer plus queue capture and queue removal for each
/// interface (Figure 5's loop). Recovery re-derives the same batch when it
/// rolls a logged replacement forward.
bus::BindEditBatch make_rebind_batch(bus::Bus& bus, const std::string& from,
                                     const std::string& to);

/// Late queue sweep: moves messages that landed in `from`'s unbound queues
/// over to `to`; returns how many moved. No-op when `from` is gone.
std::size_t sweep_queues(bus::Bus& bus, const std::string& from,
                         const std::string& to);

/// Copies every binding of `from` onto `to` without disturbing `from`
/// (add-only, no queue capture): the replica half of replicate_module, and
/// the way surgeon::replicate attaches a fresh group member to the router.
/// Returns the number of bindings added.
std::size_t copy_bindings(bus::Bus& bus, const std::string& from,
                          const std::string& to);

}  // namespace surgeon::reconfig
