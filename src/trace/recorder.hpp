// Per-machine flight recorder.
//
// One Recorder serves the whole platform (the Runtime owns it, the Bus
// holds a pointer, mirroring obs::MetricsRegistry).  Each machine gets a
// bounded ring journal; when a ring fills, the oldest event is evicted
// and a per-machine dropped counter ticks — the recorder never grows
// without bound and never blocks the data path.
//
// Lamport clocks are per machine and merged over both causal edges: an
// event gets lamport = max(machine_clock, parent, cause) + 1.  The parent
// edge (program order of a module) participates because a module's events
// can land in different machine journals — a control-plane signal is
// recorded where the script runs, not where the module lives.
// An optional observer sees every event at record time (before any ring
// eviction), which is what the online happens-before checker hangs off.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/event.hpp"

namespace surgeon::trace {

class Recorder {
 public:
  struct Journal {
    std::deque<Event> events;
    std::uint64_t lamport = 0;
    std::uint64_t dropped = 0;
  };
  struct LastEvent {
    EventId id = 0;
    std::uint64_t lamport = 0;
  };
  // A pre-resolved (machine journal, module program-order) slot.  The bus
  // caches one per module record so the per-hop path skips both hash
  // lookups; `generation` detects that clear() invalidated the pointers.
  struct Site {
    Journal* journal = nullptr;
    LastEvent* last = nullptr;
    std::uint64_t generation = ~std::uint64_t{0};
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // Events-per-machine bound; evicting beyond it ticks dropped().
  void set_capacity(std::size_t per_machine);
  std::size_t capacity() const { return capacity_; }

  /// Events are stamped with this simulator's virtual clock (0 when none).
  void set_clock(const net::Simulator* sim) { sim_clock_ = sim; }

  // Observers see every event at record time, including ones a full ring
  // will evict later — which is why streaming consumers (the HB checker,
  // the SLO request tracker) are eviction-immune.  Multiple observers can
  // coexist; each add returns an id for removal.
  using ObserverId = std::uint64_t;
  ObserverId add_observer(std::function<void(const Event&)> observer);
  void remove_observer(ObserverId id);

  // Mints a fresh request id for a tagged workload-entry message.  Pass it
  // back inside a synthetic cause context (event == 0) so record_impl
  // inherits the request without fabricating a causal edge.
  std::uint64_t new_request() { return ++next_request_; }

  // Opens a new trace grouping (e.g. one module replacement).  Events
  // recorded without a causal context inherit the current trace id;
  // events with a context inherit the context's.
  std::uint64_t begin_trace(const std::string& name);
  void end_trace() { current_trace_ = 0; }
  std::uint64_t current_trace() const { return current_trace_; }
  const std::string& trace_name(std::uint64_t trace_id) const;

  // Records one event and returns its wire header.  No-op (returns an
  // invalid context) while disabled.
  TraceContext record(EventKind kind, const std::string& machine,
                      const std::string& module, std::string detail,
                      const TraceContext& cause = {});
  // Same, through a caller-held Site (re-resolved lazily when stale).
  TraceContext record_at(Site& site, EventKind kind,
                         const std::string& machine,
                         const std::string& module, std::string detail,
                         const TraceContext& cause = {});
  // Eagerly resolves a Site so a caller registering a module pays the two
  // hash lookups once, up front, instead of on its first recorded event.
  // The Site stays self-healing: clear() bumps the generation and the next
  // record_at re-resolves.
  [[nodiscard]] Site resolve_site(const std::string& machine,
                                  const std::string& module);

  // Journal access.
  std::vector<std::string> machines() const;
  const std::deque<Event>& journal(const std::string& machine) const;
  std::vector<Event> drain(const std::string& machine);
  std::uint64_t dropped(const std::string& machine) const;
  std::uint64_t total_events() const { return next_id_ - 1; }
  void clear();

 private:
  bool enabled_ = false;
  std::size_t capacity_ = 65536;
  const net::Simulator* sim_clock_ = nullptr;
  std::vector<std::pair<ObserverId, std::function<void(const Event&)>>>
      observers_;
  ObserverId next_observer_ = 0;

  Journal& journal_of(const std::string& machine);
  TraceContext record_impl(Journal& journal, LastEvent& last, EventKind kind,
                           const std::string& machine,
                           const std::string& module, std::string detail,
                           const TraceContext& cause);

  // Hash maps on the hot path; node pointers are stable across inserts, so
  // the one-entry cache below survives new machines appearing.
  std::unordered_map<std::string, Journal> journals_;
  std::unordered_map<std::string, LastEvent> last_of_module_;
  // Consecutive events overwhelmingly hit the same machine (bursts are
  // per-link); one comparison beats a hash lookup.
  const std::string* cached_machine_ = nullptr;
  Journal* cached_journal_ = nullptr;
  std::map<std::uint64_t, std::string> trace_names_;
  std::uint64_t generation_ = 0;  // bumped by clear(); staleness check for Site
  EventId next_id_ = 1;
  std::uint64_t next_trace_ = 0;
  std::uint64_t current_trace_ = 0;
  std::uint64_t next_request_ = 0;
};

}  // namespace surgeon::trace
