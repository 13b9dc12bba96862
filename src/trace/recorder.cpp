#include "trace/recorder.hpp"

#include <algorithm>

namespace surgeon::trace {

const char* kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kSend: return "send";
    case EventKind::kDeliver: return "deliver";
    case EventKind::kReceive: return "receive";
    case EventKind::kDrop: return "drop";
    case EventKind::kRetransmit: return "retransmit";
    case EventKind::kDupDiscard: return "dup_discard";
    case EventKind::kSignal: return "signal";
    case EventKind::kCapture: return "capture";
    case EventKind::kDivulge: return "divulge";
    case EventKind::kStateDeliver: return "state_deliver";
    case EventKind::kRestore: return "restore";
    case EventKind::kRebind: return "rebind";
    case EventKind::kModuleAdded: return "module_added";
    case EventKind::kModuleRemoved: return "module_removed";
    case EventKind::kCrash: return "crash";
    case EventKind::kHeartbeat: return "heartbeat";
    case EventKind::kSuspect: return "suspect";
    case EventKind::kCheckpoint: return "checkpoint";
    case EventKind::kRecover: return "recover";
  }
  return "?";
}

void Recorder::set_capacity(std::size_t per_machine) {
  capacity_ = std::max<std::size_t>(1, per_machine);
  for (auto& [name, journal] : journals_) {
    while (journal.events.size() > capacity_) {
      journal.events.pop_front();
      ++journal.dropped;
    }
  }
}

Recorder::ObserverId Recorder::add_observer(
    std::function<void(const Event&)> observer) {
  const ObserverId id = ++next_observer_;
  observers_.emplace_back(id, std::move(observer));
  return id;
}

void Recorder::remove_observer(ObserverId id) {
  if (id == 0) return;
  for (auto it = observers_.begin(); it != observers_.end(); ++it) {
    if (it->first == id) {
      observers_.erase(it);
      break;
    }
  }
}

std::uint64_t Recorder::begin_trace(const std::string& name) {
  current_trace_ = ++next_trace_;
  trace_names_[current_trace_] = name;
  return current_trace_;
}

const std::string& Recorder::trace_name(std::uint64_t trace_id) const {
  static const std::string kEmpty;
  auto it = trace_names_.find(trace_id);
  return it == trace_names_.end() ? kEmpty : it->second;
}

Recorder::Journal& Recorder::journal_of(const std::string& machine) {
  if (cached_machine_ != nullptr && *cached_machine_ == machine) {
    return *cached_journal_;
  }
  auto [it, inserted] = journals_.try_emplace(machine);
  (void)inserted;
  cached_machine_ = &it->first;
  cached_journal_ = &it->second;
  return it->second;
}

TraceContext Recorder::record(EventKind kind, const std::string& machine,
                              const std::string& module, std::string detail,
                              const TraceContext& cause) {
  if (!enabled_) return {};
  return record_impl(journal_of(machine), last_of_module_[module], kind,
                     machine, module, std::move(detail), cause);
}

TraceContext Recorder::record_at(Site& site, EventKind kind,
                                 const std::string& machine,
                                 const std::string& module, std::string detail,
                                 const TraceContext& cause) {
  if (!enabled_) return {};
  if (site.generation != generation_) {
    // unordered_map node addresses are stable across inserts, so the
    // resolved pointers stay good until clear() drops the nodes.
    site.journal = &journal_of(machine);
    site.last = &last_of_module_[module];
    site.generation = generation_;
  }
  return record_impl(*site.journal, *site.last, kind, machine, module,
                     std::move(detail), cause);
}

Recorder::Site Recorder::resolve_site(const std::string& machine,
                                      const std::string& module) {
  return Site{&journal_of(machine), &last_of_module_[module], generation_};
}

TraceContext Recorder::record_impl(Journal& journal, LastEvent& last,
                                   EventKind kind, const std::string& machine,
                                   const std::string& module,
                                   std::string detail,
                                   const TraceContext& cause) {
  Event ev;
  ev.id = next_id_++;
  ev.parent = last.id;
  ev.cause = cause.event;
  // Merge over both causal edges: the parent (program order) may live in
  // another machine's journal, so the machine clock alone need not
  // dominate it.
  ev.lamport =
      std::max({journal.lamport, last.lamport, cause.lamport}) + 1;
  journal.lamport = ev.lamport;
  ev.trace_id = cause.valid() ? cause.trace_id : current_trace_;
  // The request rides the cause edge only: a synthetic entry context
  // (event == 0, request != 0) seeds it without creating a false edge.
  ev.request = cause.request;
  ev.at = sim_clock_ != nullptr ? sim_clock_->now() : 0;
  ev.kind = kind;
  ev.machine = machine;
  ev.module = module;
  ev.detail = std::move(detail);
  last = {ev.id, ev.lamport};
  TraceContext ctx{ev.trace_id, ev.id, ev.lamport, ev.request};
  for (const auto& [id, fn] : observers_) fn(ev);
  if (journal.events.size() >= capacity_) {
    journal.events.pop_front();
    ++journal.dropped;
  }
  journal.events.push_back(std::move(ev));
  return ctx;
}

std::vector<std::string> Recorder::machines() const {
  std::vector<std::string> names;
  names.reserve(journals_.size());
  for (const auto& [name, journal] : journals_) names.push_back(name);
  std::sort(names.begin(), names.end());  // hash-map order is arbitrary
  return names;
}

const std::deque<Event>& Recorder::journal(const std::string& machine) const {
  static const std::deque<Event> kEmpty;
  auto it = journals_.find(machine);
  return it == journals_.end() ? kEmpty : it->second.events;
}

std::vector<Event> Recorder::drain(const std::string& machine) {
  auto it = journals_.find(machine);
  if (it == journals_.end()) return {};
  std::vector<Event> out(it->second.events.begin(), it->second.events.end());
  it->second.events.clear();
  return out;
}

std::uint64_t Recorder::dropped(const std::string& machine) const {
  auto it = journals_.find(machine);
  return it == journals_.end() ? 0 : it->second.dropped;
}

void Recorder::clear() {
  ++generation_;  // any Site a caller still holds re-resolves on next use
  journals_.clear();
  cached_machine_ = nullptr;
  cached_journal_ = nullptr;
  last_of_module_.clear();
  trace_names_.clear();
  next_id_ = 1;
  next_trace_ = 0;
  current_trace_ = 0;
  next_request_ = 0;
}

}  // namespace surgeon::trace
