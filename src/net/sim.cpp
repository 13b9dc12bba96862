#include "net/sim.hpp"

#include "support/diag.hpp"

namespace surgeon::net {

using support::BusError;

void Simulator::add_machine(const std::string& name, Arch arch) {
  auto [it, inserted] = machines_.emplace(name, Machine{name, std::move(arch)});
  if (!inserted) throw BusError("machine already registered: " + name);
}

const Machine& Simulator::machine(const std::string& name) const {
  auto it = machines_.find(name);
  if (it == machines_.end()) throw BusError("unknown machine: " + name);
  return it->second;
}

DurableStore& Simulator::durable_store(const std::string& machine) {
  if (!machines_.contains(machine)) {
    throw BusError("unknown machine: " + machine);
  }
  return stores_[machine];
}

const DurableStore& Simulator::durable_store(const std::string& machine) const {
  return const_cast<Simulator*>(this)->durable_store(machine);
}

std::vector<std::string> Simulator::machine_names() const {
  std::vector<std::string> names;
  names.reserve(machines_.size());
  for (const auto& [name, m] : machines_) names.push_back(name);
  return names;
}

SimTime Simulator::message_latency(const std::string& a, const std::string& b) {
  return link_latency(a == b);
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  // Move the closure out and free its record before running it: the event
  // may schedule more events, which can reuse the record or grow the pool
  // (moving every record).
  detail::EventClosure fn = std::move(pool_[key.slot]);
  free_.push_back(key.slot);
  // Monotone clock: advance_time (instruction cost) may have pushed `now`
  // past already-scheduled events; those fire late -- the compute consumed
  // their interval -- rather than rewinding virtual time.
  if (key.time > now_us_) now_us_ = key.time;
  fn();
  return true;
}

std::size_t Simulator::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

}  // namespace surgeon::net
