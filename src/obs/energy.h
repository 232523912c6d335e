// Per-span energy attribution (see docs/observability.md).
//
// The paper's headline metric is work-done-per-joule; hw::NodePowerModel
// integrates each node's piecewise-constant P(t) exactly, but by itself
// that answers "what did the node burn", not "what did this request
// burn". An `EnergyAttributor` closes the gap: it subscribes to every
// observed node's power-change events and keeps, per node, the set of
// causal spans currently *resident* there (a request being served, a KV
// get, a replication write). Between consecutive boundary events — a
// power change, a span entering or leaving, a window mark — P(t) is
// constant, so the energy of the interval is exact on the simulated
// clock; it is split equally among the spans resident for that interval,
// or accrued as `unattributed` (idle/background) when none are.
//
// Everything is driven by simulated-clock callbacks in deterministic
// order, so ledgers — like traces — are byte-identical at any --threads
// once per-replication attributors are merged in index order.
//
// Ownership: the attributor borrows nothing after the subscription
// closure is installed; `hw::ServerNode::ObserveEnergy` wires the
// closure so layering stays one-way (obs knows no hw types).
#ifndef WIMPY_OBS_ENERGY_H_
#define WIMPY_OBS_ENERGY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/units.h"
#include "obs/context.h"
#include "sim/frame_pool.h"

namespace wimpy::obs {

// One attribution row: the joules a span consumed on one node. A span
// that touches several nodes (e.g. a replicated write) gets one row per
// node, in first-residency order.
struct SpanEnergyRow {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  const char* name = "";
  int node_id = 0;
  Joules joules = 0;
};

// The detached result of a replication: plain data, mergeable.
struct EnergyLedger {
  std::vector<SpanEnergyRow> rows;
  // Node energy accrued while no span was resident (idle + background).
  Joules unattributed_joules = 0;
  // All observed nodes, whole run: rows + unattributed == total exactly.
  Joules total_joules = 0;
  // Subtotal accrued between BeginWindow() and EndWindow() — the same
  // number the experiments difference out of CumulativeJoules for their
  // measurement window, re-derivable here from the trace side.
  Joules window_joules = 0;
};

class EnergyAttributor {
 public:
  EnergyAttributor() = default;

  EnergyAttributor(const EnergyAttributor&) = delete;
  EnergyAttributor& operator=(const EnergyAttributor&) = delete;

  // Starts observing a node at the scheduler's current time and returns
  // the power-change listener to install via
  // `hw::NodePowerModel::SetPowerListener` (callers use
  // `hw::ServerNode::ObserveEnergy`, which wires it). `initial_watts` is
  // the node's current level at subscription time.
  std::function<void(SimTime, Watts)> ObserveNode(sim::Scheduler* sched,
                                                  int node_id,
                                                  Watts initial_watts);

  // Settles every observed node at the scheduler's current time, then
  // stops observing them and forgets the scheduler; the ledger is kept.
  // A testbed calls this as it is torn down, so a later TakeLedger or
  // window mark reads nothing of the destroyed scheduler or nodes.
  void UnobserveAll();

  bool observing(int node_id) const {
    return nodes_.find(node_id) != nodes_.end();
  }
  std::size_t node_count() const { return nodes_.size(); }

  // Span residency. Entering an unobserved node (e.g. a client machine)
  // or passing a null handle is a no-op, so call sites can be
  // unconditional. `name` must have static or tracer-interned lifetime.
  void SpanEnter(int node_id, const TraceHandle& handle, const char* name);
  void SpanLeave(int node_id, const TraceHandle& handle);

  // Measurement-window marks at the scheduler's current time; energy
  // accrued between the marks lands in `EnergyLedger::window_joules`.
  void BeginWindow();
  void EndWindow();

  // Settles all nodes at the current time and moves the ledger out,
  // zeroing the accumulators but keeping node subscriptions live. After
  // UnobserveAll there is nothing left to settle.
  EnergyLedger TakeLedger();

 private:
  struct NodeState {
    Watts watts = 0;
    SimTime last = 0;
    std::vector<std::size_t> resident_rows;  // indices into ledger_.rows
  };

  void Accrue(NodeState& node, SimTime now);
  void AccrueAll();

  sim::Scheduler* sched_ = nullptr;
  bool in_window_ = false;
  std::map<int, NodeState> nodes_;
  // (span_id, node_id) -> row index, so re-entering accumulates.
  std::map<std::pair<std::uint64_t, int>, std::size_t> row_index_;
  EnergyLedger ledger_;
};

// RAII residency: enters on construction, leaves on destruction. No-op
// for a null handle or an unobserved node — stack it right next to the
// CausalSpan whose work runs on `node_id`. Like CausalSpan, it is one
// null pointer unless both the attributor and the handle are non-null;
// only then does it copy the handle into a frame-pool record.
class ScopedResidency {
 public:
  ScopedResidency() = default;
  ScopedResidency(EnergyAttributor* attributor, int node_id,
                  const TraceHandle& handle, const char* name) {
    if (attributor == nullptr || !handle) return;
    rec_ = ::new (sim::PoolAlloc(sizeof(Record)))
        Record{attributor, node_id, handle};
    attributor->SpanEnter(node_id, handle, name);
  }
  ~ScopedResidency() { Leave(); }

  ScopedResidency(const ScopedResidency&) = delete;
  ScopedResidency& operator=(const ScopedResidency&) = delete;
  // Moving hands the residency over; assigning leaves the one held here
  // first, so assigning `ScopedResidency()` leaves mid-scope.
  ScopedResidency(ScopedResidency&& other) noexcept
      : rec_(std::exchange(other.rec_, nullptr)) {}
  ScopedResidency& operator=(ScopedResidency&& other) noexcept {
    if (this != &other) {
      Leave();
      rec_ = std::exchange(other.rec_, nullptr);
    }
    return *this;
  }

 private:
  void Leave() noexcept {
    if (rec_ == nullptr) return;
    rec_->attributor->SpanLeave(rec_->node_id, rec_->handle);
    sim::PoolFree(rec_, sizeof(Record));  // Record is trivially destructible
    rec_ = nullptr;
  }

  struct Record {
    EnergyAttributor* attributor;
    int node_id;
    TraceHandle handle;
  };
  static_assert(std::is_trivially_destructible_v<Record>);

  Record* rec_ = nullptr;
};

}  // namespace wimpy::obs

#endif  // WIMPY_OBS_ENERGY_H_
