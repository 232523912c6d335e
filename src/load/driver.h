// The open-loop arrival driver (docs/openloop.md): one coroutine that
// turns an ArrivalProcess into admitted requests for every open-loop
// experiment (kv::KvExperiment, shard::ShardExperiment and
// web::WebExperiment::MeasureOpenLoop).
//
// Per arrival, in this order: draw the gap (`NextGap`), sleep it, fork
// the request's own random stream (`Fork`), then ask the gate (`Admit`).
// A dispatched request goes to the caller's `dispatch(intended, stream)`;
// a queued one waits in the gate with its stream; a shed one is recorded.
// The order is the stream contract: every seeded result (goldens, BENCH
// cells, perfbench fingerprints) depends on it.
#ifndef WIMPY_LOAD_DRIVER_H_
#define WIMPY_LOAD_DRIVER_H_

#include <utility>

#include "common/random.h"
#include "common/units.h"
#include "load/arrival.h"
#include "load/openloop.h"
#include "sim/process.h"

namespace wimpy::load {

// Drives arrivals until the first one at or after `end`, which is not
// admitted. `dispatch` is called as `dispatch(SimTime intended, Rng
// stream)` and typically spawns the request; the gate, the recorder and
// everything `dispatch` refers to must outlive the run.
template <typename Dispatch>
sim::Process DriveOpenLoop(sim::Scheduler& sched, ArrivalConfig shape,
                           SimTime end, OpenLoopGate& gate,
                           OpenLoopRecorder& recorder, Rng rng,
                           Dispatch dispatch) {
  ArrivalProcess arrivals(shape);
  while (sched.now() < end) {
    co_await sim::Delay(sched, arrivals.NextGap(rng));
    if (sched.now() >= end) break;
    const SimTime intended = sched.now();
    Rng child = rng.Fork();
    switch (gate.Admit()) {
      case Admission::kDispatch:
        dispatch(intended, std::move(child));
        break;
      case Admission::kQueue:
        gate.Enqueue(intended, std::move(child));
        break;
      case Admission::kShed:
        recorder.OnShed(intended);
        break;
    }
  }
}

}  // namespace wimpy::load

#endif  // WIMPY_LOAD_DRIVER_H_
