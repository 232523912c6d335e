// Sysbench-equivalent CPU and memory kernels (paper §4.1, §4.2).
//
// The CPU test finds all primes below a limit by trial division; the memory
// test streams blocks through a buffer. Both have a host-executable form
// and a calibrated simulation-demand form so Figures 2/3 and the §4.2
// bandwidth table can be regenerated on simulated Edison/Dell hardware.
#ifndef WIMPY_KERNELS_SYSBENCH_H_
#define WIMPY_KERNELS_SYSBENCH_H_

#include <cstdint>

#include "common/units.h"
#include "hw/profile.h"

namespace wimpy::kernels {

// --- CPU test ---------------------------------------------------------------

// Host execution: counts primes <= limit by trial division (the sysbench
// 0.5 "cpu" loop body).
std::int64_t CountPrimes(std::int64_t limit);

// sysbench runs a fixed number of "events", each computing all primes below
// `max_prime`. Default parameters used in the paper's plots.
inline constexpr int kSysbenchEvents = 10000;
inline constexpr std::int64_t kSysbenchMaxPrime = 20000;

// Simulated demand per event, in Minstr. Calibrated so one Edison thread
// completes the 10000-event test in ~570 s and one Dell thread in ~32 s —
// the 15-18x single-thread gap of Figures 2/3. Scales as n^1.5, the cost of
// trial division up to sqrt(n) for all candidates.
double SysbenchCpuEventDemandMinstr(std::int64_t max_prime);

// --- Memory test -------------------------------------------------------------

struct MemoryBenchResult {
  Bytes block_size = 0;
  int threads = 0;
  BytesPerSecond rate = 0;
};

// Host execution: streams `total_bytes` through a `block_size` buffer and
// returns the achieved rate (single thread).
MemoryBenchResult RunHostMemoryBench(Bytes block_size, Bytes total_bytes);

// Analytic model of the sysbench memory result on a hardware profile:
// threads scale the rate linearly up to bus saturation, and small blocks
// pay a fixed per-operation overhead (rates plateau for 256 KiB..1 MiB
// blocks, matching §4.2).
BytesPerSecond ModelMemoryRate(const hw::MemorySpec& spec, Bytes block_size,
                               int threads);

}  // namespace wimpy::kernels

#endif  // WIMPY_KERNELS_SYSBENCH_H_
