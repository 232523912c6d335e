#include "kernels/sysbench.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <vector>

namespace wimpy::kernels {

std::int64_t CountPrimes(std::int64_t limit) {
  std::int64_t count = 0;
  for (std::int64_t c = 3; c <= limit; ++c) {
    bool prime = true;
    for (std::int64_t t = 2; t * t <= c; ++t) {
      if (c % t == 0) {
        prime = false;
        break;
      }
    }
    if (prime) ++count;
  }
  return limit >= 2 ? count + 1 : count;
}

double SysbenchCpuEventDemandMinstr(std::int64_t max_prime) {
  // Calibration anchor: 36.0 Minstr per event at max_prime = 20000 puts one
  // Edison thread (632.3 DMIPS) at 56.9 ms/event -> 569 s for 10000 events,
  // and one Dell thread (11383 DMIPS) at 3.16 ms/event -> 31.6 s, the
  // measured 18x gap.
  constexpr double kAnchorDemand = 36.0;
  constexpr double kAnchorMaxPrime = 20000.0;
  const double scale =
      std::pow(static_cast<double>(max_prime) / kAnchorMaxPrime, 1.5);
  return kAnchorDemand * scale;
}

MemoryBenchResult RunHostMemoryBench(Bytes block_size, Bytes total_bytes) {
  MemoryBenchResult result;
  result.block_size = block_size;
  result.threads = 1;
  std::vector<char> src(static_cast<std::size_t>(block_size), 'x');
  std::vector<char> dst(static_cast<std::size_t>(block_size));
  const std::int64_t ops = std::max<std::int64_t>(1, total_bytes / block_size);
  const auto start = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < ops; ++i) {
    std::memcpy(dst.data(), src.data(), static_cast<std::size_t>(block_size));
    // Touch a byte so the copy is observable.
    src[static_cast<std::size_t>(i % block_size)] =
        static_cast<char>(dst[0] + 1);
  }
  const auto end = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(end - start).count();
  result.rate = seconds > 0
                    ? static_cast<double>(ops * block_size) / seconds
                    : 0;
  return result;
}

BytesPerSecond ModelMemoryRate(const hw::MemorySpec& spec, Bytes block_size,
                               int threads) {
  // Per-operation overhead makes small blocks inefficient; 256 KiB blocks
  // reach ~94% of peak, matching the measured plateau from 256 KiB to 1 MiB.
  constexpr double kOverheadBytes = 16.0 * 1024.0;
  const double efficiency =
      static_cast<double>(block_size) /
      (static_cast<double>(block_size) + kOverheadBytes);
  const double raw = std::min(spec.peak_bandwidth,
                              spec.per_thread_bandwidth * threads);
  return raw * efficiency;
}

}  // namespace wimpy::kernels
