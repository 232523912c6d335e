// Unit vocabulary used throughout the library.
//
// Simulated time, data sizes, rates, power and energy all travel as plain
// doubles/integers wrapped in descriptive aliases plus conversion and
// formatting helpers. We deliberately avoid a heavyweight dimensional-
// analysis template layer: the simulation hot path manipulates these values
// constantly and the alias-plus-helper style keeps call sites readable
// (`MiB(64)`, `Mbps(100)`) without obscuring arithmetic.
#ifndef WIMPY_COMMON_UNITS_H_
#define WIMPY_COMMON_UNITS_H_

#include <cstdint>
#include <string>

namespace wimpy {

// Simulated wall-clock time in seconds.
using SimTime = double;
// Duration in seconds.
using Duration = double;
// Data size in bytes.
using Bytes = std::int64_t;
// Data rate in bytes per second.
using BytesPerSecond = double;
// Abstract CPU work units (calibrated to Dhrystone iterations).
using WorkUnits = double;
// CPU work rate in units per second.
using WorkRate = double;
// Electrical power in watts.
using Watts = double;
// Electrical energy in joules.
using Joules = double;

// -- Size constructors -------------------------------------------------------

constexpr Bytes KiB(double n) { return static_cast<Bytes>(n * 1024.0); }
constexpr Bytes MiB(double n) { return static_cast<Bytes>(n * 1024.0 * 1024.0); }
constexpr Bytes GiB(double n) {
  return static_cast<Bytes>(n * 1024.0 * 1024.0 * 1024.0);
}
constexpr Bytes KB(double n) { return static_cast<Bytes>(n * 1e3); }
constexpr Bytes MB(double n) { return static_cast<Bytes>(n * 1e6); }
constexpr Bytes GB(double n) { return static_cast<Bytes>(n * 1e9); }

// -- Rate constructors -------------------------------------------------------

// Network rates follow networking convention: bits per second on the wire.
constexpr BytesPerSecond Kbps(double n) { return n * 1e3 / 8.0; }
constexpr BytesPerSecond Mbps(double n) { return n * 1e6 / 8.0; }
constexpr BytesPerSecond Gbps(double n) { return n * 1e9 / 8.0; }
// Storage/memory rates follow storage convention: bytes per second.
constexpr BytesPerSecond MBps(double n) { return n * 1e6; }
constexpr BytesPerSecond GBps(double n) { return n * 1e9; }

// -- Time constructors -------------------------------------------------------

constexpr Duration Microseconds(double n) { return n * 1e-6; }
constexpr Duration Milliseconds(double n) { return n * 1e-3; }
constexpr Duration Seconds(double n) { return n; }
constexpr Duration Minutes(double n) { return n * 60.0; }
constexpr Duration Hours(double n) { return n * 3600.0; }

// -- Random-draw truncation ---------------------------------------------------

// Truncates a randomly drawn size into a valid Bytes value of at least
// max(floor, 1). Casting a negative, NaN, or >INT64_MAX double straight to
// Bytes is undefined behaviour, so every drawn size must pass through here
// *before* entering the integer domain; draws already in
// [max(floor,1), 2^62] are returned unchanged.
inline Bytes DrawnBytes(double draw, Bytes floor) {
  const Bytes lo = floor < 1 ? 1 : floor;
  // The comparison is written so NaN falls through to the floor.
  if (!(draw >= static_cast<double>(lo))) return lo;
  constexpr double kMax = 4.6e18;  // < 2^63, exactly representable
  if (draw >= kMax) return static_cast<Bytes>(kMax);
  return static_cast<Bytes>(draw);
}

// -- Conversions for reporting ----------------------------------------------

constexpr double ToMilliseconds(Duration d) { return d * 1e3; }
constexpr double ToMbps(BytesPerSecond r) { return r * 8.0 / 1e6; }
constexpr double ToMBps(BytesPerSecond r) { return r / 1e6; }
constexpr double ToGBps(BytesPerSecond r) { return r / 1e9; }
constexpr double ToKWh(Joules j) { return j / 3.6e6; }

// -- Formatting helpers -------------------------------------------------------

// "1.5 KB", "64.0 MB", ... (decimal units, two significant decimals).
std::string FormatBytes(Bytes bytes);
// "93.9 Mbit/s", "1.0 Gbit/s", ...
std::string FormatBitRate(BytesPerSecond rate);
// "18.0 ms", "1.30 s", "7.0 us", ...
std::string FormatDuration(Duration d);

}  // namespace wimpy

#endif  // WIMPY_COMMON_UNITS_H_
