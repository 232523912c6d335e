#include "common/units.h"

#include <cmath>
#include <cstdio>

namespace wimpy {

namespace {

std::string Format(double value, const char* unit) {
  char buf[64];
  if (value >= 100.0) {
    std::snprintf(buf, sizeof(buf), "%.0f %s", value, unit);
  } else if (value >= 10.0) {
    std::snprintf(buf, sizeof(buf), "%.1f %s", value, unit);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f %s", value, unit);
  }
  return buf;
}

}  // namespace

std::string FormatBytes(Bytes bytes) {
  const double b = static_cast<double>(bytes);
  if (b >= 1e9) return Format(b / 1e9, "GB");
  if (b >= 1e6) return Format(b / 1e6, "MB");
  if (b >= 1e3) return Format(b / 1e3, "KB");
  return Format(b, "B");
}

std::string FormatBitRate(BytesPerSecond rate) {
  const double bits = rate * 8.0;
  if (bits >= 1e9) return Format(bits / 1e9, "Gbit/s");
  if (bits >= 1e6) return Format(bits / 1e6, "Mbit/s");
  if (bits >= 1e3) return Format(bits / 1e3, "Kbit/s");
  return Format(bits, "bit/s");
}

std::string FormatDuration(Duration d) {
  const double abs = std::fabs(d);
  if (abs >= 1.0) return Format(d, "s");
  if (abs >= 1e-3) return Format(d * 1e3, "ms");
  return Format(d * 1e6, "us");
}

}  // namespace wimpy
