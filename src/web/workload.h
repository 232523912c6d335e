// Web-service workload description (paper §5.1.1).
//
// The paper's dataset is a MySQL import of Wikipedia dumps plus crawled
// images: 15 tables, 11 with simple fields and 4 with image blobs
// (~30 KB average). Only the reply size, the image fraction and the cache
// hit ratio reach the measured quantities, so a request draws just those:
// an image flag at the mix's image fraction, a normal reply size (plain
// rows ~1.5 KB, image rows ~44 KB), and a cache hit at the mix's ratio.
// The ratios (93 / 77 / 60 %) are the paper's measured operating points,
// taken as inputs.
#ifndef WIMPY_WEB_WORKLOAD_H_
#define WIMPY_WEB_WORKLOAD_H_

#include "common/random.h"
#include "common/units.h"

namespace wimpy::web {

struct RequestSpec {
  bool is_image = false;
  Bytes reply_bytes = 0;
  bool cache_hit = false;
};

// Parameters of one workload configuration.
struct WorkloadMix {
  // Probability a request touches an image table (0, 0.06, 0.10, 0.20).
  double image_fraction = 0.0;
  // Steady-state cache hit ratio (an input: the paper's 93 / 77 / 60 %).
  double cache_hit_ratio = 0.93;
  // Reply-size distribution parameters. Plain rows are small and tight;
  // image replies are dominated by the blob.
  Bytes plain_reply_mean = KB(1.5);
  Bytes plain_reply_stddev = KB(0.4);
  Bytes image_reply_mean = KB(44);
  Bytes image_reply_stddev = KB(12);
  // HTTP request (upstream) size.
  Bytes request_bytes = 200;

  // Expected mean reply size for this mix.
  double MeanReplyBytes() const {
    return (1.0 - image_fraction) * static_cast<double>(plain_reply_mean) +
           image_fraction * static_cast<double>(image_reply_mean);
  }

  // Draws one request.
  RequestSpec Sample(Rng& rng) const;
};

// The four workload mixes evaluated in Figures 4-9.
WorkloadMix LightMix();               // 0% image, 93% cache (Fig 4/7)
WorkloadMix MixWithCacheRatio(double ratio);  // Fig 5/8 cache sweeps
WorkloadMix MixWithImagePercent(double image_fraction);  // Fig 5/8 image
WorkloadMix HeavyMix();               // 20% image, 93% cache (Fig 6/9)

}  // namespace wimpy::web

#endif  // WIMPY_WEB_WORKLOAD_H_
