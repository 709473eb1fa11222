#include "stats.h"

#include <algorithm>
#include <cmath>

namespace ppj::perfbench {

namespace {

/// 1-based nearest rank of the `pct` percentile among `n` samples.
std::size_t NearestRank(std::size_t n, double pct) {
  if (n == 0) return 0;
  // The epsilon keeps exact products (90% of 100) from rounding up.
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(rank, 1.0)),
                                 1, n);
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2;
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0;
  const std::size_t k = NearestRank(values.size(), pct) - 1;
  std::nth_element(values.begin(), values.begin() + k, values.end());
  return values[k];
}

std::size_t SamplesBeyond(std::size_t n, double pct) {
  return n - NearestRank(n, pct);
}

double TailPercentile(std::size_t n) {
  for (double pct : {90.0, 75.0}) {
    if (SamplesBeyond(n, pct) >= kMinBeyond) return pct;
  }
  return 50.0;
}

}  // namespace ppj::perfbench
