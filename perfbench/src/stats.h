#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace ppj::perfbench {

/// A tail percentile is reported only when at least this many samples lie
/// beyond it (choosing-metrics §1).
inline constexpr std::size_t kMinBeyond = 10;

/// Median of `values`: the mean of the two middle samples for an even
/// count, 0 for none.
double Median(std::vector<double> values);

/// Nearest-rank percentile: the smallest sample with at least `pct` percent
/// of the samples at or below it. 0 for none.
double Percentile(std::vector<double> values, double pct);

/// Number of samples strictly beyond the nearest-rank `pct` percentile of
/// `n` samples.
std::size_t SamplesBeyond(std::size_t n, double pct);

/// The tail percentile a run of `n` samples reports: p90 when at least
/// kMinBeyond samples lie beyond it, otherwise p75, otherwise p50.
double TailPercentile(std::size_t n);

}  // namespace ppj::perfbench

#endif  // PERFBENCH_STATS_H_
