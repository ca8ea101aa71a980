// Statistics, input generation and result printing for the repository
// benchmark. Nothing here touches the simulator, so it is unit-tested on its
// own (tests/stats_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Quantile `q` in [0, 1] of `v` by linear interpolation between closest
/// ranks (numpy's default). `v` need not be sorted; empty input gives 0.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Percentiles a timing may be reported at, lowest first.
inline constexpr double kPercentiles[] = {50.0, 90.0, 99.0, 99.9};

/// The highest percentile of kPercentiles with at least ten of `n` samples
/// beyond it (n * (1 - p/100) >= 10), or 0 if even the median has fewer. A
/// tail percentile is only meaningful at or below it.
double highest_supported_percentile(std::size_t n);

/// Deterministic 64-bit generator (splitmix64): the benchmark's inputs are
/// a function of the seed alone, independent of the standard library.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t s_;
};

/// The two-mode message-size mix of mpi_p2p: a kSmallShare of the sizes
/// log-uniform on [kSmallLo, kSmallHi] (eager-sized), the rest log-uniform
/// on [kLargeLo, kLargeHi] (rendezvous/RDMA-sized). Bounds are inclusive.
inline constexpr double kSmallShare = 0.8;
inline constexpr std::size_t kSmallLo = 16;
inline constexpr std::size_t kSmallHi = 512;
inline constexpr std::size_t kLargeLo = 8 * 1024;
inline constexpr std::size_t kLargeHi = 128 * 1024;

/// `n` sizes drawn from the mix; the same seed gives the same sizes.
/// Exactly round(n * kSmallShare) sizes come from the small mode. Within a
/// mode the draw is stratified: its quantile range is cut into
/// equal-probability strata of about kDrawsPerStratum draws each. A seed
/// change then moves which sizes are drawn and their order (a seeded
/// shuffle), but hardly moves the byte volume or the quantiles, so runs on
/// different seeds do the same amount of work.
inline constexpr std::size_t kDrawsPerStratum = 16;
std::vector<std::size_t> bimodal_sizes(std::size_t n, std::uint64_t seed);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// True if `name` is a valid metric name: starts with a letter or digit,
/// at most 64 of letters, digits, '_', '.', '-'.
bool valid_metric_name(const std::string& name);
/// True if `unit` is 1..16 of letters, digits, '_', '/', '%', '.', '-'.
bool valid_unit(const std::string& unit);

/// Shortest decimal that reads back as exactly `v` (all its digits).
/// Throws std::invalid_argument for NaN or infinity, which JSON cannot hold.
std::string format_number(double v);

/// JSON string literal for `s` (quotes and escapes included).
std::string json_string(const std::string& s);

/// The result line: {"correct", "attempted", "failed", "metrics"}, metrics
/// in the given order. Throws std::invalid_argument on an invalid or
/// repeated name, an invalid unit, or a non-finite value.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
