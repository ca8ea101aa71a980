// Unit tests for the benchmark's own statistics, input generator and
// result printer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Quantile, InterpolatesBetweenClosestRanks) {
  const std::vector<double> v = {4, 1, 3, 2};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0 / 3), 2);
  EXPECT_DOUBLE_EQ(median({7}), 7);
  EXPECT_DOUBLE_EQ(median({}), 0);
}

TEST(Quantile, P99OfOneToThousand) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(quantile(v, 0.99), 990.01);
  EXPECT_DOUBLE_EQ(median(v), 500.5);
}

TEST(SampleRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_percentile(0), 0);
  EXPECT_EQ(highest_supported_percentile(19), 0);   // 9.5 beyond the median
  EXPECT_EQ(highest_supported_percentile(20), 50);
  EXPECT_EQ(highest_supported_percentile(99), 50);  // 9.9 beyond p90
  EXPECT_EQ(highest_supported_percentile(100), 90);
  EXPECT_EQ(highest_supported_percentile(999), 90);
  EXPECT_EQ(highest_supported_percentile(1000), 99);
  EXPECT_EQ(highest_supported_percentile(9999), 99);
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
}

TEST(BimodalSizes, ModeSharesAndBounds) {
  const std::size_t n = 100000;
  const auto sizes = bimodal_sizes(n, 7);
  ASSERT_EQ(sizes.size(), n);
  std::size_t small = 0, small_low_octave = 0, large_low_octave = 0;
  for (std::size_t s : sizes) {
    const bool is_small = s >= kSmallLo && s <= kSmallHi;
    const bool is_large = s >= kLargeLo && s <= kLargeHi;
    ASSERT_TRUE(is_small || is_large) << s;
    small += is_small;
    small_low_octave += is_small && s < 2 * kSmallLo;
    large_low_octave += is_large && s < 2 * kLargeLo;
  }
  EXPECT_EQ(small, 80000u);  // the mode shares are exact
  // Log-uniform: every octave of a mode carries the same share of it, 1/5
  // of 16..512 B and 1/4 of 8..128 KB.
  auto octave_share = [](std::size_t lo, std::size_t hi) {
    return std::log(2.0) / std::log((hi + 1.0) / lo);
  };
  EXPECT_NEAR(static_cast<double>(small_low_octave) / small,
              octave_share(kSmallLo, kSmallHi), 0.001);
  EXPECT_NEAR(static_cast<double>(large_low_octave) / (n - small),
              octave_share(kLargeLo, kLargeHi), 0.001);
  const auto [lo, hi] = std::minmax_element(sizes.begin(), sizes.end());
  EXPECT_EQ(*lo, kSmallLo);
  EXPECT_GT(*hi, kLargeHi * 99 / 100);
}

TEST(BimodalSizes, SeedsKeepTheByteVolumeButMoveTheMedian) {
  std::vector<double> volume, median_size;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto v = bimodal_sizes(2000, seed);
    double sum = 0;
    for (std::size_t s : v) sum += static_cast<double>(s);
    volume.push_back(sum);
    std::sort(v.begin(), v.end());
    median_size.push_back(static_cast<double>(v[1000]));
  }
  const auto [vlo, vhi] = std::minmax_element(volume.begin(), volume.end());
  EXPECT_LT(*vhi / *vlo, 1.02);
  const auto [mlo, mhi] =
      std::minmax_element(median_size.begin(), median_size.end());
  EXPECT_GT(*mhi, *mlo);
  EXPECT_LT(*mhi / *mlo, 1.05);
}

TEST(BimodalSizes, SameSeedSameSizes) {
  EXPECT_EQ(bimodal_sizes(500, 3), bimodal_sizes(500, 3));
  EXPECT_NE(bimodal_sizes(500, 3), bimodal_sizes(500, 4));
}

TEST(Printer, NamesAndUnits) {
  EXPECT_TRUE(valid_metric_name("msg_lat_p99_us"));
  EXPECT_TRUE(valid_metric_name("host.buffer_mgmt_us_per_msg"));
  EXPECT_TRUE(valid_metric_name("9lives"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_x"));
  EXPECT_FALSE(valid_metric_name("a b"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  for (const char* u : {"ms", "s", "1/s", "count", "MB/s", "%", "ops/s"}) {
    EXPECT_TRUE(valid_unit(u)) << u;
  }
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("micro seconds"));
  EXPECT_FALSE(valid_unit(std::string(17, 's')));
}

TEST(Printer, NumbersKeepAllTheirDigits) {
  EXPECT_EQ(format_number(0), "0");
  EXPECT_EQ(format_number(-0.0), "0");
  EXPECT_EQ(format_number(1.5), "1.5");
  EXPECT_EQ(format_number(12345678), "12345678");
  const double x = 0.1 + 0.2;
  EXPECT_EQ(std::stod(format_number(x)), x);
  EXPECT_EQ(format_number(x), "0.30000000000000004");
  EXPECT_THROW(format_number(std::nan("")), std::invalid_argument);
  EXPECT_THROW(format_number(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(Printer, ResultLine) {
  const std::string line = result_json(
      true, 1000, 0, {{"latency_ms", 1.25, "ms"}, {"setup_s", 0.5, "s"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
  EXPECT_EQ(result_json(false, 3, 1, {}),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, "
            "\"metrics\": {}}");
}

TEST(Printer, RejectsInvalidMetrics) {
  EXPECT_THROW(result_json(true, 1, 0, {{"a", 1, "s"}, {"a", 2, "s"}}),
               std::invalid_argument);
  EXPECT_THROW(result_json(true, 1, 0, {{"a b", 1, "s"}}),
               std::invalid_argument);
  EXPECT_THROW(result_json(true, 1, 0, {{"a", 1, "µs"}}),
               std::invalid_argument);
  EXPECT_THROW(result_json(true, 1, 0, {{"a", std::nan(""), "s"}}),
               std::invalid_argument);
}

TEST(Printer, EscapesStrings) {
  EXPECT_EQ(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
  EXPECT_EQ(json_string(std::string(1, '\x01')), "\"\\u0001\"");
}

}  // namespace
}  // namespace perfbench
