#include "stats.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double highest_supported_percentile(std::size_t n) {
  double best = 0;
  for (double p : kPercentiles) {
    // Compare in integer tenths of a percent so 99.9 is exact.
    const auto tenths = static_cast<std::uint64_t>(std::lround(p * 10));
    if (static_cast<std::uint64_t>(n) * (1000 - tenths) >= 10 * 1000) {
      best = p;
    }
  }
  return best;
}

std::uint64_t SplitMix::next() {
  std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SplitMix::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t SplitMix::below(std::uint64_t n) {
  return n == 0 ? 0 : next() % n;
}

namespace {

/// Log-uniform on [lo, hi] at quantile u in [0, 1).
std::size_t log_uniform(double u, std::size_t lo, std::size_t hi) {
  const double a = std::log(static_cast<double>(lo));
  const double b = std::log(static_cast<double>(hi) + 1.0);
  const double x = std::exp(a + u * (b - a));
  return std::clamp(static_cast<std::size_t>(x), lo, hi);
}

/// `k` stratified draws from one mode.
void draw_mode(SplitMix& rng, std::size_t k, std::size_t lo, std::size_t hi,
               std::vector<std::size_t>& out) {
  const std::size_t strata = std::max<std::size_t>(1, k / kDrawsPerStratum);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t stratum = i * strata / k;
    const double u = (static_cast<double>(stratum) + rng.uniform()) /
                     static_cast<double>(strata);
    out.push_back(log_uniform(u, lo, hi));
  }
}

}  // namespace

std::vector<std::size_t> bimodal_sizes(std::size_t n, std::uint64_t seed) {
  SplitMix rng(seed);
  const auto small = static_cast<std::size_t>(
      std::llround(static_cast<double>(n) * kSmallShare));
  std::vector<std::size_t> out;
  out.reserve(n);
  draw_mode(rng, small, kSmallLo, kSmallHi, out);
  draw_mode(rng, n - small, kLargeLo, kLargeHi, out);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(out[i - 1], out[rng.below(i)]);
  }
  return out;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

bool valid_unit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '/' || c == '%' || c == '.' || c == '-';
  });
}

std::string format_number(double v) {
  if (!std::isfinite(v)) {
    throw std::invalid_argument("format_number: non-finite value");
  }
  if (v == 0) return "0";  // also folds -0
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::set<std::string> seen;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!valid_metric_name(m.name) || !seen.insert(m.name).second) {
      throw std::invalid_argument("result_json: bad or repeated name " +
                                  m.name);
    }
    if (!valid_unit(m.unit)) {
      throw std::invalid_argument("result_json: bad unit for " + m.name);
    }
    if (!first) out += ", ";
    first = false;
    out += json_string(m.name) + ": {\"value\": " + format_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
