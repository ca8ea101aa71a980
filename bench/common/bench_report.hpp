// The one BENCH_*.json layout every wall-clock and protocol bench writes,
// and scripts/bench_check.py reads:
//
//   {"bench": name,
//    "machine": {"cpus", "cpu_model", "build_type"},
//    "config":  {...run parameters...},
//    "summary": {...scalar results...},
//    "rows":    {"<table>": [{...flat row...}, ...], ...}}
//
// Values are written in the order they are added. Doubles carry an explicit
// precision; non-finite doubles are written as null, which the checker
// treats as a missing value (and therefore a failed gate).
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fmx::bench {

/// One flat JSON object: keys in insertion order, values pre-rendered.
class Fields {
 public:
  Fields& num(std::string_view key, double v, int precision);
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Fields& num(std::string_view key, T v) {
    return raw(key, std::to_string(v));
  }
  Fields& str(std::string_view key, std::string_view v);
  Fields& flag(std::string_view key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  /// A 64-bit digest as 16 hex digits (a string: JSON numbers are doubles).
  Fields& hex(std::string_view key, std::uint64_t v);

 private:
  friend class Report;
  /// `{"k": v, ...}` on one line.
  std::string inline_json() const;
  /// One key per line, each indented by `indent` spaces.
  std::string block_json(int indent) const;
  Fields& raw(std::string_view key, std::string json);
  std::vector<std::pair<std::string, std::string>> kv_;
};

class Report {
 public:
  explicit Report(std::string bench) : bench_(std::move(bench)) {}

  Fields& config() { return config_; }
  Fields& summary() { return summary_; }
  /// Append a new row to table `table` (created on first use).
  Fields& row(std::string_view table);

  /// Write the report to `path` and print "wrote <path>"; false on error.
  bool write(const std::string& path) const;

 private:
  std::string bench_;
  Fields config_, summary_;
  std::vector<std::pair<std::string, std::vector<Fields>>> tables_;
};

}  // namespace fmx::bench
