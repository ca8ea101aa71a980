// Benchmark program. Runs one workload for --seconds of wall time as a
// sequence of passes (each a fresh set-up plus a measured phase), checks
// every output, and prints two JSON lines on stdout: a detail line (machine
// block, pass and sample counts, digest, errors) and, last, the result line
// {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload mpi_p2p|fabric_uniform|coll_bsp --seed N
//                    --seconds S --trace 0|1 [--rev REV] [--trace-dir DIR]
//   perfbench --list-metrics
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// and traced passes (simulator tracer on) and reports the per-layer
// metrics; their difference in ops/s is trace.overhead_pct. Every pass of a
// run must reproduce the first pass's simulated results and digest exactly,
// traced or not: that is the determinism and timing-neutrality check.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "metrics.hpp"
#include "probes.hpp"
#include "stats.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string rev = "unknown";
  std::string trace_dir;
  bool list = false;
};

bool parse(int argc, char** argv, Args& a) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--list-metrics") {
      a.list = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      have_seed = *v != '\0' && *end == '\0';
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      have_seconds = *v != '\0' && *end == '\0' && a.seconds > 0;
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
      have_trace = a.trace || std::strcmp(v, "0") == 0;
    } else if (k == "--rev") {
      a.rev = v;
    } else if (k == "--trace-dir") {
      a.trace_dir = v;
    } else {
      return false;
    }
  }
  return a.list || (have_workload && have_seed && have_seconds && have_trace);
}

void list_metrics() {
  auto print = [](const char* key, const auto& defs, bool last) {
    std::printf("\"%s\": [", key);
    bool first = true;
    for (const MetricDef& d : defs) {
      std::printf("%s{\"name\": %s, \"unit\": %s, \"better\": \"%s\"",
                  first ? "" : ", ", json_string(std::string(d.name)).c_str(),
                  json_string(std::string(d.unit)).c_str(),
                  d.higher_is_better ? "higher" : "lower");
      if (!d.moves.empty()) {
        std::printf(", \"moves\": %s",
                    json_string(std::string(d.moves)).c_str());
      }
      std::printf("}");
      first = false;
    }
    std::printf("]%s", last ? "" : ", ");
  };
  std::printf("{");
  print("end_to_end", kEndToEnd, false);
  print("per_layer", kPerLayer, true);
  std::printf("}\n");
}

using Runner = PassResult (*)(const PassOptions&, Spans&);

Runner runner_for(const std::string& w) {
  if (w == "mpi_p2p") return run_mpi_p2p;
  if (w == "fabric_uniform") return run_fabric_uniform;
  if (w == "coll_bsp") return run_coll_bsp;
  return nullptr;
}

int nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

// Workers for the sharded workload: 4, but at most half the CPUs. With a
// worker on every CPU, any other process stalls the conservative engine's
// window barriers, and on a shared 4-CPU host ops/s then spread by 27 %
// between runs; two workers there spread by a few percent.
int worker_threads() { return std::clamp(nproc() / 2, 1, 4); }

// Resident set size of this process now, in MB.
double rss_mb() {
  long pages = 0, resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

}  // namespace

int run(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--rev REV] [--trace-dir DIR] | "
                 "--list-metrics\n");
    return 2;
  }
  if (a.list) {
    list_metrics();
    return 0;
  }
  const Runner runner = runner_for(a.workload);
  if (runner == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
    return 2;
  }

  PassOptions po;
  po.seed = a.seed;
  po.threads = a.workload == "fabric_uniform" ? worker_threads() : 1;
  const std::string stem = a.trace_dir.empty()
                               ? std::string()
                               : a.trace_dir + "/" + a.workload + "-seed" +
                                     std::to_string(a.seed);

  // Passes until the run time is spent. The first pass also warms the
  // process (page faults, pool growth), so wall-clock values skip it; at
  // least three more untraced passes (and as many traced ones when
  // tracing) follow so every median has company.
  std::vector<PassResult> passes;
  std::vector<bool> traced;
  std::vector<std::map<std::string, double>> self;
  std::vector<double> rss_after;  // resident MB after each pass
  double first_pass_peak_mb = 0;
  Spans spans;
  const auto t0 = Clock::now();
  const std::size_t min_passes = a.trace ? 7 : 4;
  bool trace_written = false;
  while (passes.size() < min_passes || seconds_since(t0) < a.seconds) {
    po.traced = a.trace && passes.size() % 2 == 1;  // pass 0 is untraced
    po.chrome_trace_path =
        po.traced && !trace_written && !stem.empty() ? stem + ".sim.json" : "";
    trace_written = trace_written || !po.chrome_trace_path.empty();
    spans.clear();
    passes.push_back(runner(po, spans));
    traced.push_back(po.traced);
    self.push_back(spans.self_seconds());
    rss_after.push_back(rss_mb());
    if (passes.size() == 1) first_pass_peak_mb = peak_rss_mb();
    if (po.traced && !stem.empty()) spans.write_chrome(stem + ".spans.json");
  }

  // Determinism: every pass reproduces the first one's simulated results.
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  const PassResult& ref = passes.front();
  for (std::size_t i = 0; i < passes.size(); ++i) {
    PassResult& p = passes[i];
    p.check(p.digest == ref.digest && p.sim == ref.sim,
            "pass " + std::to_string(i) + (traced[i] ? " (traced)" : "") +
                " does not reproduce the simulated results of pass 0");
    attempted += p.attempted;
    failed += p.failed;
    for (const auto& e : p.errors) {
      if (errors.size() < 16) errors.push_back(e);
    }
  }

  // Wall-clock values come from the untraced passes after the first; the
  // traced ones only give trace.overhead_pct (and frames/event on the
  // sharded workload).
  std::vector<double> ops_plain, ops_traced, setups;
  for (std::size_t i = 1; i < passes.size(); ++i) {
    const auto& o = passes[i].ops_per_s;
    auto& dst = traced[i] ? ops_traced : ops_plain;
    dst.insert(dst.end(), o.begin(), o.end());
    if (!traced[i]) setups.push_back(passes[i].setup_s);
  }
  // Median over the passes that measured `name`: a span's self time or a
  // meter. Returns false if none did.
  auto pass_median = [&](const std::string& name, bool span, double* out) {
    std::vector<double> v;
    for (std::size_t i = 1; i < passes.size(); ++i) {
      const auto& m = span ? self[i] : passes[i].meters;
      const auto it = m.find(name);
      const bool wanted = !traced[i] || name == "sim.frames_per_event";
      if (it != m.end() && wanted) v.push_back(it->second);
    }
    *out = median(v);
    return !v.empty();
  };

  std::vector<Metric> metrics;
  std::vector<std::string> not_measured;
  if (!a.trace) {
    for (const MetricDef& d : kEndToEnd) {
      const std::string name(d.name);
      double v = 0;
      if (name == "ops_per_s") v = median(ops_plain);
      else if (name == "setup_s") v = median(setups);
      else if (name == "peak_rss_mb") v = first_pass_peak_mb;
      else if (ref.sim.count(name)) v = ref.sim.at(name);
      else not_measured.push_back(name);
      metrics.push_back({name, v, std::string(d.unit)});
    }
  } else {
    for (const MetricDef& d : kPerLayer) {
      const std::string name(d.name);
      double v = 0;
      bool measured = true;
      if (name == "sim.retained_mb_per_pass") {
        // Memory a pass leaves behind after its cluster is destroyed; the
        // first two passes still fill process-lifetime pools.
        v = (rss_after.back() - rss_after[1]) /
            static_cast<double>(rss_after.size() - 2);
      } else if (name == "trace.overhead_pct") {
        v = 100.0 * (median(ops_plain) - median(ops_traced)) /
            median(ops_plain);
      } else if (ref.sim.count(name)) {
        v = ref.sim.at(name);
      } else if (name.rfind("setup.", 0) == 0) {
        measured = pass_median(name.substr(0, name.size() - 2), true, &v);
      } else if (name == "workload.collect_s") {
        measured = pass_median("collect", true, &v);
      } else {
        measured = pass_median(name, false, &v);
      }
      if (!measured) not_measured.push_back(name);
      metrics.push_back({name, v, std::string(d.unit)});
    }
  }

  const bool correct = failed == 0;
  std::string detail = "{\"detail\": {\"workload\": " + json_string(a.workload);
  detail += ", \"machine\": {\"nproc\": " + std::to_string(nproc()) +
            ", \"cpu_model\": " + json_string(cpu_model()) +
            ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
            ", \"worker_threads\": " + std::to_string(ref.threads) +
            ", \"shards\": " + std::to_string(ref.shards) +
            ", \"seed\": " + std::to_string(a.seed) +
            ", \"git_rev\": " + json_string(a.rev) + "}";
  detail += ", \"trace\": " + std::string(a.trace ? "1" : "0");
  detail += ", \"passes\": " + std::to_string(passes.size());
  detail += ", \"samples\": {\"ops_per_s\": " +
            std::to_string(ops_plain.size());
  for (const auto& [name, n] : ref.samples) {
    detail += ", " + json_string(name) + ": " + std::to_string(n);
  }
  detail += "}, \"ops_per_s_q1_q2_q3\": [" +
            format_number(quantile(ops_plain, 0.25)) + ", " +
            format_number(quantile(ops_plain, 0.5)) + ", " +
            format_number(quantile(ops_plain, 0.75)) + "]";
  detail += ", \"highest_supported_percentile\": {";
  bool first = true;
  for (const auto& [name, n] : ref.samples) {
    detail += (first ? "" : ", ") + json_string(name) + ": " +
              format_number(highest_supported_percentile(n));
    first = false;
  }
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(ref.digest));
  detail += "}, \"digest\": \"" + std::string(digest) + "\"";
  detail += ", \"not_measured_on_this_workload\": [";
  for (std::size_t i = 0; i < not_measured.size(); ++i) {
    detail += (i ? ", " : "") + json_string(not_measured[i]);
  }
  detail += "], \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    detail += (i ? ", " : "") + json_string(errors[i]);
  }
  detail += "]}}";
  std::printf("%s\n%s\n", detail.c_str(),
              result_json(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
