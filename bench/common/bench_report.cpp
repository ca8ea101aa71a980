#include "bench_report.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#ifndef FMX_BUILD_TYPE
#define FMX_BUILD_TYPE "unknown"
#endif

namespace fmx::bench {
namespace {

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

// First "model name" line from /proc/cpuinfo ("unknown" elsewhere), so a
// reader can judge whether two wall-clock reports are comparable.
std::string cpu_model() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[256];
  std::string model = "unknown";
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "model name", 10) != 0) continue;
    if (const char* colon = std::strchr(line, ':')) {
      model = colon + 1;
      model.erase(0, model.find_first_not_of(" \t"));
      model.erase(model.find_last_not_of(" \n") + 1);
    }
    break;
  }
  std::fclose(f);
  return model;
}

}  // namespace

Fields& Fields::raw(std::string_view key, std::string json) {
  kv_.emplace_back(quoted(key), std::move(json));
  return *this;
}

Fields& Fields::num(std::string_view key, double v, int precision) {
  if (!std::isfinite(v)) return raw(key, "null");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return raw(key, buf);
}

Fields& Fields::str(std::string_view key, std::string_view v) {
  return raw(key, quoted(v));
}

Fields& Fields::hex(std::string_view key, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"%016llx\"",
                static_cast<unsigned long long>(v));
  return raw(key, buf);
}

std::string Fields::inline_json() const {
  std::string out = "{";
  for (const auto& [k, v] : kv_) {
    out += (out.size() > 1 ? ", " : "") + k + ": " + v;
  }
  return out + "}";
}

std::string Fields::block_json(int indent) const {
  const std::string pad(indent, ' ');
  std::string out = "{";
  for (const auto& [k, v] : kv_) {
    out += (out.size() > 1 ? ",\n" : "\n") + pad + k + ": " + v;
  }
  return out + "\n" + pad.substr(2) + "}";
}

Fields& Report::row(std::string_view table) {
  for (auto& [name, rows] : tables_) {
    if (name == table) return rows.emplace_back();
  }
  return tables_.emplace_back(std::string(table), std::vector<Fields>(1))
      .second.back();
}

bool Report::write(const std::string& path) const {
  Fields machine;
  machine.num("cpus", std::thread::hardware_concurrency())
      .str("cpu_model", cpu_model())
      .str("build_type", FMX_BUILD_TYPE);
  std::string out = "{\n  \"bench\": " + quoted(bench_) +
                    ",\n  \"machine\": " + machine.inline_json() +
                    ",\n  \"config\": " + config_.block_json(4) +
                    ",\n  \"summary\": " + summary_.block_json(4) +
                    ",\n  \"rows\": {";
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    out += (t > 0 ? ",\n    " : "\n    ") + quoted(tables_[t].first) + ": [";
    const auto& rows = tables_[t].second;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      out += (r > 0 ? ",\n      " : "\n      ") + rows[r].inline_json();
    }
    out += "\n    ]";
  }
  out += tables_.empty() ? "}\n}\n" : "\n  }\n}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::perror(path.c_str());
    return false;
  }
  const bool ok = std::fputs(out.c_str(), f) >= 0;
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return ok;
}

}  // namespace fmx::bench
