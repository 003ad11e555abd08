// perfbench-driver: runs one benchmark workload once, in this process, and
// prints one JSON line with its timings, checks and deterministic report.
//
//   perfbench-driver --workload=NAME --seed=N [--mode=plain|traced]
//                    [--trace-out=PATH] [--report-out=PATH]
//
// perfbench/run.py starts one fresh process per run, so every run pays the
// process-wide caches cold, as a command-line user does.

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "trace.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_map(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += json_string(k) + ": " + json_number(v);
  }
  return out + "}";
}

/// FNV-1a 64-bit digest of the canonical report, in hex.
std::string digest(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// The process's peak resident set (VmHWM), in MiB. Not getrusage's
/// ru_maxrss: Linux carries that across exec, so it would report the
/// launching process's footprint when it exceeds this one's.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench-driver --workload=load-congested|sweep-tree|"
               "sweep-faults --seed=N [--mode=plain|traced]\n"
               "                        [--trace-out=PATH] "
               "[--report-out=PATH]\n");
  return 2;
}

bool parse_u64(const std::string& s, unsigned long long& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  out = std::strtoull(s.c_str(), nullptr, 10);
  return errno == 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, mode = "plain", trace_out, report_out;
  unsigned long long seed = 0;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) {
      return arg.substr(std::string(flag).size());
    };
    if (arg.rfind("--workload=", 0) == 0) {
      workload = value("--workload=");
    } else if (arg.rfind("--seed=", 0) == 0) {
      if (!parse_u64(value("--seed="), seed)) return usage();
      have_seed = true;
    } else if (arg.rfind("--mode=", 0) == 0) {
      mode = value("--mode=");
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = value("--trace-out=");
    } else if (arg.rfind("--report-out=", 0) == 0) {
      report_out = value("--report-out=");
    } else {
      return usage();
    }
  }
  if (!have_seed || (mode != "plain" && mode != "traced")) return usage();

  // Timings from an unoptimised build are not worth recording.
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "perfbench-driver: refusing to run from a '%s' build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  perfbench::Tracer tracer(mode == "traced");
  perfbench::Result res;
  try {
    if (workload == "load-congested") {
      res = perfbench::run_load_congested(seed, tracer);
    } else if (workload == "sweep-tree") {
      res = perfbench::run_sweep_tree(seed, tracer);
    } else if (workload == "sweep-faults") {
      res = perfbench::run_sweep_faults(seed, tracer);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench-driver: %s: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }
  const double rss = peak_rss_mb();
  if (rss <= 0.0) {
    std::fprintf(stderr, "perfbench-driver: no VmHWM in /proc/self/status\n");
    return 1;
  }

  if (!trace_out.empty() && !tracer.write_tsv(trace_out)) {
    std::fprintf(stderr, "perfbench-driver: cannot write %s\n",
                 trace_out.c_str());
    return 1;
  }
  if (!report_out.empty()) {
    std::ofstream out(report_out);
    out << res.report;
    if (!out) {
      std::fprintf(stderr, "perfbench-driver: cannot write %s\n",
                   report_out.c_str());
      return 1;
    }
  }

  std::string failures = "[";
  for (const std::string& f : res.failures) {
    if (failures.size() > 1) failures += ", ";
    failures += json_string(f);
  }
  failures += "]";

  std::printf(
      "{\"workload\": %s, \"mode\": %s, \"seed\": %llu, \"threads\": %u, "
      "\"build_type\": %s, \"compiler\": %s, \"hardware_concurrency\": %u, "
      "\"setup_s\": %s, \"run_s\": %s, \"loop_s\": %s, \"peak_rss_mb\": %s, "
      "\"attempted\": %zu, \"failed\": %zu, \"breaches\": %zu, "
      "\"failures\": %s, \"report_digest\": %s, \"spans\": %zu, "
      "\"outcomes\": %s, \"layers\": %s}\n",
      json_string(workload).c_str(), json_string(mode).c_str(), seed,
      res.threads,
      json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(PERFBENCH_COMPILER).c_str(),
      std::thread::hardware_concurrency(), json_number(res.setup_s).c_str(),
      json_number(res.run_s).c_str(), json_number(res.loop_s).c_str(),
      json_number(rss).c_str(), res.attempted, res.failed, res.breaches,
      failures.c_str(), json_string(digest(res.report)).c_str(),
      tracer.size(), json_map(res.outcomes).c_str(),
      json_map(res.layers).c_str());
  return 0;
}
