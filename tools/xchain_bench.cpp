// xchain-bench: shared-chain load generator CLI (src/load/load_gen.hpp).
//
//   xchain-bench [--users=N] [--threads=N] [--seed=N]
//                [--mix=proto:w,proto:w,...] [--gap=N] [--cap=N]
//                [--max-fee=N] [--scaling=1,2,4,8] [--json=PATH] [--quiet]
//
// Binds --users protocol instances (drawn from the weighted --mix of
// registry protocols) onto ONE shared MultiChain under a seeded arrival
// process and drives them to completion. Blocks are capacity-bounded
// (--cap), so instances outbid each other through fee escalation —
// organic congestion, no synthetic spam. Every completed instance is
// payoff-audited against the paper's hedged floors; violations are
// re-attributed against a faultless twin ([chain-fault]). The report is
// identical at any --threads value except wall-time fields.
//
// --scaling re-runs the identical load at each listed thread count and
// records the wall-time curve (verifying along the way that every
// deterministic report field agrees, load::deterministic_mismatch). Every
// run also reports its tick loop's wall time by phase (phase_seconds) and
// how many ticks ran their actor phase on the worker pool (pool_ticks).
// --json (default BENCH_load.json) writes the artifact
// scripts/bench_compare.py gates on.
//
// Exit status: 0 = clean (every violation, if any, attributed to
// congestion), 1 = unattributed violations or scaling mismatch, 2 =
// usage / parameter error.

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "common/strict_int.hpp"
#include "crypto/sha256.hpp"
#include "load/load_gen.hpp"

#ifndef XCHAIN_GIT_COMMIT
#define XCHAIN_GIT_COMMIT "unknown"
#endif
#ifndef XCHAIN_BUILD_TYPE
#define XCHAIN_BUILD_TYPE "unknown"
#endif
#ifndef XCHAIN_COMPILER
#define XCHAIN_COMPILER "unknown"
#endif

namespace {

using namespace xchain;

void print_usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: xchain-bench [--users=N] [--threads=N] [--seed=N]\n"
      "                    [--mix=proto:w,proto:w,...] [--gap=N] [--cap=N]\n"
      "                    [--max-fee=N] [--scaling=N,N,...] [--json=PATH]\n"
      "                    [--quiet]\n"
      "\n"
      "Shared-chain load generator: runs --users concurrent protocol\n"
      "instances (default 1000), drawn from the weighted --mix of registry\n"
      "protocols (default two-party:2,broker:1,bridge-transfer:1), on ONE\n"
      "shared MultiChain. Arrivals are seeded (--seed, inter-arrival\n"
      "uniform in [0, --gap] ticks); every block admits at most --cap\n"
      "transactions (default 4; 0 = unbounded), so instances compete for\n"
      "block space through fee escalation (ceiling --max-fee, default 64).\n"
      "Every completed instance is audited against its hedged floors;\n"
      "violations re-run solo on a faultless world — congestion-caused\n"
      "ones are reported as [chain-fault], anything unattributed fails.\n"
      "--threads=N parallelizes the actor tick phase (0 = one worker per\n"
      "hardware thread); the report is identical at any count except wall\n"
      "time. --scaling=1,2,4,8 appends a thread-scaling curve to the JSON\n"
      "artifact (--json, default BENCH_load.json). Exit: 0 clean, 1\n"
      "unattributed violations, 2 bad usage.\n");
}

/// "proto:w,proto:w" -> mix entries (weight defaults to 1).
bool parse_mix(const std::string& spec, std::vector<load::MixEntry>& out) {
  std::size_t at = 0;
  while (at < spec.size()) {
    std::size_t comma = spec.find(',', at);
    if (comma == std::string::npos) comma = spec.size();
    std::string item = spec.substr(at, comma - at);
    load::MixEntry entry;
    const std::size_t colon = item.find(':');
    if (colon == std::string::npos) {
      entry.protocol = item;
    } else {
      entry.protocol = item.substr(0, colon);
      long long w = 0;
      if (!parse_long(item.substr(colon + 1), 1, INT_MAX, w)) return false;
      entry.weight = static_cast<int>(w);
    }
    if (entry.protocol.empty()) return false;
    out.push_back(std::move(entry));
    at = comma + 1;
  }
  return !out.empty();
}

void json_latency(std::string& j, const char* key,
                  const load::LatencyStats& s, double seconds_per_tick) {
  char buf[256];
  if (seconds_per_tick > 0) {
    std::snprintf(buf, sizeof buf,
                  "\"%s\": {\"p50\": %.6f, \"p95\": %.6f, \"p99\": %.6f, "
                  "\"max\": %.6f, \"mean\": %.6f}",
                  key, static_cast<double>(s.p50) * seconds_per_tick,
                  static_cast<double>(s.p95) * seconds_per_tick,
                  static_cast<double>(s.p99) * seconds_per_tick,
                  static_cast<double>(s.max) * seconds_per_tick,
                  s.mean * seconds_per_tick);
  } else {
    std::snprintf(buf, sizeof buf,
                  "\"%s\": {\"p50\": %lld, \"p95\": %lld, \"p99\": %lld, "
                  "\"max\": %lld, \"mean\": %.3f}",
                  key, static_cast<long long>(s.p50),
                  static_cast<long long>(s.p95),
                  static_cast<long long>(s.p99),
                  static_cast<long long>(s.max), s.mean);
  }
  j += buf;
}

/// "\"phase_seconds\": {...}": the tick loop's wall time by phase.
void json_phases(std::string& j, const load::PhaseSeconds& p) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "\"phase_seconds\": {\"bind\": %.6f, \"actor\": %.6f, "
                "\"drain\": %.6f, \"produce\": %.6f, \"audit\": %.6f, "
                "\"attribution\": %.6f}",
                p.bind, p.actor, p.drain, p.produce, p.audit, p.attribution);
  j += buf;
}

void print_phases(const char* indent, const load::PhaseSeconds& p) {
  std::printf(
      "%sphases: bind %.3fs, actor %.3fs, drain %.3fs, produce %.3fs, "
      "audit %.3fs, attribution %.3fs\n",
      indent, p.bind, p.actor, p.drain, p.produce, p.audit, p.attribution);
}

struct ScalingPoint {
  unsigned threads = 0;
  double wall_seconds = 0;
  double instances_per_second = 0;
  std::size_t pool_ticks = 0;
  load::PhaseSeconds phase_seconds;
};

}  // namespace

int main(int argc, char** argv) {
  load::LoadConfig cfg;
  cfg.users = 1000;
  std::string json_path = "BENCH_load.json";
  std::vector<unsigned> scaling;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const char* flag) {
      return arg.substr(std::strlen(flag));
    };
    long long v = 0;
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      return 0;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg.rfind("--users=", 0) == 0) {
      if (!parse_long(value_of("--users="), 1, 10'000'000, v)) {
        std::fprintf(stderr, "xchain-bench: invalid %s (want --users=N >= 1)\n",
                     arg.c_str());
        return 2;
      }
      cfg.users = static_cast<std::size_t>(v);
    } else if (arg.rfind("--threads=", 0) == 0) {
      if (!parse_long(value_of("--threads="), 0, 1024, v)) {
        std::fprintf(stderr,
                     "xchain-bench: invalid %s (want --threads=N >= 0)\n",
                     arg.c_str());
        return 2;
      }
      cfg.threads = v == 0 ? std::max(1u, std::thread::hardware_concurrency())
                           : static_cast<unsigned>(v);
    } else if (arg.rfind("--seed=", 0) == 0) {
      if (!parse_long(value_of("--seed="), 0, LLONG_MAX, v)) {
        std::fprintf(stderr, "xchain-bench: invalid %s (want --seed=N)\n",
                     arg.c_str());
        return 2;
      }
      cfg.seed = static_cast<std::uint64_t>(v);
    } else if (arg.rfind("--gap=", 0) == 0) {
      if (!parse_long(value_of("--gap="), 0, 1'000'000, v)) {
        std::fprintf(stderr, "xchain-bench: invalid %s (want --gap=N >= 0)\n",
                     arg.c_str());
        return 2;
      }
      cfg.arrival_gap = static_cast<Tick>(v);
    } else if (arg.rfind("--cap=", 0) == 0) {
      if (!parse_long(value_of("--cap="), 0, 1'000'000, v)) {
        std::fprintf(stderr, "xchain-bench: invalid %s (want --cap=N >= 0)\n",
                     arg.c_str());
        return 2;
      }
      cfg.block_capacity = static_cast<int>(v);
    } else if (arg.rfind("--max-fee=", 0) == 0) {
      if (!parse_long(value_of("--max-fee="), 0, LLONG_MAX / 2, v)) {
        std::fprintf(stderr,
                     "xchain-bench: invalid %s (want --max-fee=N >= 0)\n",
                     arg.c_str());
        return 2;
      }
      cfg.max_fee = static_cast<Amount>(v);
    } else if (arg.rfind("--mix=", 0) == 0) {
      cfg.mix.clear();
      if (!parse_mix(value_of("--mix="), cfg.mix)) {
        std::fprintf(
            stderr,
            "xchain-bench: invalid %s (want --mix=proto:w,proto:w,...)\n",
            arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--scaling=", 0) == 0) {
      std::string spec = value_of("--scaling=");
      std::size_t at = 0;
      scaling.clear();
      while (at < spec.size()) {
        std::size_t comma = spec.find(',', at);
        if (comma == std::string::npos) comma = spec.size();
        if (!parse_long(spec.substr(at, comma - at), 1, 1024, v)) {
          std::fprintf(stderr,
                       "xchain-bench: invalid %s (want --scaling=N,N,...)\n",
                       arg.c_str());
          return 2;
        }
        scaling.push_back(static_cast<unsigned>(v));
        at = comma + 1;
      }
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = value_of("--json=");
    } else {
      std::fprintf(stderr, "xchain-bench: unknown argument '%s'\n",
                   arg.c_str());
      print_usage(stderr);
      return 2;
    }
  }
  if (cfg.mix.empty()) {
    cfg.mix = {{"two-party", 2}, {"broker", 1}, {"bridge-transfer", 1}};
  }

  load::LoadReport report;
  std::vector<ScalingPoint> curve;
  bool scaling_mismatch = false;
  try {
    report = load::run_load(cfg);
    for (unsigned t : scaling) {
      load::LoadConfig scfg = cfg;
      scfg.threads = t;
      const load::LoadReport r = load::run_load(scfg);
      curve.push_back({t, r.wall_seconds,
                       r.wall_seconds > 0
                           ? static_cast<double>(r.instances) / r.wall_seconds
                           : 0.0,
                       r.pool_ticks, r.phase_seconds});
      const std::string field = load::deterministic_mismatch(report, r);
      if (!field.empty()) {
        std::fprintf(stderr,
                     "xchain-bench: report at --threads=%u diverges from the "
                     "primary run in %s — thread-count nondeterminism\n",
                     t, field.c_str());
        scaling_mismatch = true;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xchain-bench: %s\n", e.what());
    return 2;
  }

  const double seconds_per_tick =
      report.ticks > 0 ? report.wall_seconds / static_cast<double>(report.ticks)
                       : 0.0;

  // The SHA-256 compression function this CPU dispatched to: a host
  // without SHA-NI runs the crypto layer several times slower.
  const std::string kernel(crypto::sha256_kernel());
  if (!quiet) {
    std::printf(
        "load: %zu instances over %lld ticks on %zu shared chains "
        "(%zu txs, %u threads, %.3fs wall)\n",
        report.instances, static_cast<long long>(report.ticks), report.chains,
        report.txs_included, cfg.threads, report.wall_seconds);
    std::printf(
        "  throughput: %.0f instances/s, %.0f txs/s\n",
        report.wall_seconds > 0
            ? static_cast<double>(report.instances) / report.wall_seconds
            : 0.0,
        report.wall_seconds > 0
            ? static_cast<double>(report.txs_included) / report.wall_seconds
            : 0.0);
    std::printf(
        "  completion latency: p50=%lld p95=%lld p99=%lld max=%lld ticks "
        "(mean %.1f)\n",
        static_cast<long long>(report.latency.p50),
        static_cast<long long>(report.latency.p95),
        static_cast<long long>(report.latency.p99),
        static_cast<long long>(report.latency.max), report.latency.mean);
    for (const load::ProtocolStats& p : report.per_protocol) {
      std::printf(
          "  %-18s %6zu instances  %7zu txs  p50=%lld p95=%lld p99=%lld\n",
          p.protocol.c_str(), p.instances, p.txs_included,
          static_cast<long long>(p.latency.p50),
          static_cast<long long>(p.latency.p95),
          static_cast<long long>(p.latency.p99));
    }
    std::printf("  violations: %zu (%zu [chain-fault], %zu unattributed)\n",
                report.violations.size(), report.fault_caused,
                report.unattributed);
    print_phases("  ", report.phase_seconds);
    std::printf("  pool ticks: %zu of %lld\n", report.pool_ticks,
                static_cast<long long>(report.ticks));
    std::printf("  host: %u hardware threads, sha256_kernel %s\n",
                std::thread::hardware_concurrency(), kernel.c_str());
    for (const ScalingPoint& p : curve) {
      std::printf(
          "  scaling: %2u threads  %.3fs  %.0f instances/s  %zu pool ticks\n",
          p.threads, p.wall_seconds, p.instances_per_second, p.pool_ticks);
      print_phases("    ", p.phase_seconds);
    }
  }

  // --- JSON artifact -------------------------------------------------------
  std::string j = "{\n";
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "  \"benchmark\": \"load\",\n"
                "  \"git_commit\": \"%s\",\n"
                "  \"build_type\": \"%s\",\n"
                "  \"compiler\": \"%s\",\n"
                "  \"hardware_threads\": %u,\n"
                "  \"sha256_kernel\": \"%s\",\n",
                XCHAIN_GIT_COMMIT, XCHAIN_BUILD_TYPE, XCHAIN_COMPILER,
                std::thread::hardware_concurrency(), kernel.c_str());
  j += buf;
  std::snprintf(buf, sizeof buf,
                "  \"users\": %zu,\n  \"threads\": %u,\n  \"seed\": %llu,\n"
                "  \"arrival_gap\": %lld,\n  \"block_capacity\": %d,\n"
                "  \"max_fee\": %lld,\n",
                cfg.users, cfg.threads,
                static_cast<unsigned long long>(cfg.seed),
                static_cast<long long>(cfg.arrival_gap), cfg.block_capacity,
                static_cast<long long>(cfg.max_fee));
  j += buf;
  j += "  \"mix\": [";
  for (std::size_t m = 0; m < cfg.mix.size(); ++m) {
    std::snprintf(buf, sizeof buf, "%s{\"protocol\": \"%s\", \"weight\": %d}",
                  m ? ", " : "", cfg.mix[m].protocol.c_str(),
                  cfg.mix[m].weight);
    j += buf;
  }
  j += "],\n";
  std::snprintf(buf, sizeof buf,
                "  \"instances\": %zu,\n  \"txs_included\": %zu,\n"
                "  \"chains\": %zu,\n  \"ticks\": %lld,\n",
                report.instances, report.txs_included, report.chains,
                static_cast<long long>(report.ticks));
  j += buf;
  j += "  ";
  json_latency(j, "latency_ticks", report.latency, 0.0);
  j += ",\n  \"protocols\": [\n";
  for (std::size_t m = 0; m < report.per_protocol.size(); ++m) {
    const load::ProtocolStats& p = report.per_protocol[m];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"instances\": %zu, "
                  "\"txs_included\": %zu, \"violations\": %zu, "
                  "\"fault_caused\": %zu, ",
                  p.protocol.c_str(), p.instances, p.txs_included,
                  p.violations, p.fault_caused);
    j += buf;
    json_latency(j, "latency_ticks", p.latency, 0.0);
    j += m + 1 < report.per_protocol.size() ? "},\n" : "}\n";
  }
  j += "  ],\n";
  std::snprintf(buf, sizeof buf,
                "  \"violations\": %zu,\n  \"fault_caused\": %zu,\n"
                "  \"unattributed\": %zu,\n",
                report.violations.size(), report.fault_caused,
                report.unattributed);
  j += buf;
  // Wall-time block last: everything above is a pure function of the
  // configuration (byte-identical at any --threads), everything below is
  // measured. Consumers comparing artifacts across thread counts strip
  // "threads" and the keys from here down.
  std::snprintf(buf, sizeof buf,
                "  \"wall_seconds\": %.6f,\n"
                "  \"instances_per_second\": %.3f,\n"
                "  \"txs_per_second\": %.3f,\n"
                "  \"pool_ticks\": %zu,\n",
                report.wall_seconds,
                report.wall_seconds > 0
                    ? static_cast<double>(report.instances) /
                          report.wall_seconds
                    : 0.0,
                report.wall_seconds > 0
                    ? static_cast<double>(report.txs_included) /
                          report.wall_seconds
                    : 0.0,
                report.pool_ticks);
  j += buf;
  j += "  ";
  json_phases(j, report.phase_seconds);
  j += ",\n  ";
  json_latency(j, "latency_wall_seconds", report.latency, seconds_per_tick);
  if (!curve.empty()) {
    j += ",\n  \"scaling\": [\n";
    for (std::size_t i = 0; i < curve.size(); ++i) {
      std::snprintf(buf, sizeof buf,
                    "    {\"threads\": %u, \"wall_seconds\": %.6f, "
                    "\"instances_per_second\": %.3f, \"pool_ticks\": %zu, ",
                    curve[i].threads, curve[i].wall_seconds,
                    curve[i].instances_per_second, curve[i].pool_ticks);
      j += buf;
      json_phases(j, curve[i].phase_seconds);
      j += i + 1 < curve.size() ? "},\n" : "}\n";
    }
    j += "  ]";
  }
  j += "\n}\n";

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (!out) {
      std::fprintf(stderr, "xchain-bench: cannot open %s for writing\n",
                   json_path.c_str());
      return 2;
    }
    std::fwrite(j.data(), 1, j.size(), out);
    std::fclose(out);
    if (!quiet) std::printf("wrote %s\n", json_path.c_str());
  }

  if (report.unattributed > 0) {
    std::fprintf(stderr,
                 "xchain-bench: %zu unattributed hedging violations — the "
                 "floors failed without congestion to blame\n",
                 report.unattributed);
    return 1;
  }
  return scaling_mismatch ? 1 : 0;
}
