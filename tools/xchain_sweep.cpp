// xchain-sweep: drive deviation-schedule sweep campaigns from the command
// line, with zero recompilation.
//
//   xchain-sweep --list
//   xchain-sweep --protocol=NAME [--set k=v]... [--grid k=a,b,c]...
//                [--protocol=NAME2 ...]
//                [--strategies=halt-only|timely-delays|late-delays]
//                [--faults=SPEC] [--resilience=POLICY]
//                [--max-deviators=K] [--threads=N] [--max-configs=N]
//                [--max-schedules=N] [--json=PATH] [--quiet] [--dry-run]
//
// Each --protocol starts a campaign entry; subsequent --set (fixed
// override) and --grid (swept axis, cross product across axes) flags apply
// to the most recent one. Every grid point runs the full adversarial
// deviation sweep (sim/scenario.hpp) over the selected strategy space and
// is audited against the paper's hedging bound. --dry-run prints each
// configuration's schedule count (plan-space size) without running any.
// Exit status: 0 = all configurations clean, 1 = at least one
// hedging-bound violation, 2 = usage / parameter error.
//
// Example:
//   xchain-sweep --protocol=multi-party-ring --grid n=3,4,5
//                --grid premium_unit=1,2 --threads=0 --json=out.json

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "chain/fault.hpp"
#include "common/strict_int.hpp"
#include "sim/campaign.hpp"
#include "sim/param.hpp"
#include "sim/registry.hpp"

// Build stamps injected by CMake (same provenance fields as the bench
// artifacts, so campaign JSONs are attributable per commit too).
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
      "usage: xchain-sweep --list\n"
      "       xchain-sweep --protocol=NAME [--set k=v]... [--grid "
      "k=a,b,c]...\n"
      "                    [--protocol=NAME2 ...] "
      "[--strategies=halt-only|timely-delays|late-delays]\n"
      "                    [--faults=SPEC] [--resilience=POLICY]\n"
      "                    [--max-deviators=K] [--threads=N] "
      "[--max-configs=N]\n"
      "                    [--max-schedules=N] [--json=PATH] [--quiet] "
      "[--dry-run]\n"
      "\n"
      "Runs the exhaustive deviation-schedule sweep (hedging-bound audit)\n"
      "over every configuration in the cross product of each protocol's\n"
      "--grid axes. --set fixes a parameter for all of an entry's points;\n"
      "--grid k=a,b,c sweeps one axis. --strategies picks the adversary\n"
      "space: halt-only (default; the classic walk-away schedules),\n"
      "timely-delays (+ last-moment-but-compliant lateness, delay = D-1\n"
      "ticks per action), late-delays (+ delays of D-1, D, and 2D ticks,\n"
      "which can land actions past contract deadlines). Delay spaces are\n"
      "bounded per configuration: at most 64 plans per party and\n"
      "--max-schedules=N schedules (default 20000), truncation reported.\n"
      "--threads=N shards the work over N workers (0 = one per hardware\n"
      "thread; the report is identical whatever the count).\n"
      "--max-deviators=K skips schedules with more than K deviating\n"
      "parties (-1 = unbounded). --faults=SPEC injects chain faults into\n"
      "every configuration (';'-joined <chain>:<clause>; clauses\n"
      "outage@A-B, squeeze@A-B,cap=N[,spam=N,fee=N][,mem=N],\n"
      "drop@A-B,p=PERMILLE[,seed=N]; chain '*' = all chains). --resilience\n"
      "picks the conforming parties' submission policy: naive (default),\n"
      "rebroadcast, fee-escalate[:base,step,max]. Fault-injected sweeps\n"
      "run on the brute executor and re-attribute each violation against a\n"
      "faultless twin world ('[chain-fault]' in the details). --json=PATH\n"
      "writes the campaign report as JSON. --dry-run prints\n"
      "per-configuration schedule counts without running. Exit: 0 clean,\n"
      "1 violations, 2 bad usage.\n");
}

void print_list() {
  const sim::ProtocolRegistry& reg = sim::ProtocolRegistry::global();
  std::printf("registered protocols:\n");
  for (const sim::ProtocolInfo& p : reg.protocols()) {
    std::printf("  %-18s %s\n", p.name.c_str(), p.description.c_str());
    for (const sim::ParamSpec& spec : p.defaults.specs()) {
      const std::string bounds = spec.bounds_str();
      std::printf("      %-16s %-7s default=%-10s %s%s%s\n", spec.key.c_str(),
                  param_type_name(spec.type).c_str(),
                  spec.default_str().c_str(), spec.description.c_str(),
                  bounds.empty() ? "" : "  ", bounds.c_str());
    }
  }
  std::printf(
      "strategy spaces (--strategies=..., delay menus in the protocol's "
      "synchrony bound D = delta):\n"
      "  halt-only          conform + every halt point per party "
      "(default; never truncated)\n"
      "  timely-delays      + per-action Delay(D-1): last-moment but "
      "compliant, must sweep clean\n"
      "  late-delays        + per-action Delay(D-1 | D | 2D) and "
      "selective Drop: can miss deadlines\n"
      "  bounds: <= 64 plans/party and <= --max-schedules (default "
      "20000) schedules per configuration,\n"
      "  trimmed uniformly with a truncation notice in the report "
      "(halt plans are kept first).\n"
      "environment (--faults=SPEC, --resilience=POLICY, applied to every "
      "configuration):\n"
      "  SPEC is ';'-joined <chain>:<clause> (chain '*' = all chains); "
      "clauses are outage@A-B (no\n"
      "  blocks accepted in ticks A..B), "
      "squeeze@A-B,cap=N[,spam=N,fee=N][,mem=N] (block space capped\n"
      "  at N txs with fee-priced spam competing for it), and "
      "drop@A-B,p=PERMILLE[,seed=N]\n"
      "  (each submission dropped with probability p/1000). POLICY sets "
      "how conforming parties\n"
      "  respond: naive (default, submit once), rebroadcast (resubmit "
      "while pending), or\n"
      "  fee-escalate[:base,step,max] (rebroadcast with a rising fee "
      "bid). Fault-injected sweeps\n"
      "  run on the brute executor; every violation is re-attributed "
      "against a faultless twin\n"
      "  world and tagged '[chain-fault]' when the fault, not the "
      "deviation, caused the breach.\n");
}

/// Splits --set/--grid payload "k=v" at the first '='.
bool split_kv(const std::string& arg, std::string& key, std::string& value) {
  const std::size_t eq = arg.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  key = arg.substr(0, eq);
  value = arg.substr(eq + 1);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  sim::CampaignSpec spec;
  std::string json_path;
  bool quiet = false;
  bool list = false;
  bool dry_run = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const char* flag) {
      return arg.substr(std::strlen(flag));
    };
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      return 0;
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--dry-run") {
      dry_run = true;
    } else if (arg.rfind("--strategies=", 0) == 0) {
      const auto parsed = sim::StrategySpace::parse(value_of("--strategies="));
      if (!parsed) {
        std::fprintf(stderr,
                     "xchain-sweep: invalid %s (want --strategies="
                     "halt-only|timely-delays|late-delays)\n",
                     arg.c_str());
        return 2;
      }
      const std::size_t keep = spec.sweep.strategies.max_schedules;
      spec.sweep.strategies = *parsed;
      spec.sweep.strategies.max_schedules = keep;
    } else if (arg.rfind("--max-schedules=", 0) == 0) {
      long long v = 0;
      if (!parse_long(value_of("--max-schedules="), 1, INT_MAX, v)) {
        std::fprintf(stderr,
                     "xchain-sweep: invalid %s (want --max-schedules=N, "
                     "N >= 1)\n",
                     arg.c_str());
        return 2;
      }
      spec.sweep.strategies.max_schedules = static_cast<std::size_t>(v);
    } else if (arg.rfind("--protocol=", 0) == 0) {
      spec.entries.push_back({value_of("--protocol="), {}, {}});
    } else if (arg == "--set" || arg.rfind("--set=", 0) == 0 ||
               arg == "--grid" || arg.rfind("--grid=", 0) == 0) {
      // --set k=v / --set=k=v / --grid k=a,b,c / --grid=k=a,b,c
      const bool is_grid = arg.rfind("--grid", 0) == 0;
      const char* flag = is_grid ? "--grid" : "--set";
      std::string payload = value_of(flag);
      if (!payload.empty() && payload[0] == '=') payload.erase(0, 1);
      if (payload.empty()) {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "xchain-sweep: %s needs k=v\n", flag);
          return 2;
        }
        payload = argv[++i];
      }
      std::string key, value;
      if (!split_kv(payload, key, value)) {
        std::fprintf(stderr, "xchain-sweep: malformed %s '%s' (want k=v)\n",
                     flag, payload.c_str());
        return 2;
      }
      if (spec.entries.empty()) {
        std::fprintf(stderr,
                     "xchain-sweep: %s before any --protocol=NAME\n", flag);
        return 2;
      }
      try {
        if (is_grid) {
          spec.entries.back().grid.add_axis_csv(key, value);
        } else {
          spec.entries.back().overrides.emplace_back(key, value);
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "xchain-sweep: %s\n", e.what());
        return 2;
      }
    } else if (arg.rfind("--faults=", 0) == 0) {
      try {
        spec.environment.faults = chain::FaultPlan::parse(value_of("--faults="));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "xchain-sweep: invalid --faults=: %s\n",
                     e.what());
        return 2;
      }
    } else if (arg.rfind("--resilience=", 0) == 0) {
      try {
        spec.environment.resilience =
            chain::ResiliencePolicy::parse(value_of("--resilience="));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "xchain-sweep: invalid --resilience=: %s\n",
                     e.what());
        return 2;
      }
    } else if (arg.rfind("--max-deviators=", 0) == 0) {
      long long v = 0;
      if (!parse_long(value_of("--max-deviators="), -1, INT_MAX, v)) {
        std::fprintf(stderr,
                     "xchain-sweep: invalid %s (want --max-deviators=K, "
                     "K >= -1)\n",
                     arg.c_str());
        return 2;
      }
      spec.sweep.max_deviators = static_cast<int>(v);
    } else if (arg.rfind("--threads=", 0) == 0) {
      long long v = 0;
      if (!parse_long(value_of("--threads="), 0, UINT_MAX, v)) {
        std::fprintf(stderr,
                     "xchain-sweep: invalid %s (want --threads=N, N >= 0)\n",
                     arg.c_str());
        return 2;
      }
      spec.sweep.threads = static_cast<unsigned>(v);
    } else if (arg.rfind("--max-configs=", 0) == 0) {
      long long v = 0;
      if (!parse_long(value_of("--max-configs="), 1, INT_MAX, v)) {
        std::fprintf(stderr,
                     "xchain-sweep: invalid %s (want --max-configs=N, "
                     "N >= 1)\n",
                     arg.c_str());
        return 2;
      }
      spec.max_configs_per_entry = static_cast<std::size_t>(v);
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = value_of("--json=");
      if (json_path.empty()) {
        std::fprintf(stderr, "xchain-sweep: invalid --json= (want PATH)\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "xchain-sweep: unknown flag '%s'\n", arg.c_str());
      print_usage(stderr);
      return 2;
    }
  }

  if (list) {
    print_list();
    if (spec.entries.empty()) return 0;
  }
  if (spec.entries.empty()) {
    print_usage(stderr);
    return 2;
  }

  if (dry_run) {
    try {
      const sim::DryRunReport preview =
          sim::Campaign(std::move(spec)).dry_run();
      if (!quiet) std::printf("%s\n", preview.str().c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "xchain-sweep: %s\n", e.what());
      return 2;
    }
    return 0;
  }

  sim::CampaignReport report;
  try {
    report = sim::Campaign(std::move(spec)).run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xchain-sweep: %s\n", e.what());
    return 2;
  }

  if (!quiet) {
    std::printf("%s\n", report.str().c_str());
  }

  if (!json_path.empty()) {
    const sim::CampaignStamp stamp{XCHAIN_GIT_COMMIT, XCHAIN_BUILD_TYPE,
                                   XCHAIN_COMPILER};
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "xchain-sweep: cannot open %s\n",
                   json_path.c_str());
      return 2;
    }
    const std::string json = sim::campaign_json(report, stamp);
    const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
    if (std::fclose(f) != 0 || written != json.size()) {
      std::fprintf(stderr, "xchain-sweep: short write to %s\n",
                   json_path.c_str());
      return 2;
    }
    if (!quiet) std::printf("wrote %s\n", json_path.c_str());
  }

  return report.ok() ? 0 : 1;
}
