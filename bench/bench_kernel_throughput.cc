// Kernel throughput: wall-clock cost per event of the fiber kernel.
//
// This bench measures the simulator, not the file system, in three sections:
//
//   dispatch  N activities that only suspend/resume (sim::AlignTo in a
//             loop) — pure kernel events, no file-system work. Every event
//             is one user-space switch pair, so the row measures exactly
//             the parking cost, and it is where the >=1,000 events per OS
//             context switch requirement is gated: a fiber switch never
//             enters the OS scheduler, so on any host the rows show (almost)
//             no OS switch in 400k events.
//   campus    a full campus day (N clients across 25-workstation clusters
//             running synthetic user scripts): each event carries real
//             Venus/Vice work, the end-to-end number users feel.
//   sharded   a dense 8-cluster day on the solo kernel and on 8 shards.
//
// Each activity is one pooled fiber: one user-space stack switch per
// suspend/resume (callee-saved registers only, no system call), an
// allocation-free steady state. The thread backend that the kernel keeps as
// the equivalence tests' reference is not measured here.
//
// Emits BENCH_kernel_perf.json. With --baseline=PATH it compares the rows
// against a checked-in baseline and exits non-zero if events/sec regresses
// by more than 30% on any row (the CI perf-smoke gate).

#include <sys/resource.h>

#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/harness.h"

namespace {

using namespace itc;
using namespace itc::bench;

// ResetPeakRss/ReadPeakRssKb live in bench/harness.cc (shared by every
// bench); this file keeps only the context-switch counter.
long OsContextSwitches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_nvcsw + ru.ru_nivcsw;
}

struct Row {
  std::string workload;  // "dispatch", "campus", "shardsolo", "sharded"
  uint32_t clients = 0;
  uint32_t ops_per_client = 0;
  uint32_t shards = 1;  // kernels driving the run (1 = solo kernel)
  uint64_t events = 0;
  double wall_ms = 0;
  double events_per_sec = 0;
  long peak_rss_kb = 0;
  long os_switches = 0;
  double events_per_os_switch = 0;
  double sim_end_s = 0;
};

// Times `run`, which returns the run's virtual end time and its event
// count, and fills the measured fields of `r` from it.
template <typename RunFn>
void Measure(Row& r, RunFn run) {
  ResetPeakRss();
  const long switches_before = OsContextSwitches();
  const Phase phase;
  const auto [end, events] = run();
  r.wall_ms = phase.ElapsedMs();
  r.events = events;
  r.events_per_sec = r.wall_ms > 0 ? 1000.0 * static_cast<double>(r.events) / r.wall_ms : 0;
  r.peak_rss_kb = ReadPeakRssKb();
  r.os_switches = OsContextSwitches() - switches_before;
  r.events_per_os_switch =
      r.os_switches > 0 ? static_cast<double>(r.events) / static_cast<double>(r.os_switches)
                        : static_cast<double>(r.events);
  r.sim_end_s = static_cast<double>(end) / 1e6;
}

// N activities, each resuming `waits` times at interleaved virtual times.
// Every event is exactly one suspend/resume round trip with no body work,
// so events/sec here is the reciprocal of the kernel's per-event cost.
Row RunDispatch(uint32_t activities, uint32_t waits) {
  sim::Kernel kernel;
  for (uint32_t a = 0; a < activities; ++a) {
    kernel.Spawn("spin" + std::to_string(a), static_cast<SimTime>(a),
                 [a, waits, activities] {
                   SimTime t = static_cast<SimTime>(a);
                   for (uint32_t i = 0; i < waits; ++i) {
                     t += activities;  // keep the N activities interleaved
                     sim::AlignTo(t);
                   }
                 });
  }
  Row r;
  r.workload = "dispatch";
  r.clients = activities;
  r.ops_per_client = waits;
  Measure(r, [&kernel] {
    kernel.Run();
    return std::pair{kernel.now(), kernel.events_dispatched()};
  });
  return r;
}

Row RunLab(const char* workload, UserDayLabConfig config, uint32_t clients) {
  UserDayLab lab(config);
  Row r;
  r.workload = workload;
  r.clients = clients;
  r.ops_per_client = config.user_day.operations;
  r.shards = config.shard_count;
  Measure(r, [&lab] {
    const SimTime end = lab.Run();
    return std::pair{end, lab.last_kernel_events()};
  });
  return r;
}

Row RunDay(uint32_t clients, uint32_t ops) {
  UserDayLabConfig config;
  config.campus = campus::CampusConfig::Revised(clients / 25, 25);
  // Packet sealing is real host CPU (XTEA over every payload byte) but its
  // *simulated* cost is charged separately via CostModel::CryptoCpu, so for
  // a bench of the kernel itself we skip the host-side work;
  // bench_encryption_cost owns the security-cost ablation.
  config.campus.rpc.encrypt = false;
  config.user_day.operations = ops;
  config.user_day.mean_think = Seconds(35);
  return RunLab("campus", config, clients);
}

// The sharded arm: the same dense day on the solo kernel ("shardsolo") and
// on the kernel group ("sharded"). Shards overlap wall-clock work only when
// every shard has events inside the backbone lookahead window (10 ms
// virtual), so this day is deliberately dense — short think times, eight
// clusters — and the system volume is released read-only everywhere so the
// day's traffic stays cluster-local (the locality configuration the cluster
// design targets, and the one the equivalence test proves bit-identical).
Row RunShardedArm(const char* workload, uint32_t shards) {
  constexpr uint32_t kClusters = 8;
  constexpr uint32_t kPerCluster = 8;
  UserDayLabConfig config;
  config.campus = campus::CampusConfig::Revised(kClusters, kPerCluster);
  config.campus.rpc.encrypt = false;  // same rationale as RunDay
  config.replicate_system_volume = true;
  config.shard_count = shards;
  config.user_day.operations = 200;
  config.user_day.mean_think = Seconds(2);
  return RunLab(workload, config, kClusters * kPerCluster);
}

void WriteJson(const std::string& path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return;
  }
  // One row object per line: the baseline check below (and any awk/grep)
  // parses line-wise, no JSON library needed.
  std::fprintf(f, "{\n  \"bench\": \"kernel_throughput\",\n  \"host_cores\": %u,\n  \"rows\": [\n",
               std::thread::hardware_concurrency());
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"clients\": %u, "
                 "\"ops_per_client\": %u, \"shards\": %u, "
                 "\"events\": %llu, \"wall_ms\": %.3f, \"events_per_sec\": %.1f, "
                 "\"peak_rss_kb\": %ld, \"os_ctx_switches\": %ld, "
                 "\"events_per_os_switch\": %.1f, \"sim_end_s\": %.1f}%s\n",
                 r.workload.c_str(), r.clients, r.ops_per_client, r.shards,
                 static_cast<unsigned long long>(r.events), r.wall_ms, r.events_per_sec,
                 r.peak_rss_kb, r.os_switches, r.events_per_os_switch, r.sim_end_s,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

// Pulls (workload, clients -> events_per_sec) out of a baseline file written
// by WriteJson. Line-wise sscanf; returns false if nothing parsed.
struct BaselineRow {
  std::string workload;
  uint32_t clients = 0;
  double events_per_sec = 0;
};

bool LoadBaseline(const std::string& path, std::vector<BaselineRow>& out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  char line[512];
  while (std::fgets(line, sizeof(line), f)) {
    BaselineRow b;
    char workload[32] = {0};
    const char* wl = std::strstr(line, "\"workload\":");
    const char* c = std::strstr(line, "\"clients\":");
    const char* e = std::strstr(line, "\"events_per_sec\":");
    if (wl != nullptr && c != nullptr && e != nullptr &&
        std::sscanf(wl, "\"workload\": \"%31[a-z]\"", workload) == 1 &&
        std::sscanf(c, "\"clients\": %u", &b.clients) == 1 &&
        std::sscanf(e, "\"events_per_sec\": %lf", &b.events_per_sec) == 1) {
      b.workload = workload;
      out.push_back(b);
    }
  }
  std::fclose(f);
  return !out.empty();
}

int CheckBaseline(const std::string& path, const std::vector<Row>& rows) {
  std::vector<BaselineRow> base;
  if (!LoadBaseline(path, base)) {
    std::fprintf(stderr, "baseline %s missing or unparseable\n", path.c_str());
    return 1;
  }
  int failures = 0;
  for (const BaselineRow& b : base) {
    for (const Row& r : rows) {
      if (r.workload != b.workload || r.clients != b.clients) continue;
      const double floor = 0.70 * b.events_per_sec;
      const bool ok = r.events_per_sec >= floor;
      std::printf("baseline %-9s N=%-5u %12.0f ev/s vs %12.0f baseline  %s\n",
                  b.workload.c_str(), b.clients, r.events_per_sec, b.events_per_sec,
                  ok ? "ok" : "REGRESSION (>30% drop)");
      if (!ok) ++failures;
    }
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--baseline=", 11) == 0) baseline = argv[i] + 11;
  }

  PrintTitle("kernel throughput (bench_kernel_throughput)",
             "the revised Vice abandoned process-per-client because context "
             "switches dominated at scale (3.5.2); the simulation kernel "
             "gets the same LWP treatment");

  struct Point {
    uint32_t clients, ops;
  };
  const Point points[] = {{50, 480}, {200, 120}, {1000, 24}};
  std::vector<Row> rows;
  auto print_row = [](const Row& r) {
    std::printf("%8u %8u %6u %10llu %10.1f %14.0f %10.1f %14.1f\n", r.shards, r.clients,
                r.ops_per_client, static_cast<unsigned long long>(r.events), r.wall_ms,
                r.events_per_sec, r.peak_rss_kb / 1024.0, r.events_per_os_switch);
  };
  auto print_header = [](const char* per_client) {
    std::printf("%8s %8s %6s %10s %10s %14s %10s %14s\n", "shards", "clients", per_client,
                "events", "wall ms", "events/sec", "rss MB", "ev/OS-switch");
  };
  int failures = 0;

  // Gate: a fiber switch is a user-space stack switch, so pure dispatch
  // must take at least 1,000 events per OS context switch. OS-thread
  // parking takes two scheduler round trips per event (0.5 events per OS
  // switch). The ratio of two counts on one run does not depend on the
  // host's speed.
  constexpr double kMinEventsPerOsSwitch = 1000;
  PrintSection("kernel dispatch: N activities, suspend/resume only, no body work");
  print_header("waits");
  for (const Point& p : points) {
    // Constant 400k events per run: `waits` shrinks as N grows.
    rows.push_back(RunDispatch(p.clients, 400000 / p.clients));
    print_row(rows.back());
  }
  for (const Row& r : rows) {
    const bool ok = r.events_per_os_switch >= kMinEventsPerOsSwitch;
    std::printf("dispatch N=%-5u %10.1f events per OS switch %s\n", r.clients,
                r.events_per_os_switch,
                ok ? "(>=1000 required: ok)" : "(>=1000 required: FAIL)");
    if (!ok) ++failures;
  }

  PrintSection("full campus day: 25-workstation clusters, ops scaled down with N");
  print_header("ops");
  for (const Point& p : points) {
    rows.push_back(RunDay(p.clients, p.ops));
    print_row(rows.back());
  }

  PrintSection("sharded campus day: 8 clusters x 8 workstations, dense (2s think)");
  print_header("ops");
  constexpr uint32_t kShardArmShards = 8;
  rows.push_back(RunShardedArm("shardsolo", 1));
  const Row solo = rows.back();
  print_row(solo);
  rows.push_back(RunShardedArm("sharded", kShardArmShards));
  const Row shd = rows.back();
  print_row(shd);
  const double shard_speedup = shd.wall_ms > 0 ? solo.wall_ms / shd.wall_ms : 0.0;
  const unsigned host_cores = std::thread::hardware_concurrency();

  // Sharded gate: 8 shards must reclaim >=3x wall clock over the solo kernel
  // on the same day — but only where 8 shards can actually run in parallel.
  // On narrower hosts the number is reported, not gated (a 1-core runner
  // measures synchronization overhead, not the design).
  {
    const bool same_day = shd.sim_end_s == solo.sim_end_s;
    const bool gated = host_cores >= 8;
    const bool ok = same_day && (!gated || shard_speedup >= 3.0);
    std::printf("sharded: %u shards on %u host cores, speedup %.2fx %s; sim_end %s\n",
                shd.shards, host_cores, shard_speedup,
                gated ? (shard_speedup >= 3.0 ? "(>=3x required: ok)" : "(>=3x required: FAIL)")
                      : "(>=3x gate skipped: <8 host cores)",
                same_day ? "identical (shard count cannot affect simulated results)"
                         : "DIVERGED — sharding changed simulated results");
    if (!ok) ++failures;
  }

  WriteJson("BENCH_kernel_perf.json", rows);
  if (!baseline.empty()) failures += CheckBaseline(baseline, rows);

  if (failures > 0) {
    std::printf("\n%d throughput check(s) failed\n", failures);
    return 1;
  }
  return 0;
}
