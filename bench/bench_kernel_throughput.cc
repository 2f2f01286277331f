// Kernel throughput: fiber vs thread backend, wall-clock cost per event.
//
// This bench measures the simulator, not the file system, in two sections:
//
//   dispatch  N activities that only suspend/resume (sim::AlignTo in a
//             loop) — pure kernel events, no file-system work. This is
//             where the backend difference lives, and where the >=10x
//             events/sec requirement is gated: every event is one context
//             switch pair, so the row measures exactly the baton cost.
//   campus    the same full campus day (N clients across 25-workstation
//             clusters running synthetic user scripts) on both backends —
//             the end-to-end number users feel. Here each event carries
//             real Venus/Vice work, so the backend gap is diluted by the
//             (shared) simulation work per event.
//
// The simulated results are byte-identical across backends
// (tests/sim/kernel_backend_test.cc proves it); only wall-clock time,
// memory, and OS context switches differ.
//
//   - kFiber:  one user-space stack switch per suspend/resume (callee-saved
//              registers only, no system call), pooled stacks,
//              allocation-free steady state.
//   - kThread: one OS thread per activity, baton passed through a
//              mutex+condvar pair — two scheduler round trips per event.
//
// Emits BENCH_kernel_perf.json. With --baseline=PATH it compares the fiber
// rows against a checked-in baseline and exits non-zero if events/sec
// regresses by more than 30% on any row (the CI perf-smoke gate).

#include <sys/resource.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
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
  std::string backend;
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

// N activities, each resuming `waits` times at interleaved virtual times.
// Every event is exactly one suspend/resume round trip with no body work,
// so events/sec here is the reciprocal of the backend's per-event cost.
Row RunDispatch(sim::KernelBackend backend, uint32_t activities, uint32_t waits) {
  sim::Kernel kernel(backend);
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

  ResetPeakRss();
  const long switches_before = OsContextSwitches();
  // itcfs-lint: allow(sim-determinism, sim-determinism-transitive) -- host wall clock IS the measurement here
  const auto t0 = std::chrono::steady_clock::now();
  kernel.Run();
  // itcfs-lint: allow(sim-determinism, sim-determinism-transitive) -- host wall clock IS the measurement here
  const auto t1 = std::chrono::steady_clock::now();

  Row r;
  r.workload = "dispatch";
  r.backend = sim::KernelBackendName(backend);
  r.clients = activities;
  r.ops_per_client = waits;
  r.events = kernel.events_dispatched();
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.events_per_sec = r.wall_ms > 0 ? 1000.0 * static_cast<double>(r.events) / r.wall_ms : 0;
  r.peak_rss_kb = ReadPeakRssKb();
  r.os_switches = OsContextSwitches() - switches_before;
  r.events_per_os_switch =
      r.os_switches > 0 ? static_cast<double>(r.events) / static_cast<double>(r.os_switches)
                        : static_cast<double>(r.events);
  r.sim_end_s = static_cast<double>(kernel.now()) / 1e6;
  return r;
}

Row RunDay(sim::KernelBackend backend, uint32_t clients, uint32_t ops) {
  UserDayLabConfig config;
  config.campus = campus::CampusConfig::Revised(clients / 25, 25);
  // Packet sealing is real host CPU (XTEA over every payload byte) but its
  // *simulated* cost is charged separately via CostModel::CryptoCpu, so for
  // a bench of the kernel itself we skip the host-side work. Both backends
  // run the identical configuration; bench_encryption_cost owns the
  // security-cost ablation.
  config.campus.rpc.encrypt = false;
  config.user_day.operations = ops;
  config.user_day.mean_think = Seconds(35);
  config.kernel_backend = backend;
  UserDayLab lab(config);

  ResetPeakRss();
  const long switches_before = OsContextSwitches();
  // itcfs-lint: allow(sim-determinism, sim-determinism-transitive) -- host wall clock IS the measurement here
  const auto t0 = std::chrono::steady_clock::now();
  const SimTime end = lab.Run();
  // itcfs-lint: allow(sim-determinism, sim-determinism-transitive) -- host wall clock IS the measurement here
  const auto t1 = std::chrono::steady_clock::now();

  Row r;
  r.workload = "campus";
  r.backend = sim::KernelBackendName(backend);
  r.clients = clients;
  r.ops_per_client = ops;
  r.events = lab.last_kernel_events();
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.events_per_sec = r.wall_ms > 0 ? 1000.0 * static_cast<double>(r.events) / r.wall_ms : 0;
  r.peak_rss_kb = ReadPeakRssKb();
  r.os_switches = OsContextSwitches() - switches_before;
  r.events_per_os_switch =
      r.os_switches > 0 ? static_cast<double>(r.events) / static_cast<double>(r.os_switches)
                        : static_cast<double>(r.events);
  r.sim_end_s = static_cast<double>(end) / 1e6;
  return r;
}

// The sharded arm: the same dense day on the solo kernel ("shardsolo") and
// on the kernel group ("sharded"). Shards overlap wall-clock work only when
// every shard has events inside the backbone lookahead window (10 ms
// virtual), so this day is deliberately dense — short think times, eight
// clusters — and the system volume is released read-only everywhere so the
// day's traffic stays cluster-local (the locality configuration the cluster
// design targets, and the one the equivalence test proves bit-identical).
Row RunShardedArm(const char* workload, sim::SchedulerMode mode, uint32_t shards) {
  constexpr uint32_t kClusters = 8;
  constexpr uint32_t kPerCluster = 8;
  constexpr uint32_t kOps = 200;
  UserDayLabConfig config;
  config.campus = campus::CampusConfig::Revised(kClusters, kPerCluster);
  config.campus.rpc.encrypt = false;  // same rationale as RunDay
  config.replicate_system_volume = true;
  config.scheduler_mode = mode;
  config.shard_count = mode == sim::SchedulerMode::kSharded ? shards : 0;
  config.user_day.operations = kOps;
  config.user_day.mean_think = Seconds(2);
  config.kernel_backend = sim::KernelBackend::kFiber;
  UserDayLab lab(config);

  ResetPeakRss();
  const long switches_before = OsContextSwitches();
  // itcfs-lint: allow(sim-determinism, sim-determinism-transitive) -- host wall clock IS the measurement here
  const auto t0 = std::chrono::steady_clock::now();
  const SimTime end = lab.Run();
  // itcfs-lint: allow(sim-determinism, sim-determinism-transitive) -- host wall clock IS the measurement here
  const auto t1 = std::chrono::steady_clock::now();

  Row r;
  r.workload = workload;
  r.backend = sim::KernelBackendName(config.kernel_backend);
  r.clients = kClusters * kPerCluster;
  r.ops_per_client = kOps;
  r.shards = mode == sim::SchedulerMode::kSharded ? shards : 1;
  r.events = lab.last_kernel_events();
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.events_per_sec = r.wall_ms > 0 ? 1000.0 * static_cast<double>(r.events) / r.wall_ms : 0;
  r.peak_rss_kb = ReadPeakRssKb();
  r.os_switches = OsContextSwitches() - switches_before;
  r.events_per_os_switch =
      r.os_switches > 0 ? static_cast<double>(r.events) / static_cast<double>(r.os_switches)
                        : static_cast<double>(r.events);
  r.sim_end_s = static_cast<double>(end) / 1e6;
  return r;
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
                 "    {\"workload\": \"%s\", \"backend\": \"%s\", \"clients\": %u, "
                 "\"ops_per_client\": %u, \"shards\": %u, "
                 "\"events\": %llu, \"wall_ms\": %.3f, \"events_per_sec\": %.1f, "
                 "\"peak_rss_kb\": %ld, \"os_ctx_switches\": %ld, "
                 "\"events_per_os_switch\": %.1f, \"sim_end_s\": %.1f}%s\n",
                 r.workload.c_str(), r.backend.c_str(), r.clients, r.ops_per_client, r.shards,
                 static_cast<unsigned long long>(r.events), r.wall_ms, r.events_per_sec,
                 r.peak_rss_kb, r.os_switches, r.events_per_os_switch, r.sim_end_s,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

// Pulls (workload, clients -> events_per_sec) for fiber rows out of a
// baseline file written by WriteJson. Line-wise sscanf; returns false if
// nothing parsed.
struct BaselineRow {
  std::string workload;
  uint32_t clients = 0;
  double events_per_sec = 0;
};

bool LoadFiberBaseline(const std::string& path, std::vector<BaselineRow>& out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  char line[512];
  while (std::fgets(line, sizeof(line), f)) {
    if (std::strstr(line, "\"backend\": \"fiber\"") == nullptr) continue;
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
  if (!LoadFiberBaseline(path, base)) {
    std::fprintf(stderr, "baseline %s missing or unparseable\n", path.c_str());
    return 1;
  }
  int failures = 0;
  for (const BaselineRow& b : base) {
    for (const Row& r : rows) {
      if (r.backend != "fiber" || r.workload != b.workload || r.clients != b.clients) {
        continue;
      }
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
    std::printf("%8s %8u %6u %10llu %10.1f %14.0f %10.1f %14.1f\n", r.backend.c_str(),
                r.clients, r.ops_per_client, static_cast<unsigned long long>(r.events),
                r.wall_ms, r.events_per_sec, r.peak_rss_kb / 1024.0,
                r.events_per_os_switch);
  };
  auto speedup_at = [&rows](const char* workload, uint32_t clients) {
    double thread_eps = 0, fiber_eps = 0;
    for (const Row& r : rows) {
      if (r.workload != workload || r.clients != clients) continue;
      (r.backend == "fiber" ? fiber_eps : thread_eps) = r.events_per_sec;
    }
    return thread_eps > 0 ? fiber_eps / thread_eps : 0.0;
  };
  const char* header_fmt = "%8s %8s %6s %10s %10s %14s %10s %14s\n";

  PrintSection("kernel dispatch: N activities, suspend/resume only, no body work");
  std::printf(header_fmt, "backend", "clients", "waits", "events", "wall ms", "events/sec",
              "rss MB", "ev/OS-switch");
  for (const Point& p : points) {
    // Constant 400k events per run: `waits` shrinks as N grows.
    const uint32_t waits = 400000 / p.clients;
    for (sim::KernelBackend b : {sim::KernelBackend::kThread, sim::KernelBackend::kFiber}) {
      rows.push_back(RunDispatch(b, p.clients, waits));
      print_row(rows.back());
    }
  }

  PrintSection("full campus day: 25-workstation clusters, ops scaled down with N");
  std::printf(header_fmt, "backend", "clients", "ops", "events", "wall ms", "events/sec",
              "rss MB", "ev/OS-switch");
  for (const Point& p : points) {
    for (sim::KernelBackend b : {sim::KernelBackend::kThread, sim::KernelBackend::kFiber}) {
      rows.push_back(RunDay(b, p.clients, p.ops));
      print_row(rows.back());
    }
  }

  PrintSection("sharded campus day: 8 clusters x 8 workstations, dense (2s think), fiber");
  std::printf("%8s %8s %6s %10s %10s %14s %10s %14s\n", "shards", "clients", "ops", "events",
              "wall ms", "events/sec", "rss MB", "ev/OS-switch");
  constexpr uint32_t kShardArmShards = 8;
  rows.push_back(RunShardedArm("shardsolo", sim::SchedulerMode::kEventDriven, 1));
  const Row& solo = rows.back();
  std::printf("%8u %8u %6u %10llu %10.1f %14.0f %10.1f %14.1f\n", solo.shards, solo.clients,
              solo.ops_per_client, static_cast<unsigned long long>(solo.events), solo.wall_ms,
              solo.events_per_sec, solo.peak_rss_kb / 1024.0, solo.events_per_os_switch);
  const double solo_wall_ms = solo.wall_ms;
  const double solo_sim_end = solo.sim_end_s;
  rows.push_back(RunShardedArm("sharded", sim::SchedulerMode::kSharded, kShardArmShards));
  const Row& shd = rows.back();
  std::printf("%8u %8u %6u %10llu %10.1f %14.0f %10.1f %14.1f\n", shd.shards, shd.clients,
              shd.ops_per_client, static_cast<unsigned long long>(shd.events), shd.wall_ms,
              shd.events_per_sec, shd.peak_rss_kb / 1024.0, shd.events_per_os_switch);
  const double shard_speedup = shd.wall_ms > 0 ? solo_wall_ms / shd.wall_ms : 0.0;
  const unsigned host_cores = std::thread::hardware_concurrency();

  // Acceptance gate: on the dispatch workload — where every event is exactly
  // one context-switch round trip — fiber must beat thread by >=10x at every
  // N >= 200. The campus speedup is reported but not gated: there both
  // backends share the same per-event simulation work, which dilutes the
  // ratio toward 1 as the day gets busier.
  int failures = 0;
  // Sharded gate: 8 shards must reclaim >=3x wall clock over the solo kernel
  // on the same day — but only where 8 shards can actually run in parallel.
  // On narrower hosts the number is reported, not gated (a 1-core runner
  // measures synchronization overhead, not the design).
  {
    const bool same_day = shd.sim_end_s == solo_sim_end;
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
  PrintSection("speedup (fiber vs thread)");
  for (const Point& p : points) {
    const double dispatch = speedup_at("dispatch", p.clients);
    const double campus = speedup_at("campus", p.clients);
    const bool gated = p.clients >= 200;
    const bool ok = !gated || dispatch >= 10.0;
    std::printf("N=%-5u dispatch %6.1fx %-24s campus %5.1fx\n", p.clients, dispatch,
                gated ? (ok ? "(>=10x required: ok)" : "(>=10x required: FAIL)") : "",
                campus);
    if (!ok) ++failures;
  }

  WriteJson("BENCH_kernel_perf.json", rows);
  if (!baseline.empty()) failures += CheckBaseline(baseline, rows);

  if (failures > 0) {
    std::printf("\n%d throughput check(s) failed\n", failures);
    return 1;
  }
  std::printf("\nshape check: both backends report identical sim_end_s for each row\n"
              "(backend choice cannot affect simulated time); the fiber advantage is\n"
              "total on pure dispatch and shrinks on the full day as per-event\n"
              "simulation work (shared by both backends) grows.\n");
  return 0;
}
