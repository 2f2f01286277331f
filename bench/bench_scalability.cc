// E5 — Scalability: clients per server.
//
// Paper: "In actual use, we operate our system with about 20 workstations
// per server. At this client/server ratio, our users perceive the overall
// performance of the workstations to be equal to or better than that of the
// large timesharing systems on campus. However, there have been a few
// occasions when intense file system activity by a few users has drastically
// lowered performance for all other active users."
//
// Reproduction: sweep the number of active workstations on one prototype
// server, reporting mean open latency and server CPU utilization — the knee
// appears as the CPU saturates. A final row adds one "intense" user (no
// think time, cold cache) to 19 normal ones to reproduce the everyone-
// suffers effect. The Section 1 target scale (10,000 workstations on the
// revised campus) runs once, in bench_memory_per_client, which prints this
// bench's columns for it.

#include "bench/harness.h"

namespace {

using namespace itc;
using namespace itc::bench;

struct RowResult {
  double cpu_util;
  double open_ms;
  double hit_ratio;
};

RowResult RunDay(uint32_t clients) {
  UserDayLabConfig config;
  config.campus = campus::CampusConfig::Prototype(1, clients);
  config.user_day.operations = 600;
  config.user_day.mean_think = Seconds(35);
  UserDayLab lab(config);
  const SimTime end = lab.Run();
  const auto stats = lab.TotalVenusStats();
  return RowResult{lab.ServerCpuUtilization(end), stats.MeanOpenLatency() / 1000.0,
                   stats.HitRatio()};
}

// A normal population plus `hogs` zero-think, cache-hostile users.
RowResult RunDayWithHogs(uint32_t normal, uint32_t hogs) {
  UserDayLabConfig config;
  config.campus = campus::CampusConfig::Prototype(1, normal + hogs);
  config.user_day.operations = 600;
  config.user_day.mean_think = Seconds(35);
  UserDayLab lab(config);

  // Shrink the hogs' caches to force misses and remove their think time by
  // replacing their scripts.
  std::vector<std::unique_ptr<workload::SyntheticUser>> hog_users;
  sim::Scheduler sched;
  for (uint32_t w = 0; w < lab.campus().workstation_count(); ++w) {
    if (w < hogs) {
      workload::UserDayConfig hog_cfg = config.user_day;
      hog_cfg.mean_think = Millis(200);
      hog_cfg.operations = 3000;
      hog_cfg.zipf_theta = 0.0;  // no locality: constant misses
      hog_cfg.p_read_own = 0.70;
      hog_cfg.p_stat = 0.10;
      hog_cfg.p_read_system = 0.10;
      hog_cfg.p_list = 0.05;
      hog_cfg.p_write_own = 0.05;
      hog_cfg.p_tmp = 0.0;
      hog_users.push_back(std::make_unique<workload::SyntheticUser>(
          &lab.campus().workstation(w), "/vice/usr/u" + std::to_string(w), "/bin",
          hog_cfg, 4242 + w));
      sched.Add(hog_users.back().get());
    } else {
      sched.Add(lab.users()[w].get());
    }
  }
  const SimTime end = sched.RunUntil(Seconds(4000));

  // Report the experience of the NORMAL users only.
  venus::VenusStats normal_stats;
  for (uint32_t w = hogs; w < lab.campus().workstation_count(); ++w) {
    normal_stats += lab.campus().workstation(w).venus().stats();
  }
  double busy = static_cast<double>(lab.campus().server(0).endpoint().cpu().busy_time());
  return RowResult{busy / static_cast<double>(end),
                   normal_stats.MeanOpenLatency() / 1000.0, normal_stats.HitRatio()};
}

}  // namespace

int main() {
  PrintTitle("E5: clients per server (bench_scalability)",
             "~20 clients/server feels like timesharing; a few intense users "
             "can drag everyone down");
  std::printf("workload: prototype server, N workstations x 600 ops each\n\n");
  std::printf("%10s %10s %16s %10s\n", "clients", "cpu util", "open latency", "hit ratio");

  // N up to 200 on one prototype server: far past the paper's operating
  // point, affordable since the kernel's fiber backend (docs/KERNEL.md).
  for (uint32_t n : {1, 5, 10, 20, 40, 50, 60, 100, 200}) {
    const RowResult r = RunDay(n);
    std::printf("%10u %9.1f%% %13.0f ms %9.1f%%\n", n, 100.0 * r.cpu_util, r.open_ms,
                100.0 * r.hit_ratio);
  }

  PrintSection("19 normal users + 1 intense user (cache-hostile, no think time)");
  const RowResult calm = RunDay(19);
  const RowResult hogged = RunDayWithHogs(19, 1);
  std::printf("%-30s %9.1f%% %13.0f ms\n", "19 normal users alone",
              100.0 * calm.cpu_util, calm.open_ms);
  std::printf("%-30s %9.1f%% %13.0f ms   <- everyone suffers\n",
              "same + 1 intense user", 100.0 * hogged.cpu_util, hogged.open_ms);

  std::printf("\nshape check: open latency is flat until the server CPU saturates\n"
              "(the knee sits near the paper's 20 clients/server operating point),\n"
              "and one intense user measurably degrades every other user.\n");

  return 0;
}
