// A9 — Monitoring and custodian reassignment (Section 3.6 future work,
// implemented).
//
// Paper: monitoring tools should "recognize long-term changes in user access
// patterns and help reassign users to cluster servers so as to balance
// server loads and reduce cross-cluster traffic"; Section 3.1: "we may
// install mechanisms in Vice to monitor long-term access file patterns and
// recommend changes... a human operator will initiate the actual
// reassignment."
//
// Reproduction: half the users of cluster 1 have homes custodian-ed in
// cluster 0 (they "moved dormitories"). A working day runs; the Monitor
// scans the access counters and recommends moves; the operator applies
// them; a second day runs. We compare cross-cluster traffic and latency.

#include "bench/harness.h"

#include "src/common/logging.h"
#include "src/vice/monitor.h"

namespace {

using namespace itc;
using namespace itc::bench;

struct DayResult {
  uint64_t cross_cluster_messages;
  double cross_cluster_mb;
  double open_ms;
};

DayResult RunDay(campus::Campus& campus,
                 std::vector<std::unique_ptr<workload::SyntheticUser>>& users) {
  // Fresh counters AND fresh resource queues: server/LAN ready-times from
  // the previous day would otherwise make early-starting clients queue
  // behind phantom work.
  campus.ResetAllStats();
  for (uint32_t w = 0; w < campus.workstation_count(); ++w) {
    campus.workstation(w).venus().FlushCache();
  }
  sim::Scheduler sched;
  for (auto& u : users) sched.Add(u.get());
  sched.RunAll();

  DayResult r{};
  r.cross_cluster_messages = campus.network().stats().cross_cluster_messages;
  r.cross_cluster_mb =
      static_cast<double>(campus.network().stats().cross_cluster_bytes) / (1 << 20);
  venus::VenusStats total;
  for (uint32_t w = 0; w < campus.workstation_count(); ++w) {
    total += campus.workstation(w).venus().stats();
  }
  r.open_ms = total.MeanOpenLatency() / 1000.0;
  return r;
}

}  // namespace

int main() {
  PrintTitle("A9: monitoring-driven custodian reassignment (bench_monitoring)",
             "monitor access patterns, recommend volume moves, reduce "
             "cross-cluster traffic (Sections 3.1/3.6)");

  campus::Campus campus(campus::CampusConfig::Revised(2, 6));
  ITC_CHECK(campus.SetupRootVolume().ok());

  // Users 0-5 sit in cluster 0, users 6-11 in cluster 1. The cluster-1 users
  // all have their volumes custodian-ed WRONG (server 0): they moved.
  std::vector<std::unique_ptr<workload::SyntheticUser>> users;
  workload::UserDayConfig day;
  day.operations = 500;
  day.mean_think = Seconds(8);
  day.p_read_system = 0;  // no system volume in this lab; own files only
  day.p_read_own = 0.50;
  day.p_stat = 0.30;
  for (uint32_t w = 0; w < campus.workstation_count(); ++w) {
    const std::string name = "u" + std::to_string(w);
    auto home = campus.AddUserWithHome(name, "pw", /*custodian=*/0);  // all at server 0
    ITC_CHECK(home.ok());
    ITC_CHECK(workload::PopulateUserFiles(campus, home->volume, day.own_files, w) ==
              Status::kOk);
    ITC_CHECK(campus.workstation(w).LoginWithPassword(home->user, "pw") == Status::kOk);
    users.push_back(std::make_unique<workload::SyntheticUser>(
        &campus.workstation(w), "/vice" + home->vice_path, "/bin", day, 7000 + w));
  }

  PrintSection("day 1: all volumes custodian-ed at server 0");
  const DayResult before = RunDay(campus, users);
  std::printf("cross-cluster: %llu msgs, %.1f MB; mean open %.0f ms\n",
              static_cast<unsigned long long>(before.cross_cluster_messages),
              before.cross_cluster_mb, before.open_ms);

  PrintSection("operator runs the monitor");
  vice::Monitor monitor(&campus.registry(), /*dominance=*/0.6, /*min_accesses=*/50);
  auto report = monitor.Scan();
  std::printf("%zu recommendation(s):\n", report.moves.size());
  for (const auto& rec : report.moves) {
    std::printf("  %s\n", rec.Describe().c_str());
    ITC_CHECK(monitor.Apply(rec) == Status::kOk);
  }

  // Fresh user scripts for day 2 (same statistical day).
  std::vector<std::unique_ptr<workload::SyntheticUser>> day2;
  for (uint32_t w = 0; w < campus.workstation_count(); ++w) {
    day2.push_back(std::make_unique<workload::SyntheticUser>(
        &campus.workstation(w), "/vice/usr/u" + std::to_string(w), "/bin", day,
        9000 + w));
  }
  PrintSection("day 2: after applying the recommendations");
  const DayResult after = RunDay(campus, day2);
  std::printf("cross-cluster: %llu msgs, %.1f MB; mean open %.0f ms\n",
              static_cast<unsigned long long>(after.cross_cluster_messages),
              after.cross_cluster_mb, after.open_ms);

  std::printf("\nshape check: the monitor identifies exactly the mis-homed volumes\n"
              "(cluster-1 users custodian-ed at server 0); applying the moves cuts\n"
              "cross-cluster traffic and open latency — 'localize if possible'.\n");
  return 0;
}
