// Shared harness for the reproduction benches: standard campus construction,
// multi-user synthetic days, and table printing.
//
// Every bench binary reproduces one quantitative claim of Section 5.2 (or an
// ablation of a design decision); EXPERIMENTS.md maps benches to claims.

#ifndef BENCH_HARNESS_H_
#define BENCH_HARNESS_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/campus/campus.h"
#include "src/sim/scheduler.h"
#include "src/venus/venus.h"
#include "src/workload/populate.h"
#include "src/workload/synthetic_user.h"

namespace itc::bench {

void PrintTitle(const std::string& bench, const std::string& paper_claim);
void PrintSection(const std::string& name);

// --- Host memory sampling ---------------------------------------------------
// Peak RSS of the current process in KB since the last ResetPeakRss(), via
// VmHWM in /proc/self/status (clear_refs "5" resets the high-water mark).
// Falls back to the lifetime getrusage(RUSAGE_SELF) peak where /proc is
// unavailable — the fallback cannot be reset, so treat it as monotone.
// bench_kernel_throughput and bench_memory_per_client report it in their
// JSON rows: host memory is a first-class result for a simulator whose
// ambition is 10k clients.
void ResetPeakRss();
long ReadPeakRssKb();

// --- Host wall clock -----------------------------------------------------------
// Host wall-clock time of one bench phase (a campus set-up, a day, a
// dispatch loop), started at construction. Host time is what these benches
// measure, never an input to the simulation; this is the one place in bench/
// that reads the host clock.
class Phase {
 public:
  Phase() : start_ns_(HostNowNs()) {}
  double ElapsedMs() const { return static_cast<double>(HostNowNs() - start_ns_) / 1e6; }

 private:
  static int64_t HostNowNs();
  int64_t start_ns_;
};

// A campus of synthetic users, one per workstation, each with a home volume
// on the server in its own cluster, plus a shared system volume (mounted at
// /unix/sun) custodian-ed by server 0 and optionally released read-only to
// every server.
struct UserDayLabConfig {
  campus::CampusConfig campus;
  workload::UserDayConfig user_day;
  bool replicate_system_volume = false;
  uint64_t seed = 20251985;
  // Shards to run the day on, at most one per cluster (1 = the solo
  // kernel). Shard count cannot affect simulated results.
  uint32_t shard_count = 1;
};

class UserDayLab {
 public:
  explicit UserDayLab(UserDayLabConfig config);

  // Runs every user to completion; returns the final virtual time.
  SimTime Run();

  // Kernel events dispatched by the last Run() (resumption count).
  uint64_t last_kernel_events() const { return last_kernel_events_; }

  campus::Campus& campus() { return *campus_; }
  VolumeId system_volume() const { return system_volume_; }

  // Aggregated Venus statistics across all workstations.
  venus::VenusStats TotalVenusStats() const;
  // Aggregate server utilizations over [0, end].
  double ServerCpuUtilization(SimTime end) const;
  double ServerDiskUtilization(SimTime end) const;
  // Peak CPU utilization over tracking windows, across servers.
  double PeakServerCpuUtilization() const;

  const std::vector<std::unique_ptr<workload::SyntheticUser>>& users() const {
    return users_;
  }

 private:
  UserDayLabConfig config_;
  std::unique_ptr<campus::Campus> campus_;
  VolumeId system_volume_ = kInvalidVolume;
  std::vector<std::unique_ptr<workload::SyntheticUser>> users_;
  uint64_t last_kernel_events_ = 0;
};

}  // namespace itc::bench

#endif  // BENCH_HARNESS_H_
