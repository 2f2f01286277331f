#include "bench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>

#include "src/common/logging.h"

namespace itc::bench {

void ResetPeakRss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5\n", f);
    std::fclose(f);
  }
}

long ReadPeakRssKb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof(line), f)) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
    }
    std::fclose(f);
    if (kb >= 0) return kb;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

int64_t Phase::HostNowNs() {
  // itcfs-lint: allow(sim-determinism, sim-determinism-transitive) -- host wall clock IS the measurement here
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
}

void PrintTitle(const std::string& bench, const std::string& paper_claim) {
  std::printf("================================================================\n");
  std::printf("%s\n", bench.c_str());
  std::printf("paper (SOSP'85, Section 5.2): %s\n", paper_claim.c_str());
  std::printf("================================================================\n");
}

void PrintSection(const std::string& name) {
  std::printf("\n--- %s ---\n", name.c_str());
}

UserDayLab::UserDayLab(UserDayLabConfig config) : config_(std::move(config)) {
  campus_ = std::make_unique<campus::Campus>(config_.campus);
  auto rootvol = campus_->SetupRootVolume();
  ITC_CHECK(rootvol.ok());

  // Shared system binaries at server 0 (optionally replicated everywhere).
  auto sysvol = campus_->CreateSystemVolume("sys.sun", "/unix/sun", /*custodian=*/0);
  ITC_CHECK(sysvol.ok());
  system_volume_ = *sysvol;
  ITC_CHECK(workload::PopulateSystemBinaries(*campus_, system_volume_,
                                             config_.user_day.system_files,
                                             config_.seed ^ 0xb1) == Status::kOk);
  if (config_.replicate_system_volume) {
    std::vector<ServerId> sites;
    for (ServerId s = 0; s < campus_->server_count(); ++s) sites.push_back(s);
    ITC_CHECK(campus_->registry().ReleaseReadOnly(system_volume_, "sys.sun.ro", sites).ok());
  }

  // One user per workstation, home volume at the home-cluster server.
  for (uint32_t w = 0; w < campus_->workstation_count(); ++w) {
    const std::string name = "u" + std::to_string(w);
    auto home = campus_->AddUserWithHome(name, "pw-" + name, campus_->HomeServerOf(w));
    ITC_CHECK(home.ok());
    ITC_CHECK(workload::PopulateUserFiles(*campus_, home->volume,
                                          config_.user_day.own_files,
                                          config_.seed ^ w) == Status::kOk);
    auto& ws = campus_->workstation(w);
    ITC_CHECK(ws.LoginWithPassword(home->user, "pw-" + name) == Status::kOk);
    users_.push_back(std::make_unique<workload::SyntheticUser>(
        &ws, "/vice" + home->vice_path, "/bin", config_.user_day,
        config_.seed ^ (0xda7aull & 0xffff) ^ (w * 7919)));
  }

  if (config_.replicate_system_volume) {
    // Root volume too — path traversal (/vice, /vice/usr, /vice/unix) is the
    // remaining reason a cluster crosses the backbone on a localized day.
    // Released after the loop above so the clones carry every home-volume
    // mount point; the cache flush drops location hints (and root copies)
    // the login traversal fetched from the read-write custodian.
    std::vector<ServerId> sites;
    for (ServerId s = 0; s < campus_->server_count(); ++s) sites.push_back(s);
    ITC_CHECK(campus_->registry().ReleaseReadOnly(*rootvol, "vice.root.ro", sites).ok());
    for (uint32_t w = 0; w < campus_->workstation_count(); ++w) {
      campus_->workstation(w).venus().FlushCache();
    }
  }

  // The populate/login prologue above consumed server resources "before the
  // day"; discard it so utilization and the 5-minute peak windows (anchored
  // at virtual time 0, and only enableable on a fresh resource) measure the
  // synthetic day alone.
  for (uint32_t s = 0; s < campus_->server_count(); ++s) {
    campus_->server(s).endpoint().cpu().Reset();
    campus_->server(s).endpoint().disk().Reset();
    campus_->server(s).endpoint().cpu().EnableWindowTracking(Seconds(300));
  }
}

SimTime UserDayLab::Run() {
  sim::Scheduler sched;
  sched.set_shard_count(config_.shard_count);
  sched.set_lookahead(config_.campus.cost.BackboneLookahead());
  // User i drives workstation i; its shard domain is that workstation's
  // cluster, so a user's intra-cluster traffic never leaves its shard.
  const net::Topology& topo = campus_->network().topology();
  for (uint32_t w = 0; w < users_.size(); ++w) {
    sched.Add(users_[w].get(), topo.ClusterOfNthWorkstation(w));
  }
  const SimTime end = sched.RunAll();
  last_kernel_events_ = sched.last_events();
  return end;
}

venus::VenusStats UserDayLab::TotalVenusStats() const {
  venus::VenusStats total;
  for (uint32_t w = 0; w < campus_->workstation_count(); ++w) {
    total += const_cast<campus::Campus&>(*campus_).workstation(w).venus().stats();
  }
  return total;
}

double UserDayLab::ServerCpuUtilization(SimTime end) const {
  double busy = 0;
  for (uint32_t s = 0; s < campus_->server_count(); ++s) {
    busy += static_cast<double>(
        const_cast<campus::Campus&>(*campus_).server(s).endpoint().cpu().busy_time());
  }
  return end > 0 ? busy / (static_cast<double>(end) *
                           static_cast<double>(campus_->server_count()))
                 : 0.0;
}

double UserDayLab::ServerDiskUtilization(SimTime end) const {
  double busy = 0;
  for (uint32_t s = 0; s < campus_->server_count(); ++s) {
    busy += static_cast<double>(
        const_cast<campus::Campus&>(*campus_).server(s).endpoint().disk().busy_time());
  }
  return end > 0 ? busy / (static_cast<double>(end) *
                           static_cast<double>(campus_->server_count()))
                 : 0.0;
}

double UserDayLab::PeakServerCpuUtilization() const {
  double peak = 0;
  for (uint32_t s = 0; s < campus_->server_count(); ++s) {
    for (double u :
         const_cast<campus::Campus&>(*campus_).server(s).endpoint().cpu().WindowUtilization()) {
      peak = std::max(peak, u);
    }
  }
  return peak;
}

}  // namespace itc::bench
