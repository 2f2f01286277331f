// Synthetic user-day driver (reference [13]: "A Synthetic Driver for File
// System Simulation").
//
// A SyntheticUser is a sim::Process that walks one workstation through a
// working day: think, then stat / open-read / open-write / list / scratch
// in proportions configurable per experiment. File popularity within the
// user's own files and within the shared system binaries is Zipf, so a
// working set emerges and the cache-hit-ratio experiment (E2) has teeth.
//
// The user's files live under a Vice home directory; system binaries are
// reached through the /bin symlink; temporaries go to local /tmp — the three
// file classes of Section 4.

#ifndef SRC_WORKLOAD_SYNTHETIC_USER_H_
#define SRC_WORKLOAD_SYNTHETIC_USER_H_

#include <string>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/sim/scheduler.h"
#include "src/virtue/workstation.h"
#include "src/workload/zipf.h"

namespace itc::workload {

struct UserDayConfig {
  uint32_t operations = 2000;

  // Operation mix (cumulative-normalized internally). Defaults follow the
  // 1985 usage profile: text processing and browsing read far more than they
  // write ("files tend to be read much more frequently than written").
  double p_stat = 0.24;        // stat a file (ls -l style)
  double p_list = 0.08;        // list a directory
  double p_read_own = 0.32;    // open-read one of the user's files
  double p_read_system = 0.26; // run a system program (read its binary)
  double p_write_own = 0.02;   // edit: open-read then write back
  double p_tmp = 0.08;         // compiler-style scratch in /tmp

  uint32_t own_files = 60;      // files in the user's home working set
  uint32_t system_files = 40;   // shared binaries in /bin
  double zipf_theta = 1.0;      // popularity skew within each set

  SimTime mean_think = Seconds(12);  // exponential think time between ops

  // Bursty sessions: with probability `burst_probability` (checked when
  // idle), the user enters an intense stretch of `burst_length` operations
  // with `burst_think` pacing — an edit-compile session. Bursts are what
  // drive the short-term utilization peaks of Section 5.2.
  double burst_probability = 0.06;
  uint32_t burst_length = 15;
  SimTime burst_think = Millis(1500);
};

struct UserDayStats {
  uint64_t operations = 0;
  uint64_t errors = 0;
};

class SyntheticUser : public sim::Process {
 public:
  // `home` is the user's Vice home seen from the workstation (e.g.
  // "/vice/usr/alice"); system binaries are read via `bin_prefix`
  // (e.g. "/bin"). Files fN must already exist under both prefixes —
  // see PopulateUserFiles / the campus system-volume helpers.
  SyntheticUser(virtue::Workstation* ws, std::string home, std::string bin_prefix,
                UserDayConfig config, uint64_t seed);

  // sim::Process. Under the event kernel each Step() runs inside an
  // activity and suspends at every resource arrival, so queueing is exact
  // regardless of step granularity. Stepping is two-phase — one step
  // advances think time, the next performs the file operation — so the
  // operation runs only after the kernel has re-aligned this activity to
  // its post-think clock.
  SimTime now() const override { return ws_->clock().now(); }
  bool done() const override { return ops_done_ >= config_.operations; }
  void Step() override;

  const UserDayStats& stats() const { return stats_; }
  static std::string OwnFileName(uint32_t index) { return "f" + std::to_string(index); }
  static std::string SystemFileName(uint32_t index) {
    return "prog" + std::to_string(index);
  }

 private:
  void DoOne();

  virtue::Workstation* ws_;
  std::string home_;
  std::string bin_prefix_;
  UserDayConfig config_;
  Rng rng_;
  ZipfSampler own_pop_;
  ZipfSampler system_pop_;
  uint32_t ops_done_ = 0;
  uint32_t tmp_counter_ = 0;
  bool thinking_ = true;       // next step advances think time
  uint32_t burst_remaining_ = 0;
  UserDayStats stats_;
};

}  // namespace itc::workload

#endif  // SRC_WORKLOAD_SYNTHETIC_USER_H_
