// A17 — Server crash recovery: restart time vs volume size and log length.
//
// Paper (Section 3.5 / 2.2, Integrity): the file system must "be resilient
// to hardware and software failures" — a custodian that dies mid-operation
// comes back by restoring checkpoint images, replaying committed intentions,
// and salvaging every volume. This bench measures the two recovery cost
// drivers separately:
//
//   * volume size  — with an empty intention log, restart cost is restore
//     (proportional to image bytes) plus salvage (proportional to vnodes);
//   * log length   — with checkpointing disabled, restart cost grows with
//     the number of committed intentions that must be replayed.

#include "bench/harness.h"

#include <cstdio>

#include "src/common/logging.h"

namespace {

using namespace itc;
using namespace itc::bench;

struct Point {
  uint32_t x = 0;              // files or writes, per curve
  uint64_t vnodes = 0;         // across all volumes on the server
  uint64_t image_bytes = 0;    // checkpoint footprint restored
  uint64_t log_records = 0;    // intention records at crash time
  uint32_t replayed = 0;
  SimTime recovery_us = 0;
};

struct Lab {
  std::unique_ptr<campus::Campus> campus;
  UserId user = kAnonymousUser;
};

Lab MakeLab(uint32_t checkpoint_interval) {
  auto config = campus::CampusConfig::Revised(1, 1);
  config.vice.log_checkpoint_interval = checkpoint_interval;
  Lab lab;
  lab.campus = std::make_unique<campus::Campus>(config);
  ITC_CHECK(lab.campus->SetupRootVolume().ok());
  auto home = lab.campus->AddUserWithHome("a", "pw", /*custodian=*/0);
  ITC_CHECK(home.ok());
  lab.user = home->user;
  return lab;
}

uint64_t ServerVnodes(vice::ViceServer& server) {
  uint64_t n = 0;
  for (const auto* vol :
       {server.FindVolume(1), server.FindVolume(2), server.FindVolume(3)}) {
    if (vol != nullptr) n += vol->vnode_count();
  }
  return n;
}

// Recovery time as the volume grows. Checkpoint interval 1 keeps the log
// empty, so the measurement isolates restore + salvage.
Point RunVolumeSizePoint(uint32_t files) {
  auto [campus, user] = MakeLab(/*checkpoint_interval=*/1);
  auto& ws = campus->workstation(0);
  ITC_CHECK(ws.LoginWithPassword(user, "pw") == Status::kOk);
  const Bytes payload(4096, 0x5a);
  for (uint32_t i = 0; i < files; ++i) {
    ITC_CHECK(ws.WriteWholeFile("/vice/usr/a/f" + std::to_string(i), payload) ==
              Status::kOk);
  }

  Point p;
  p.x = files;
  p.vnodes = ServerVnodes(campus->server(0));
  p.image_bytes = campus->server(0).stable_store().image_bytes();
  p.log_records = campus->server(0).stable_store().log().size();
  campus->CrashServer(0);
  auto report = campus->RestartServer(0, ws.clock().now());
  ITC_CHECK(report.clean());
  p.replayed = report.intentions_replayed;
  p.recovery_us = report.recovery_time;
  return p;
}

// Recovery time as the intention log grows. Checkpointing disabled, so every
// committed record must be replayed over the last checkpoint image.
Point RunLogLengthPoint(uint32_t writes) {
  auto [campus, user] = MakeLab(/*checkpoint_interval=*/0);
  auto& ws = campus->workstation(0);
  ITC_CHECK(ws.LoginWithPassword(user, "pw") == Status::kOk);
  const Bytes payload(1024, 0x5a);
  for (uint32_t i = 0; i < writes; ++i) {
    ITC_CHECK(ws.WriteWholeFile("/vice/usr/a/f" + std::to_string(i % 8), payload) ==
              Status::kOk);
  }

  Point p;
  p.x = writes;
  p.vnodes = ServerVnodes(campus->server(0));
  p.image_bytes = campus->server(0).stable_store().image_bytes();
  p.log_records = campus->server(0).stable_store().log().size();
  campus->CrashServer(0);
  auto report = campus->RestartServer(0, ws.clock().now());
  ITC_CHECK(report.clean());
  p.replayed = report.intentions_replayed;
  p.recovery_us = report.recovery_time;
  return p;
}

void PrintCurve(const char* x_name, const std::vector<Point>& curve) {
  std::printf("  %10s %8s %12s %10s %9s %13s\n", x_name, "vnodes", "image_bytes",
              "log_recs", "replayed", "recovery_us");
  for (const Point& p : curve) {
    std::printf("  %10u %8llu %12llu %10llu %9u %13lld\n", p.x,
                static_cast<unsigned long long>(p.vnodes),
                static_cast<unsigned long long>(p.image_bytes),
                static_cast<unsigned long long>(p.log_records), p.replayed,
                static_cast<long long>(p.recovery_us));
  }
}

}  // namespace

int main() {
  PrintTitle("A17: crash-recovery time (bench_recovery)",
             "restart = restore images + replay committed intentions + salvage");

  PrintSection("recovery time vs volume size (log empty: restore + salvage)");
  std::vector<Point> by_size;
  for (uint32_t files : {8u, 32u, 128u, 512u}) by_size.push_back(RunVolumeSizePoint(files));
  PrintCurve("files", by_size);

  PrintSection("recovery time vs intention-log length (checkpointing off)");
  std::vector<Point> by_log;
  for (uint32_t writes : {8u, 32u, 128u, 512u}) by_log.push_back(RunLogLengthPoint(writes));
  PrintCurve("writes", by_log);
  return 0;
}
