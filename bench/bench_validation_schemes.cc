// A1 — Cache validation: check-on-open vs callbacks vs leases.
//
// Paper (Section 3.2): "Our current design uses check-on-open to simplify
// implementation and reduce server state. However, experience with a
// prototype has convinced us that the cost of frequent cache validation is
// high enough to warrant the additional complexity of an invalidate-on-
// modification approach in our next implementation." Section 5.2 measured
// the cost: validation was 65% of all server calls.
//
// This bench runs the ablation three ways — the paper's two schemes plus
// Gray & Cheriton leases (time-bounded promises) — on an identical workload,
// then replays two availability scenarios the steady-state numbers hide:
//
//   * a healed link partition: how stale can a partitioned cache get, and
//     does the staleness survive the heal? (callbacks: yes, forever;
//     leases: bounded by the term; check-on-open: never stale, just down)
//   * a server restart storm: every client reconnects at once. Callbacks
//     must rebuild trust with epoch probes and a revalidation burst;
//     leases rebuild nothing — the server just refuses grants for one
//     term, and grants ride the validations clients make anyway.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/common/logging.h"

namespace {

using namespace itc;
using namespace itc::bench;

using Scheme = vice::Validation;

const char* SchemeName(Scheme s) {
  switch (s) {
    case Scheme::kCheckOnOpen: return "check-on-open";
    case Scheme::kCallbacks: return "callbacks";
    case Scheme::kLeases: return "leases";
  }
  return "?";
}

uint64_t OpCalls(const rpc::CallStats& stats, const std::string& name) {
  for (const auto& [opcode, op] : stats.per_op()) {
    if (op.name == name) return op.calls;
  }
  return 0;
}

// ---------------------------------------------------------------- steady state

struct SteadyResult {
  uint64_t total_calls = 0;
  uint64_t validations = 0;       // Validate round trips
  uint64_t renew_calls = 0;       // batched RenewLeases RPCs
  double validations_per_open = 0;
  double cpu_util = 0;
  double open_ms = 0;
  uint64_t promises_or_leases = 0;  // server-side trust state at day's end
};

SteadyResult RunSteadyArm(Scheme scheme) {
  UserDayLabConfig config;
  config.campus = campus::CampusConfig::Revised(1, 16);
  config.campus.UseValidation(scheme);
  config.user_day.operations = 1200;
  // Some genuine sharing so invalidations actually happen: users read each
  // other's system binaries by default; raise the edit rate a little.
  config.user_day.p_write_own = 0.05;
  UserDayLab lab(config);
  const SimTime end = lab.Run();

  const auto vs = lab.TotalVenusStats();
  SteadyResult r;
  r.total_calls = lab.campus().TotalCalls();
  r.validations = vs.validations;
  r.renew_calls = vs.lease_renew_calls;
  if (vs.opens > 0) {
    r.validations_per_open =
        static_cast<double>(vs.validations + vs.lease_renew_calls) /
        static_cast<double>(vs.opens);
  }
  r.cpu_util = lab.ServerCpuUtilization(end);
  r.open_ms = vs.MeanOpenLatency() / 1000.0;
  r.promises_or_leases = lab.campus().server(0).callbacks().promise_count(end);
  return r;
}

// ------------------------------------------------------------ healed partition

struct PartitionResult {
  double staleness_s = 0;        // last stale serve - write time (0: never)
  bool stale_after_heal = false; // still serving old data once the link is back
  double unavailable_s = 0;      // probe-seconds answered with an error
};

// One deterministic run: a reader caches a file, drops off the network for
// `partition_s` seconds, the writer updates the file `write_offset_s` in.
// Probes every second measure what the reader serves until 40 s past heal.
PartitionResult RunPartitionArm(Scheme scheme, int64_t partition_s,
                                int64_t write_offset_s) {
  campus::CampusConfig config = campus::CampusConfig::Revised(2, 2);
  config.UseValidation(scheme);
  campus::Campus campus(config);
  ITC_CHECK(campus.SetupRootVolume().ok());
  auto home = campus.AddUserWithHome("a", "pw", /*custodian=*/0);
  ITC_CHECK(home.ok());
  auto& writer = campus.workstation(0);  // custodian's own cluster
  auto& reader = campus.workstation(2);  // the other cluster
  ITC_CHECK(writer.LoginWithPassword(home->user, "pw") == Status::kOk);
  ITC_CHECK(reader.LoginWithPassword(home->user, "pw") == Status::kOk);
  const std::string file = "/vice/usr/a/shared";
  ITC_CHECK(writer.WriteWholeFile(file, ToBytes("v1")) == Status::kOk);
  ITC_CHECK(reader.ReadWholeFile(file).ok());

  const SimTime p1 =
      std::max(writer.clock().now(), reader.clock().now()) + Seconds(1);
  const SimTime p2 = p1 + Seconds(partition_s);
  campus.PartitionWorkstation(2, p1, p2);

  writer.clock().AdvanceTo(p1 + Seconds(write_offset_s));
  const SimTime write_at = writer.clock().now();
  ITC_CHECK(writer.WriteWholeFile(file, ToBytes("v2")) == Status::kOk);

  PartitionResult r;
  SimTime last_stale = 0;
  for (SimTime t = write_at + Seconds(1); t <= p2 + Seconds(40); t += Seconds(1)) {
    if (t <= reader.clock().now()) continue;  // a slow probe already passed t
    reader.clock().AdvanceTo(t);
    auto got = reader.ReadWholeFile(file);
    if (!got.ok()) {
      r.unavailable_s += 1;
      continue;
    }
    if (ToString(*got) == "v1") {
      last_stale = reader.clock().now();
      if (t > p2) r.stale_after_heal = true;
    }
  }
  if (last_stale > write_at) {
    r.staleness_s = static_cast<double>(last_stale - write_at) / Seconds(1);
  }
  return r;
}

// -------------------------------------------------------------- restart storm

struct RestartResult {
  double recovery_s = 0;           // restart -> last probe round needing traffic
  bool never_quiet = false;        // scheme never regains trusted-cache service
  uint64_t probe_epoch_calls = 0;  // dedicated restart-detection RPCs
  uint64_t revalidations = 0;      // Validate calls in the window
  uint64_t renew_calls = 0;
  double lease_embargo_s = 0;      // server-side grant refusal window
  double embargo_write_delay_s = 0;  // extra delay of a write at restart+1s
  double server_recovery_s = 0;    // salvage/log replay time at the server
};

constexpr int kRestartFiles = 6;

// Shared scenario for the restart arms: every workstation caches the files,
// then the custodian crashes and restarts at the latest client clock.
struct RestartRig {
  std::unique_ptr<campus::Campus> campus;
  SimTime restart_at = 0;
  vice::recovery::RecoveryReport report;
};

RestartRig MakeRestartRig(Scheme scheme) {
  campus::CampusConfig config = campus::CampusConfig::Revised(2, 2);
  config.UseValidation(scheme);
  RestartRig rig;
  rig.campus = std::make_unique<campus::Campus>(config);
  campus::Campus& campus = *rig.campus;
  ITC_CHECK(campus.SetupRootVolume().ok());
  auto home = campus.AddUserWithHome("a", "pw", /*custodian=*/0);
  ITC_CHECK(home.ok());
  for (size_t w = 0; w < 4; ++w) {
    ITC_CHECK(campus.workstation(w).LoginWithPassword(home->user, "pw") ==
              Status::kOk);
  }
  auto& seeder = campus.workstation(0);
  for (int f = 0; f < kRestartFiles; ++f) {
    ITC_CHECK(seeder.WriteWholeFile("/vice/usr/a/f" + std::to_string(f),
                                    ToBytes("x")) == Status::kOk);
  }
  for (size_t w = 1; w < 4; ++w) {
    for (int f = 0; f < kRestartFiles; ++f) {
      ITC_CHECK(campus.workstation(w)
                    .ReadWholeFile("/vice/usr/a/f" + std::to_string(f))
                    .ok());
    }
  }

  for (size_t w = 0; w < 4; ++w) {
    rig.restart_at = std::max(rig.restart_at, campus.workstation(w).clock().now());
  }
  campus.CrashServer(0);
  rig.report = campus.RestartServer(0, rig.restart_at);
  ITC_CHECK(rig.report.clean());
  return rig;
}

// All clients notice the bounced server at once (severed connections) and
// hammer probe opens. "Recovered" = a probe round served entirely from
// trusted cache (promise or live lease) with zero validation traffic;
// recovery_s is the last round that still needed the server. Check-on-open
// never gets there by construction.
//
// The embargo-write measurement runs in a SEPARATE rig: virtual time is
// global, so a write that waits out the lease embargo would drag every
// workstation's clock past it and hide the storm from the probe loop.
RestartResult RunRestartArm(Scheme scheme) {
  constexpr int kFiles = kRestartFiles;
  constexpr int64_t kWindowS = 90;

  RestartResult r;
  {
    RestartRig rig = MakeRestartRig(scheme);
    campus::Campus& campus = *rig.campus;
    // One client writes right after the restart: under leases its completion
    // is pushed past the embargo; under the other schemes it lands at once.
    auto& writer = campus.workstation(1);
    if (writer.clock().now() < rig.restart_at + Seconds(1)) {
      writer.clock().AdvanceTo(rig.restart_at + Seconds(1));
    }
    const SimTime write_started = writer.clock().now();
    ITC_CHECK(writer.WriteWholeFile("/vice/usr/a/f0", ToBytes("y")) ==
              Status::kOk);
    r.embargo_write_delay_s =
        static_cast<double>(writer.clock().now() - write_started) / Seconds(1);
  }

  RestartRig rig = MakeRestartRig(scheme);
  campus::Campus& campus = *rig.campus;
  const SimTime restart_at = rig.restart_at;
  r.server_recovery_s = static_cast<double>(rig.report.recovery_time) / Seconds(1);
  r.lease_embargo_s =
      scheme == Scheme::kLeases
          ? static_cast<double>(campus.server(0).callbacks().suspended_until() -
                                restart_at) /
                // itcfs-lint: allow(no-raw-lease-term) -- Seconds(1) converts to display units, it is not a lease duration
                Seconds(1)
          : 0.0;

  const rpc::CallStats before = campus.TotalCallStats();

  // Every client notices the bounced server on its next contact — model the
  // simultaneous reconnect with a cheap non-mutating call each. (A mutation
  // would be delayed past a lease embargo and hide the storm.)
  for (size_t w = 1; w < 4; ++w) {
    (void)campus.workstation(w).venus().GetAcl("/usr/a");
  }

  // The storm: all clients probe their cached files every 2 seconds. A round
  // counts as recovery traffic when it needed validation-class calls or
  // refetches; batched lease renewals are excluded — they are the scheme's
  // steady-state amortized maintenance and happen with or without a restart.
  const auto recovery_calls = [&campus]() {
    const rpc::CallStats cs = campus.TotalCallStats();
    return OpCalls(cs, "Validate") + OpCalls(cs, "ProbeEpoch") + OpCalls(cs, "Fetch") +
           OpCalls(cs, "FetchStatus");
  };
  SimTime last_busy = restart_at;
  int quiet_rounds = 0;
  for (SimTime t = restart_at + Seconds(2); t <= restart_at + Seconds(kWindowS);
       t += Seconds(2)) {
    const uint64_t calls_before = recovery_calls();
    for (size_t w = 1; w < 4; ++w) {
      auto& ws = campus.workstation(w);
      if (ws.clock().now() < t) ws.clock().AdvanceTo(t);
      for (int f = 1; f < kFiles; ++f) {
        (void)ws.ReadWholeFile("/vice/usr/a/f" + std::to_string(f));
      }
    }
    if (recovery_calls() == calls_before) {
      quiet_rounds += 1;
    } else {
      last_busy = t;
      quiet_rounds = 0;
    }
  }
  r.never_quiet = quiet_rounds == 0;
  r.recovery_s = r.never_quiet
                     ? static_cast<double>(kWindowS)
                     : static_cast<double>(last_busy - restart_at) / Seconds(1);

  const rpc::CallStats after = campus.TotalCallStats();
  r.probe_epoch_calls = OpCalls(after, "ProbeEpoch") - OpCalls(before, "ProbeEpoch");
  r.revalidations = OpCalls(after, "Validate") - OpCalls(before, "Validate");
  r.renew_calls = OpCalls(after, "RenewLeases") - OpCalls(before, "RenewLeases");
  return r;
}

}  // namespace

int main() {
  PrintTitle("A1: validation scheme ablation (bench_validation_schemes)",
             "check-on-open made validation 65% of server calls; the revised "
             "system replaces it with promises — open-ended or leased");
  std::printf("workload: 16 workstations x 1200 ops, identical but for the scheme\n\n");

  const std::vector<Scheme> schemes = {Scheme::kCheckOnOpen, Scheme::kCallbacks,
                                       Scheme::kLeases};
  std::vector<SteadyResult> steady;
  for (Scheme s : schemes) steady.push_back(RunSteadyArm(s));

  // One metric per row, one scheme per column.
  auto header = [] {
    std::printf("%-28s %16s %16s %16s\n", "metric", "check-on-open", "callbacks", "leases");
  };
  auto row_u = [](const char* name, const auto& results, auto get) {
    std::printf("%-28s", name);
    for (const auto& r : results) std::printf(" %16llu", static_cast<unsigned long long>(get(r)));
    std::printf("\n");
  };
  auto row_f = [](const char* name, int decimals, const auto& results, auto get) {
    std::printf("%-28s", name);
    for (const auto& r : results) std::printf(" %16.*f", decimals, get(r));
    std::printf("\n");
  };

  header();
  row_u("server calls (total)", steady, [](const SteadyResult& r) { return r.total_calls; });
  row_u("validation RPCs", steady, [](const SteadyResult& r) { return r.validations; });
  row_u("lease renewal RPCs", steady, [](const SteadyResult& r) { return r.renew_calls; });
  row_f("validations / open", 4, steady,
        [](const SteadyResult& r) { return r.validations_per_open; });
  std::printf("%-28s %15.2f%% %15.2f%% %15.2f%%\n", "server CPU utilization",
              100.0 * steady[0].cpu_util, 100.0 * steady[1].cpu_util,
              100.0 * steady[2].cpu_util);
  std::printf("%-28s %13.2f ms %13.2f ms %13.2f ms\n", "mean open latency",
              steady[0].open_ms, steady[1].open_ms, steady[2].open_ms);
  row_u("promises / leases held", steady,
        [](const SteadyResult& r) { return r.promises_or_leases; });

  PrintSection("healed partition (120 s, write lands mid-partition)");
  std::vector<std::vector<PartitionResult>> partition(schemes.size());
  const int64_t offsets[] = {1, 5, 11, 23, 47};
  for (size_t i = 0; i < schemes.size(); ++i) {
    for (int64_t off : offsets) {
      partition[i].push_back(RunPartitionArm(schemes[i], /*partition_s=*/120, off));
    }
    std::printf("%-14s staleness_s = [", SchemeName(schemes[i]));
    bool heal = false;
    double unavailable_s = 0;
    for (size_t k = 0; k < partition[i].size(); ++k) {
      std::printf("%s%.1f", k ? ", " : "", partition[i][k].staleness_s);
      heal = heal || partition[i][k].stale_after_heal;
      unavailable_s = std::max(unavailable_s, partition[i][k].unavailable_s);
    }
    std::printf("]  stale_after_heal=%s  max_unavailable_s=%.1f\n", heal ? "YES" : "no",
                unavailable_s);
  }

  PrintSection("restart storm (3 clients x 6 cached files, probes every 2 s)");
  std::vector<RestartResult> restart;
  for (Scheme s : schemes) restart.push_back(RunRestartArm(s));
  header();
  row_f("recovery (s)", 1, restart, [](const RestartResult& r) { return r.recovery_s; });
  std::printf("%-28s %16s %16s %16s\n", "never quiet", restart[0].never_quiet ? "yes" : "no",
              restart[1].never_quiet ? "yes" : "no", restart[2].never_quiet ? "yes" : "no");
  row_u("epoch probes", restart, [](const RestartResult& r) { return r.probe_epoch_calls; });
  row_u("revalidations", restart, [](const RestartResult& r) { return r.revalidations; });
  row_u("lease renewal RPCs", restart, [](const RestartResult& r) { return r.renew_calls; });
  row_f("lease embargo (s)", 1, restart,
        [](const RestartResult& r) { return r.lease_embargo_s; });
  row_f("write delay in embargo (s)", 1, restart,
        [](const RestartResult& r) { return r.embargo_write_delay_s; });
  row_f("server recovery (s)", 2, restart,
        [](const RestartResult& r) { return r.server_recovery_s; });

  std::printf(
      "\nshape check: callbacks and leases both eliminate the per-open\n"
      "validation class. Callbacks hold open-ended promises — stale FOREVER\n"
      "after a healed partition, and a restart costs an epoch-probe plus\n"
      "revalidation storm. Leases bound the staleness by the term and recover\n"
      "from a restart within one term with zero re-establishment traffic\n"
      "(grants ride the replies) — the mutation embargo is the price.\n");
  return 0;
}
