// itcfs campus benchmark driver.
//
// Runs one named workload of perfbench/README.md in this process. Each
// iteration builds a campus, populates it, logs every user in and flushes
// every Venus cache (the set-up), then runs one synthetic user day (the day)
// and checks the outcome. The day's users are BenchUser processes that replay
// workload::UserDayConfig's operation mix and Zipf popularity through the
// public virtue::Workstation calls, timing every call on the workstation's
// simulated clock. Host wall-clock is taken around the public campus,
// workload, vice and scheduler calls only, so the program under test is not
// instrumented.
//
//   itcfs_campus_bench --workload campus-scale --seed 1 --seconds 60 --trace 0
//
// The last line of standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end metrics;
// with --trace 1 iterations alternate untraced and traced, the per-layer
// metrics come from the traced ones, and the spans go to --spans-out.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/campus/campus.h"
#include "src/common/content.h"
#include "src/common/path.h"
#include "src/crypto/cbc.h"
#include "src/crypto/key.h"
#include "src/sim/scheduler.h"
#include "src/workload/populate.h"
#include "src/workload/source_tree.h"
#include "src/workload/synthetic_user.h"
#include "src/workload/zipf.h"

namespace {

using namespace itc;
using HostClock = std::chrono::steady_clock;

// --- Workloads ----------------------------------------------------------------

struct Workload {
  const char* name;
  uint32_t clusters;
  uint32_t per_cluster;
  uint32_t ops_per_user;
  bool encrypt;
  bool replicate;  // system and root volumes released read-only to every server
};

constexpr Workload kWorkloads[] = {
    {"campus-scale", 40, 25, 16, false, false},
    {"day-enc", 8, 25, 80, true, true},
};

// Seeds the populated file sizes and contents; see SetUp.
constexpr uint64_t kImageSeed = 1985;

// Same sentinel the VFS switch uses for "read to end of file".
constexpr uint64_t kReadAll = ~0ull >> 2;

double HostSeconds(HostClock::time_point from, HostClock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  return h;
}

template <typename T>
uint64_t FnvValue(uint64_t h, T v) {
  return Fnv(h, &v, sizeof(v));
}

// --- Spans ----------------------------------------------------------------------
// A span covers one call the benchmark makes into a layer. Spans are kept in
// memory (one log per recording thread of control: the set-up and each user)
// and written out when the run ends.

struct Span {
  const char* name;
  int32_t parent;  // index in the same log; -1: the log's root (set-up or day)
  int32_t user;    // user index, -1 outside the day
  HostClock::time_point host_start, host_end;
  SimTime sim_start, sim_end;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  int32_t Begin(const char* name, int32_t parent, int32_t user, SimTime sim_now) {
    if (!enabled_) return -1;
    spans_.push_back({name, parent, user, HostClock::now(), {}, sim_now, sim_now});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id, SimTime sim_now) {
    if (id < 0) return;
    spans_[id].host_end = HostClock::now();
    spans_[id].sim_end = sim_now;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// --- The user process -------------------------------------------------------------

struct WrittenFile {
  uint64_t length = 0;
  uint64_t checksum = 0;
};

// Replays SyntheticUser's day (same mix, Zipf popularity and think times)
// through Open/Read/Write/Close/Stat/ReadDir/Unlink so each Vice open, stat
// and store-on-close is timed at the Virtue boundary.
class BenchUser : public sim::Process {
 public:
  BenchUser(virtue::Workstation* ws, int32_t index, std::string home,
            const workload::UserDayConfig& config, uint64_t seed, bool trace)
      : ws_(ws),
        index_(index),
        home_(std::move(home)),
        config_(config),
        rng_(seed),
        own_pop_(config.own_files, config.zipf_theta),
        system_pop_(config.system_files, config.zipf_theta),
        log_(trace) {}

  SimTime now() const override { return ws_->clock().now(); }
  bool done() const override { return ops_done_ >= config_.operations; }
  void Step() override {
    if (thinking_) {
      Think();
    } else {
      const int32_t op = log_.Begin("user.op", -1, index_, now());
      if (!DoOne(op)) failed_ += 1;
      log_.End(op, now());
      ops_done_ += 1;
    }
    thinking_ = !thinking_;
  }

  uint64_t attempted() const { return ops_done_; }
  uint64_t failed() const { return failed_; }
  uint64_t mismatches() const { return mismatches_; }
  const std::vector<SimTime>& open_latency() const { return open_; }
  const std::vector<SimTime>& stat_latency() const { return stat_; }
  const std::vector<SimTime>& store_latency() const { return store_; }
  const std::map<uint32_t, WrittenFile>& written() const { return written_; }
  const SpanLog& log() const { return log_; }
  const std::string& home() const { return home_; }

 private:
  void Think() {
    if (burst_remaining_ == 0 && rng_.Chance(config_.burst_probability)) {
      burst_remaining_ = config_.burst_length;
    }
    SimTime mean = config_.mean_think;
    if (burst_remaining_ > 0) {
      mean = config_.burst_think;
      burst_remaining_ -= 1;
    }
    const double u = rng_.NextDouble();
    ws_->clock().Advance(static_cast<SimTime>(-static_cast<double>(mean) * std::log(1.0 - u)));
  }

  // Times one workstation call on the simulated clock; `samples` collects the
  // latency when the call is one of the measured Vice interactions.
  template <typename Call>
  auto Timed(const char* name, int32_t parent, std::vector<SimTime>* samples, Call&& call) {
    const SimTime start = now();
    const int32_t span = log_.Begin(name, parent, index_, start);
    auto result = call();
    log_.End(span, now());
    if (samples != nullptr) samples->push_back(now() - start);
    return result;
  }

  // Open + Read-to-end + Close; `vice` marks a file in the shared space.
  Result<Bytes> ReadFile(const std::string& path, bool vice, int32_t parent) {
    auto fd = Timed("virtue.open", parent, vice ? &open_ : nullptr,
                    [&] { return ws_->Open(path, virtue::kRead); });
    if (!fd.ok()) return fd.status();
    auto data = Timed("virtue.read", parent, nullptr, [&] { return ws_->Read(*fd, kReadAll); });
    const Status closed = Timed("virtue.close", parent, nullptr, [&] { return ws_->Close(*fd); });
    if (data.ok() && closed != Status::kOk) return closed;
    return data;
  }

  // Open(write|create|truncate) + Write + Close; the close of a Vice file is
  // the store-on-close.
  Status WriteFile(const std::string& path, const Bytes& data, bool vice, int32_t parent) {
    auto fd = Timed("virtue.open", parent, vice ? &open_ : nullptr, [&] {
      return ws_->Open(path, virtue::kWrite | virtue::kCreate | virtue::kTruncate);
    });
    if (!fd.ok()) return fd.status();
    const Status wrote = Timed("virtue.write", parent, nullptr, [&] { return ws_->Write(*fd, data); });
    const Status closed = Timed("virtue.close", parent, vice ? &store_ : nullptr,
                                [&] { return ws_->Close(*fd); });
    return wrote != Status::kOk ? wrote : closed;
  }

  // A read of one of the user's own files must return the user's last write
  // of it: nobody else writes a home directory.
  void CheckOwnRead(uint32_t file, const Bytes& data) {
    auto it = written_.find(file);
    if (it == written_.end()) return;
    if (data.size() != it->second.length ||
        Fnv(kFnvBasis, data.data(), data.size()) != it->second.checksum) {
      mismatches_ += 1;
    }
  }

  // One user operation; false if any call in it failed.
  bool DoOne(int32_t op) {
    const double total = config_.p_stat + config_.p_list + config_.p_read_own +
                         config_.p_read_system + config_.p_write_own + config_.p_tmp;
    double pick = rng_.NextDouble() * total;

    if ((pick -= config_.p_stat) < 0) {
      const bool own = rng_.Chance(0.6);
      const std::string path =
          own ? PathConcat(home_, workload::SyntheticUser::OwnFileName(own_pop_.Sample(rng_)))
              : PathConcat("/bin", workload::SyntheticUser::SystemFileName(system_pop_.Sample(rng_)));
      return Timed("virtue.stat", op, &stat_, [&] { return ws_->Stat(path); }).ok();
    }
    if ((pick -= config_.p_list) < 0) {
      const std::string dir = rng_.Chance(0.5) ? home_ : std::string("/bin");
      return Timed("virtue.readdir", op, nullptr, [&] { return ws_->ReadDir(dir); }).ok();
    }
    if ((pick -= config_.p_read_own) < 0) {
      const uint32_t file = own_pop_.Sample(rng_);
      auto data = ReadFile(PathConcat(home_, workload::SyntheticUser::OwnFileName(file)), true, op);
      if (!data.ok()) return false;
      CheckOwnRead(file, *data);
      return true;
    }
    if ((pick -= config_.p_read_system) < 0) {
      const std::string path =
          PathConcat("/bin", workload::SyntheticUser::SystemFileName(system_pop_.Sample(rng_)));
      return ReadFile(path, true, op).ok();
    }
    if ((pick -= config_.p_write_own) < 0) {
      // Edit cycle: read, append a line, write the whole file back.
      const uint32_t file = own_pop_.Sample(rng_);
      const std::string path = PathConcat(home_, workload::SyntheticUser::OwnFileName(file));
      auto data = ReadFile(path, true, op);
      if (!data.ok()) return false;
      CheckOwnRead(file, *data);
      Bytes edited = std::move(*data);
      edited.push_back('\n');
      if (WriteFile(path, edited, true, op) != Status::kOk) return false;
      written_[file] = {edited.size(), Fnv(kFnvBasis, edited.data(), edited.size())};
      return true;
    }
    // Scratch cycle in local /tmp: write, read back, delete.
    const std::string tmp = "/tmp/t" + std::to_string(tmp_counter_++ % 8);
    const Bytes scratch = workload::SynthesizeContents(rng_.NextU64(), 2048 + rng_.Below(6144));
    if (WriteFile(tmp, scratch, false, op) != Status::kOk) return false;
    auto back = ReadFile(tmp, false, op);
    if (!back.ok()) return false;
    if (*back != scratch) mismatches_ += 1;
    return Timed("virtue.unlink", op, nullptr, [&] { return ws_->Unlink(tmp); }) == Status::kOk;
  }

  virtue::Workstation* ws_;
  int32_t index_;
  std::string home_;
  workload::UserDayConfig config_;
  Rng rng_;
  workload::ZipfSampler own_pop_;
  workload::ZipfSampler system_pop_;
  uint32_t ops_done_ = 0;
  uint32_t tmp_counter_ = 0;
  uint32_t burst_remaining_ = 0;
  bool thinking_ = true;
  uint64_t failed_ = 0;
  uint64_t mismatches_ = 0;
  std::vector<SimTime> open_, stat_, store_;
  std::map<uint32_t, WrittenFile> written_;
  SpanLog log_;
};

// --- Host measurements ---------------------------------------------------------------

void ResetPeakRss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5\n", f);
    std::fclose(f);
  }
}

double PeakRssMb() {
  long kb = -1;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f)) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
    }
    std::fclose(f);
  }
  return static_cast<double>(kb) / 1024.0;
}

struct Usage {
  double cpu_s = 0;
  long ctx_switches = 0;
};

Usage ProcessUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](timeval t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return {secs(ru.ru_utime) + secs(ru.ru_stime), ru.ru_nvcsw + ru.ru_nivcsw};
}

// Host cost of the crypto module's CBC seal on a fixed 64 KB buffer, in ns per
// KB (median of several timed batches).
double CryptoNsPerKb() {
  const crypto::Key key = crypto::DeriveKeyFromPassword("perfbench", "itc.cmu.edu");
  const Bytes buffer(64 * 1024, 0x5a);
  std::vector<double> samples;
  uint64_t sink = 0;
  for (int batch = 0; batch < 7; ++batch) {
    const auto t0 = HostClock::now();
    for (int i = 0; i < 4; ++i) sink += crypto::Seal(key, buffer, batch * 4 + i).size();
    samples.push_back(HostSeconds(t0, HostClock::now()) * 1e9 / (4.0 * 64.0));
  }
  std::sort(samples.begin(), samples.end());
  if (sink == 0) std::abort();  // keeps the seals observable
  return samples[samples.size() / 2];
}

// --- Set-up ------------------------------------------------------------------------------

void Check(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "set-up failed: %s\n", what);
  std::exit(1);
}

// A populated campus with every user logged in and every Venus cache
// flushed: the state each day starts from.
struct World {
  SpanLog log{true};  // set-up phases; always on, the growth ratios need them
  HostClock::time_point origin;
  double setup_s = 0;
  std::unique_ptr<campus::Campus> campus;
  std::vector<std::unique_ptr<BenchUser>> users;  // destroyed before the campus
};

// The campus image (server seeds, file sizes and contents) is the same for
// every --seed, so every run does the same set-up work; the seed draws the
// users' days.
World SetUp(const Workload& w, uint64_t seed, bool traced) {
  World world;
  SpanLog& log = world.log;
  world.origin = HostClock::now();
  const int32_t setup_span = log.Begin("setup", -1, -1, 0);
  auto phase = [&](const char* name, auto&& body) {
    const int32_t id = log.Begin(name, setup_span, -1, 0);
    body();
    log.End(id, 0);
  };

  campus::CampusConfig cc = campus::CampusConfig::Revised(w.clusters, w.per_cluster);
  cc.rpc.encrypt = w.encrypt;
  workload::UserDayConfig day;
  day.operations = w.ops_per_user;

  VolumeId root = kInvalidVolume, sys = kInvalidVolume;
  phase("campus.build", [&] {
    world.campus = std::make_unique<campus::Campus>(cc);
    auto r = world.campus->SetupRootVolume();
    Check(r.ok(), "SetupRootVolume");
    root = *r;
    auto s = world.campus->CreateSystemVolume("sys.sun", "/unix/sun", /*custodian=*/0);
    Check(s.ok(), "CreateSystemVolume");
    sys = *s;
  });
  campus::Campus& campus = *world.campus;
  phase("workload.populate_system", [&] {
    Check(workload::PopulateSystemBinaries(campus, sys, day.system_files, kImageSeed) ==
              Status::kOk,
          "PopulateSystemBinaries");
  });
  std::vector<ServerId> all_servers;
  for (ServerId s = 0; s < campus.server_count(); ++s) all_servers.push_back(s);
  if (w.replicate) {
    phase("vice.release_ro", [&] {
      Check(campus.registry().ReleaseReadOnly(sys, "sys.sun.ro", all_servers).ok(), "release sys");
    });
  }

  const uint32_t n = static_cast<uint32_t>(campus.workstation_count());
  std::vector<campus::Campus::UserHome> homes;
  for (uint32_t u = 0; u < n; ++u) {
    phase("campus.add_user", [&] {
      const std::string name = "u" + std::to_string(u);
      auto home = campus.AddUserWithHome(name, "pw-" + name, campus.HomeServerOf(u));
      Check(home.ok(), "AddUserWithHome");
      homes.push_back(*home);
    });
  }
  for (uint32_t u = 0; u < n; ++u) {
    phase("workload.populate_user", [&] {
      Check(workload::PopulateUserFiles(campus, homes[u].volume, day.own_files, kImageSeed + u) ==
                Status::kOk,
            "PopulateUserFiles");
    });
  }
  for (uint32_t u = 0; u < n; ++u) {
    phase("virtue.login", [&] {
      Check(campus.workstation(u).LoginWithPassword(homes[u].user, "pw-u" + std::to_string(u)) ==
                Status::kOk,
            "LoginWithPassword");
    });
  }
  if (w.replicate) {
    // Released after the homes exist so the clones carry every mount point.
    phase("vice.release_ro", [&] {
      Check(campus.registry().ReleaseReadOnly(root, "vice.root.ro", all_servers).ok(),
            "release root");
    });
  }
  phase("venus.flush", [&] {
    for (uint32_t u = 0; u < n; ++u) campus.workstation(u).venus().FlushCache();
  });
  // The set-up consumed simulated server time; the day starts from fresh
  // counters and server CPUs and disks (ResetAllStats resets those too).
  campus.ResetAllStats();
  for (uint32_t s = 0; s < campus.server_count(); ++s) {
    campus.server(s).endpoint().cpu().EnableWindowTracking(Seconds(300));
  }

  for (uint32_t u = 0; u < n; ++u) {
    world.users.push_back(std::make_unique<BenchUser>(&campus.workstation(u),
                                                      static_cast<int32_t>(u),
                                                      "/vice" + homes[u].vice_path, day,
                                                      seed * 7919 + u * 104729 + 17, traced));
  }
  log.End(setup_span, 0);
  const Span& s = log.spans()[setup_span];
  world.setup_s = HostSeconds(s.host_start, s.host_end);
  return world;
}

// --- One iteration: set-up, day, checks ----------------------------------------------

struct Iteration {
  bool traced = false;
  double setup_s = 0;
  double day_s = 0;
  double peak_rss_mb = 0;
  SimTime end = 0;
  uint64_t attempted = 0, failed = 0, mismatches = 0;
  std::vector<SimTime> open, stat, store;
  uint64_t digest = 0;
  std::map<std::string, double> layer;  // per-layer metrics
  std::vector<std::string> span_lines;  // JSON lines, traced iterations only
};

// Per-call host durations of the spans named `name` in the order they ran.
std::vector<double> Durations(const SpanLog& log, const char* name) {
  std::vector<double> out;
  for (const Span& s : log.spans()) {
    if (std::strcmp(s.name, name) == 0) out.push_back(HostSeconds(s.host_start, s.host_end));
  }
  return out;
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

// Mean of the last tenth of `v` over the mean of the first tenth: 1.0 when
// each call costs the same however many came before it.
double DecileGrowth(const std::vector<double>& v) {
  const size_t k = std::max<size_t>(1, v.size() / 10);
  if (v.size() < 2 * k) return 1.0;
  double first = 0, last = 0;
  for (size_t i = 0; i < k; ++i) {
    first += v[i];
    last += v[v.size() - k + i];
  }
  return first > 0 ? last / first : 1.0;
}

std::string SpanJson(const Span& s, int64_t id, int64_t parent, HostClock::time_point origin) {
  char line[320];
  std::snprintf(line, sizeof(line),
                "{\"id\":%lld,\"parent\":%lld,\"name\":\"%s\",\"user\":%d,\"host_start_us\":%.3f,"
                "\"host_end_us\":%.3f,\"sim_start_us\":%lld,\"sim_end_us\":%lld}",
                static_cast<long long>(id), static_cast<long long>(parent), s.name, s.user,
                std::chrono::duration<double, std::micro>(s.host_start - origin).count(),
                std::chrono::duration<double, std::micro>(s.host_end - origin).count(),
                static_cast<long long>(s.sim_start), static_cast<long long>(s.sim_end));
  return line;
}

Iteration RunIteration(const Workload& w, uint64_t seed, bool traced) {
  Iteration it;
  it.traced = traced;
  ResetPeakRss();
  World world = SetUp(w, seed, traced);
  it.setup_s = world.setup_s;
  campus::Campus& campus = *world.campus;
  const auto& users = world.users;
  const uint32_t n = static_cast<uint32_t>(users.size());

  // --- The day: the solo event-driven kernel, one activity per user.
  sim::Scheduler sched;
  for (const auto& u : users) sched.Add(u.get());
  const Usage before = ProcessUsage();
  const int32_t day_span = world.log.Begin("day", -1, -1, 0);
  it.end = sched.RunAll();
  world.log.End(day_span, it.end);
  const Usage after = ProcessUsage();
  const Span& ds = world.log.spans()[day_span];
  it.day_s = HostSeconds(ds.host_start, ds.host_end);
  it.peak_rss_mb = PeakRssMb();

  // --- Outcome, and a digest of the simulated results.
  uint64_t h = FnvValue(kFnvBasis, it.end);
  for (const auto& u : users) {
    it.attempted += u->attempted();
    it.failed += u->failed();
    it.mismatches += u->mismatches();
    for (const auto* v : {&u->open_latency(), &u->stat_latency(), &u->store_latency()}) {
      h = FnvValue(h, v->size());
      h = Fnv(h, v->data(), v->size() * sizeof(SimTime));
    }
    it.open.insert(it.open.end(), u->open_latency().begin(), u->open_latency().end());
    it.stat.insert(it.stat.end(), u->stat_latency().begin(), u->stat_latency().end());
    it.store.insert(it.store.end(), u->store_latency().begin(), u->store_latency().end());
  }
  const rpc::CallStats calls = campus.TotalCallStats();
  for (const auto& [opcode, op] : calls.per_op()) {
    for (uint64_t v : {uint64_t{opcode}, op.calls, op.errors, op.bytes_in, op.bytes_out}) {
      h = FnvValue(h, v);
    }
    for (uint64_t b : op.latency.buckets()) h = FnvValue(h, b);
  }

  // --- Per-layer numbers, read at the layer boundaries after the day.
  auto& L = it.layer;
  L["campus.build_s"] = Sum(Durations(world.log, "campus.build"));
  const auto add_user = Durations(world.log, "campus.add_user");
  L["campus.add_users_s"] = Sum(add_user);
  L["campus.add_user_growth"] = DecileGrowth(add_user);
  const auto populate_user = Durations(world.log, "workload.populate_user");
  L["workload.populate_s"] =
      Sum(Durations(world.log, "workload.populate_system")) + Sum(populate_user);
  L["workload.populate_growth"] = DecileGrowth(populate_user);
  L["virtue.login_s"] = Sum(Durations(world.log, "virtue.login"));
  L["vice.release_ro_s"] = Sum(Durations(world.log, "vice.release_ro"));
  L["venus.flush_s"] = Sum(Durations(world.log, "venus.flush"));

  const double events = static_cast<double>(sched.last_events());
  L["sim.events"] = events;
  L["sim.host_us_per_event"] = events > 0 ? it.day_s * 1e6 / events : 0;
  L["sim.ctx_switches"] = static_cast<double>(after.ctx_switches - before.ctx_switches);
  L["sim.cpu_per_wall"] = it.day_s > 0 ? (after.cpu_s - before.cpu_s) / it.day_s : 0;

  const auto hist = calls.Histogram();
  auto count_of = [&](rpc::CallClass c) {
    auto f = hist.find(c);
    return f == hist.end() ? 0.0 : static_cast<double>(f->second);
  };
  L["rpc.calls"] = static_cast<double>(calls.total_calls());
  L["rpc.calls.validate"] = count_of(rpc::CallClass::kValidate);
  L["rpc.calls.status"] = count_of(rpc::CallClass::kStatus);
  L["rpc.calls.fetch"] = count_of(rpc::CallClass::kFetch);
  L["rpc.calls.store"] = count_of(rpc::CallClass::kStore);
  L["rpc.calls.other"] = count_of(rpc::CallClass::kOther);
  L["rpc.errors"] = static_cast<double>(calls.total_errors());
  const double rpc_bytes = static_cast<double>(calls.total_bytes_in() + calls.total_bytes_out());
  L["rpc.bytes"] = rpc_bytes;
  L["crypto.bytes_sealed"] = w.encrypt ? rpc_bytes : 0;

  venus::VenusStats vs;
  for (uint32_t u = 0; u < n; ++u) {
    const venus::VenusStats& s = campus.workstation(u).venus().stats();
    vs.opens += s.opens;
    vs.cache_hits += s.cache_hits;
    vs.fetches += s.fetches;
    vs.validations += s.validations;
    vs.stores += s.stores;
    vs.bytes_fetched += s.bytes_fetched;
    vs.callback_breaks_received += s.callback_breaks_received;
  }
  L["venus.opens"] = static_cast<double>(vs.opens);
  L["venus.hit_ratio"] = vs.HitRatio();
  L["venus.fetches"] = static_cast<double>(vs.fetches);
  L["venus.validations"] = static_cast<double>(vs.validations);
  L["venus.stores"] = static_cast<double>(vs.stores);
  L["venus.bytes_fetched"] = static_cast<double>(vs.bytes_fetched);
  L["venus.callback_breaks"] = static_cast<double>(vs.callback_breaks_received);
  for (uint64_t v : {vs.opens, vs.cache_hits, vs.fetches, vs.validations, vs.stores}) {
    h = FnvValue(h, v);
  }
  it.digest = h;

  double cpu_busy = 0, disk_busy = 0, cpu_peak = 0;
  for (uint32_t s = 0; s < campus.server_count(); ++s) {
    auto& ep = campus.server(s).endpoint();
    cpu_busy += static_cast<double>(ep.cpu().busy_time());
    disk_busy += static_cast<double>(ep.disk().busy_time());
    for (double u : ep.cpu().WindowUtilization()) cpu_peak = std::max(cpu_peak, u);
  }
  L["vice.cpu_busy_s"] = cpu_busy / 1e6;
  L["vice.disk_busy_s"] = disk_busy / 1e6;
  L["vice.cpu_peak_util"] = cpu_peak;

  const net::NetworkStats ns = campus.network().stats();
  L["net.messages"] = static_cast<double>(ns.messages);
  L["net.cross_cluster_ratio"] = ns.messages > 0 ? static_cast<double>(ns.cross_cluster_messages) /
                                                       static_cast<double>(ns.messages)
                                                 : 0;
  L["content.retained_per_client_b"] = static_cast<double>(campus.RetainedContentBytes()) / n;
  L["content.store_live_bytes"] = static_cast<double>(content::Store::Global().live_bytes());

  if (traced) {
    // Flatten the logs: set-up log first, then each user's; a user's root
    // spans hang off the day span.
    int64_t next = 0;
    for (const Span& s : world.log.spans()) {
      it.span_lines.push_back(SpanJson(s, next++, s.parent, world.origin));
    }
    for (const auto& u : users) {
      const int64_t base = next;
      for (const Span& s : u->log().spans()) {
        it.span_lines.push_back(
            SpanJson(s, next++, s.parent < 0 ? day_span : base + s.parent, world.origin));
      }
    }
  }

  // --- Read-back check: every file a user wrote, fetched from Vice through a
  // flushed cache, must equal that user's last write (length and checksum).
  for (uint32_t u = 0; u < n; ++u) {
    if (users[u]->written().empty()) continue;
    auto& ws = campus.workstation(u);
    ws.venus().FlushCache();
    for (const auto& [file, want] : users[u]->written()) {
      auto data = ws.ReadWholeFile(
          PathConcat(users[u]->home(), workload::SyntheticUser::OwnFileName(file)));
      if (!data.ok() || data->size() != want.length ||
          Fnv(kFnvBasis, data->data(), data->size()) != want.checksum) {
        it.mismatches += 1;
      }
    }
  }
  return it;
}

// --- Reporting --------------------------------------------------------------------------

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

// Nearest-rank percentile of simulated latencies, in milliseconds. `ok`
// turns false when fewer than 10 samples lie beyond the percentile.
double PercentileMs(std::vector<SimTime> v, double p, bool& ok) {
  if (v.empty()) {
    ok = false;
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  const size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  if (v.size() - 1 - idx < 10) ok = false;
  return static_cast<double>(v[idx]) / 1000.0;
}

// Mean of the slowest `share` of the samples, in milliseconds. Unlike a
// percentile it cannot sit on one repeated service time. `ok` turns false
// when that tail holds fewer than 10 samples.
double TailMeanMs(std::vector<SimTime> v, double share, bool& ok) {
  std::sort(v.begin(), v.end(), std::greater<>());
  const size_t k = static_cast<size_t>(share * static_cast<double>(v.size()));
  if (k < 10) ok = false;
  double sum = 0;
  for (size_t i = 0; i < k; ++i) sum += static_cast<double>(v[i]);
  return k == 0 ? 0 : sum / static_cast<double>(k) / 1000.0;
}

double MeanMs(const std::vector<SimTime>& v) {
  double sum = 0;
  for (SimTime x : v) sum += static_cast<double>(x);
  return v.empty() ? 0 : sum / static_cast<double>(v.size()) / 1000.0;
}

void PrintQuantiles(const char* label, std::vector<SimTime> v) {
  if (v.empty()) return;
  std::sort(v.begin(), v.end());
  std::printf("%s ms:", label);
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
    const size_t idx = static_cast<size_t>(q * static_cast<double>(v.size() - 1));
    std::printf(" p%g=%.3f", q * 100, static_cast<double>(v[idx]) / 1000.0);
  }
  std::printf(" mean=%.3f n=%zu\n", MeanMs(v), v.size());
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int PrintUsage() {
  std::fprintf(stderr,
               "usage: itcfs_campus_bench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--spans-out PATH]\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, spans_out;
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload_name = value;
    } else if (key == "--seed") {
      seed = std::atoll(value);
    } else if (key == "--seconds") {
      seconds = std::atof(value);
    } else if (key == "--trace") {
      trace = std::atoi(value);
    } else if (key == "--spans-out") {
      spans_out = value;
    } else {
      return PrintUsage();
    }
  }
  const Workload* w = FindWorkload(workload_name);
  if (w == nullptr || seed < 0 || seconds <= 0 || (trace != 0 && trace != 1) || argc % 2 != 1) {
    return PrintUsage();
  }
  const auto useed = static_cast<uint64_t>(seed);

  // Full iterations (set-up, day, checks) repeat with the same seed while the
  // next one fits in --seconds, at least two; traced runs alternate untraced
  // and traced ones. Untraced runs then spend what is left on set-ups alone,
  // so setup_s is a median over more samples than day_s.
  const auto start = HostClock::now();
  auto elapsed = [&] { return HostSeconds(start, HostClock::now()); };
  std::vector<Iteration> runs;
  std::vector<double> setups;
  double longest = 0;
  while (runs.size() < 2 || elapsed() + longest <= seconds) {
    const auto t0 = HostClock::now();
    runs.push_back(RunIteration(*w, useed, trace == 1 && runs.size() % 2 == 1));
    malloc_trim(0);
    longest = std::max(longest, HostSeconds(t0, HostClock::now()));
    const Iteration& r = runs.back();
    if (!r.traced) setups.push_back(r.setup_s);
    std::printf("iteration %zu%s: setup_s=%.4f day_s=%.4f peak_rss_mb=%.1f sim_end_s=%.3f "
                "digest=%016llx\n",
                runs.size(), r.traced ? " (traced)" : "", r.setup_s, r.day_s, r.peak_rss_mb,
                static_cast<double>(r.end) / 1e6, static_cast<unsigned long long>(r.digest));
    std::fflush(stdout);
  }
  if (trace == 0) {
    double next = 1.25 * Median(setups);  // set-up plus teardown, first guess
    while (elapsed() + next <= seconds) {
      const auto t0 = HostClock::now();
      setups.push_back(SetUp(*w, useed, false).setup_s);
      malloc_trim(0);
      next = std::max(next, HostSeconds(t0, HostClock::now()));
      std::printf("set-up %zu: setup_s=%.4f\n", setups.size(), setups.back());
    }
  }

  // --- Checks.
  const Iteration& first = runs.front();
  bool correct = true;
  auto fail = [&](const char* why) {
    std::printf("check failed: %s\n", why);
    correct = false;
  };
  for (const Iteration& r : runs) {
    if (r.digest != first.digest) fail("simulated digest differs between iterations of one seed");
    if (r.mismatches != 0) fail("a read returned other bytes than the last write");
  }
  // Every operation of these workloads is expected to succeed.
  if (first.failed != 0) fail("user operations failed");

  std::vector<double> day, rss;
  for (const Iteration& r : runs) {
    if (r.traced) continue;
    day.push_back(r.day_s);
    rss.push_back(r.peak_rss_mb);
  }

  // Simulated latencies. The model's service times are deterministic, so a
  // percentile often lands on the fixed cost of a cache hit or an unqueued
  // RPC and reads the same for every seed; see README.md for why these
  // statistics. Each tail keeps at least 10 samples.
  bool enough = true;
  const double open_mean = MeanMs(first.open);
  const double open_tail = TailMeanMs(first.open, 0.01, enough);
  const double stat_mean = MeanMs(first.stat);
  const double store75 = PercentileMs(first.store, 0.75, enough);
  if (!enough) fail("fewer than 10 samples in a reported tail");

  std::printf("workload=%s seed=%lld iterations=%zu set-ups=%zu digest=%016llx\n", w->name, seed,
              runs.size(), setups.size(), static_cast<unsigned long long>(first.digest));
  std::printf("ops attempted=%llu failed=%llu ops_failed_ratio=%.6f\n",
              static_cast<unsigned long long>(first.attempted),
              static_cast<unsigned long long>(first.failed),
              static_cast<double>(first.failed) / static_cast<double>(first.attempted));
  std::printf("open  mean=%.3f ms slowest-1%%-mean=%.3f ms n_open=%zu\n", open_mean, open_tail,
              first.open.size());
  std::printf("stat  mean=%.3f ms n_stat=%zu\n", stat_mean, first.stat.size());
  std::printf("store p75=%.3f ms n_store=%zu\n", store75, first.store.size());
  PrintQuantiles("open", first.open);
  PrintQuantiles("stat", first.stat);
  PrintQuantiles("store", first.store);

  std::string metrics;
  auto add = [&](const std::string& name, double value, const char* unit) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), value, unit);
    metrics += buf;
  };

  if (trace == 0) {
    add("setup_s", Median(setups), "s");
    add("day_s", Median(day), "s");
    add("peak_rss_mb", Median(rss), "MB");
    add("open_mean_ms", open_mean, "ms");
    add("open_slowest1pct_ms", open_tail, "ms");
    add("stat_mean_ms", stat_mean, "ms");
    add("store_p75_ms", store75, "ms");
  } else {
    // Per-layer metrics: medians over the traced iterations.
    std::vector<const Iteration*> traced;
    std::vector<double> traced_day;
    for (const Iteration& r : runs) {
      if (!r.traced) continue;
      traced.push_back(&r);
      traced_day.push_back(r.day_s);
    }
    static const std::map<std::string, const char*> kUnits = {
        {"campus.build_s", "s"}, {"campus.add_users_s", "s"}, {"campus.add_user_growth", "ratio"},
        {"workload.populate_s", "s"}, {"workload.populate_growth", "ratio"}, {"virtue.login_s", "s"},
        {"vice.release_ro_s", "s"}, {"venus.flush_s", "s"}, {"sim.events", "count"},
        {"sim.host_us_per_event", "us"}, {"sim.ctx_switches", "count"},
        {"sim.cpu_per_wall", "ratio"}, {"rpc.calls", "count"}, {"rpc.calls.validate", "count"},
        {"rpc.calls.status", "count"}, {"rpc.calls.fetch", "count"}, {"rpc.calls.store", "count"},
        {"rpc.calls.other", "count"}, {"rpc.errors", "count"}, {"rpc.bytes", "B"},
        {"crypto.bytes_sealed", "B"}, {"venus.opens", "count"}, {"venus.hit_ratio", "ratio"},
        {"venus.fetches", "count"}, {"venus.validations", "count"}, {"venus.stores", "count"},
        {"venus.bytes_fetched", "B"}, {"venus.callback_breaks", "count"}, {"vice.cpu_busy_s", "s"},
        {"vice.disk_busy_s", "s"}, {"vice.cpu_peak_util", "ratio"}, {"net.messages", "count"},
        {"net.cross_cluster_ratio", "ratio"}, {"content.retained_per_client_b", "B"},
        {"content.store_live_bytes", "B"}};
    for (const auto& [name, unit] : kUnits) {
      std::vector<double> values;
      for (const Iteration* r : traced) values.push_back(r->layer.at(name));
      add(name, Median(values), unit);
    }
    add("crypto.host_ns_per_kb", CryptoNsPerKb(), "ns/KB");
    // Traced day over untraced day of the same seed in the same process.
    add("trace.day_s_ratio", Median(traced_day) / Median(day), "ratio");
    add("trace.spans", static_cast<double>(traced.back()->span_lines.size()), "count");

    if (!spans_out.empty()) {
      std::FILE* f = std::fopen(spans_out.c_str(), "w");
      if (f == nullptr) {
        fail("cannot write the span file");
      } else {
        for (const std::string& line : traced.back()->span_lines) {
          std::fprintf(f, "%s\n", line.c_str());
        }
        std::fclose(f);
      }
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(first.attempted),
              static_cast<unsigned long long>(first.failed), metrics.c_str());
  return correct ? 0 : 1;
}
