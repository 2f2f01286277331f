// E5b — Host memory per simulated client, and the 10k-client campus day.
//
// The reproduction's ambition is a campus at the paper's target scale
// ("5000 to 10000 workstations", Section 1). Simulated cost is not the
// obstacle — host memory is: with materialized file contents a populated
// client cost ~2 MB before its day began, capping a 64 GB host near N=2000.
// The lazy content representation (src/common/content.h) drops a populated
// file to a ~32-byte generative ref and dedups identical system binaries
// through the content store, so the bench below can gate real budgets:
//
//   * retained content bytes per client <= 100 KB at N=1000 (>=20x less
//     than the materialized representation's ~2 MB);
//   * peak RSS <= 4 GB for a 10,000-client sharded campus day.
//
// The 10,000-client day is also E5's campus-scale row (bench_scalability's
// columns: per-server CPU, mean open latency, hit ratio), printed after the
// table so the day runs once.
//
// Emits BENCH_memory.json (one row object per line, machine-greppable).
// Each row splits its host wall clock into set-up (building and populating
// the campus, logging every user in) and the day. With --baseline=PATH the
// run fails (exit 1) unless every row's simulated fields (sim_end_s,
// retained_content_bytes, store_live_buffers, store_live_bytes) equal the
// checked-in baseline row for the same client count — the CI perf-smoke
// job wires this to bench/baseline/BENCH_memory.json.

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "src/common/content.h"

namespace {

using namespace itc;
using namespace itc::bench;

constexpr uint64_t kRetainedPerClientBudget = 100 * 1024;  // bytes, at N=1000
constexpr long kPeakRssBudgetKb = 4L * 1024 * 1024;        // 4 GB, at N=10000

// The 10k arm folds its 400 cluster domains onto this many kernels (domain
// mod shard placement) — one kernel per core on the 8-core reference runner.
// Shard count cannot affect simulated results (ShardEquivalence suite), and
// fewer kernel threads is strictly less host memory and wall clock on
// narrower hosts, so the memory gate stays conservative.
constexpr uint32_t kCampusShards = 8;

struct Row {
  uint32_t clients = 0;
  uint32_t ops_per_client = 0;
  uint32_t shards = 1;
  double sim_end_s = 0;
  double setup_ms = 0;  // host wall clock of the UserDayLab construction
  double day_ms = 0;    // host wall clock of Run()
  long peak_rss_kb = 0;
  uint64_t retained_bytes = 0;   // campus-wide content bytes, dedup-aware
  uint64_t per_client_bytes = 0; // retained_bytes / clients
  uint64_t store_buffers = 0;    // live interned buffers (content store)
  uint64_t store_bytes = 0;
  // E5's columns for the same day.
  double cpu_util = 0;  // mean over servers
  double open_ms = 0;
  double hit_ratio = 0;
};

// One populated campus plus a short synthetic day. The day matters: it fills
// every Venus cache (local unixfs copies of fetched files), which is exactly
// the state whose footprint the lazy representation must keep flat.
Row RunRow(uint32_t clients, uint32_t ops, bool sharded) {
  UserDayLabConfig config;
  config.campus = campus::CampusConfig::Revised(clients / 25, 25);
  config.campus.rpc.encrypt = false;  // host CPU saving only; accounting unchanged
  config.user_day.operations = ops;
  config.user_day.mean_think = Seconds(10);
  if (sharded) {
    // The 10k row runs one kernel per cluster; the system volume is released
    // read-only everywhere so the day stays cluster-local (the locality the
    // cluster design targets).
    config.replicate_system_volume = true;
    config.shard_count = kCampusShards;
  }

  ResetPeakRss();
  Row r;
  const Phase setup;
  UserDayLab lab(config);
  r.setup_ms = setup.ElapsedMs();
  const Phase day;
  const SimTime end = lab.Run();
  r.day_ms = day.ElapsedMs();

  r.clients = clients;
  r.ops_per_client = ops;
  r.shards = config.shard_count;
  r.sim_end_s = static_cast<double>(end) / 1e6;
  r.peak_rss_kb = ReadPeakRssKb();
  r.retained_bytes = lab.campus().RetainedContentBytes();
  r.per_client_bytes = r.retained_bytes / clients;
  r.store_buffers = content::Store::Global().live_buffers();
  r.store_bytes = content::Store::Global().live_bytes();
  const venus::VenusStats stats = lab.TotalVenusStats();
  r.cpu_util = lab.ServerCpuUtilization(end);
  r.open_ms = stats.MeanOpenLatency() / 1000.0;
  r.hit_ratio = stats.HitRatio();
  return r;
}

// A row's simulated fields, formatted as WriteJson prints them. They are
// deterministic, so --baseline requires them to equal the baseline's.
std::vector<std::pair<const char*, std::string>> SimulatedFields(const Row& r) {
  char sim_end[32];
  std::snprintf(sim_end, sizeof(sim_end), "%.1f", r.sim_end_s);
  return {{"sim_end_s", sim_end},
          {"retained_content_bytes", std::to_string(r.retained_bytes)},
          {"store_live_buffers", std::to_string(r.store_buffers)},
          {"store_live_bytes", std::to_string(r.store_bytes)}};
}

void WriteJson(const std::string& path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return;
  }
  // One row object per line so the baseline loader (and awk/grep) can parse
  // without a JSON library.
  std::fprintf(f, "{\n  \"bench\": \"memory_per_client\",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"clients\": %u, \"ops_per_client\": %u, \"shards\": %u, "
                 "\"setup_ms\": %.1f, \"day_ms\": %.1f, \"wall_ms\": %.1f, "
                 "\"peak_rss_kb\": %ld, \"retained_per_client_bytes\": %llu",
                 r.clients, r.ops_per_client, r.shards, r.setup_ms, r.day_ms,
                 r.setup_ms + r.day_ms, r.peak_rss_kb,
                 static_cast<unsigned long long>(r.per_client_bytes));
    for (const auto& [name, value] : SimulatedFields(r)) {
      std::fprintf(f, ", \"%s\": %s", name, value.c_str());
    }
    std::fprintf(f, "}%s\n", i + 1 != rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

// The value text of `"name": ` in one row line of a BENCH_memory.json, or
// "" if the line has no such field.
std::string FieldText(const char* line, const char* name) {
  const std::string key = std::string("\"") + name + "\": ";
  const char* at = std::strstr(line, key.c_str());
  if (at == nullptr) return "";
  at += key.size();
  return std::string(at, std::strcspn(at, ",}"));
}

// Every row must find a baseline row with its client count whose simulated
// fields are equal, as printed. Host fields (wall clock, peak RSS) are not
// compared: they depend on the runner.
bool CheckBaseline(const std::string& path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot load baseline %s\n", path.c_str());
    return false;
  }
  std::vector<std::string> lines;
  char line[1024];
  while (std::fgets(line, sizeof(line), f)) lines.emplace_back(line);
  std::fclose(f);

  bool ok = true;
  for (const Row& r : rows) {
    const std::string clients = std::to_string(r.clients);
    const std::string* base = nullptr;
    for (const std::string& l : lines) {
      if (FieldText(l.c_str(), "clients") == clients) base = &l;
    }
    if (base == nullptr) {
      std::fprintf(stderr, "FAIL: N=%u has no baseline row\n", r.clients);
      ok = false;
      continue;
    }
    for (const auto& [name, value] : SimulatedFields(r)) {
      const std::string expected = FieldText(base->c_str(), name);
      if (value != expected) {
        std::fprintf(stderr, "FAIL: N=%u %s is %s, baseline %s\n", r.clients, name,
                     value.c_str(), expected.c_str());
        ok = false;
      }
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  uint32_t max_clients = 10000;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--baseline=", 11) == 0) baseline_path = argv[i] + 11;
    if (std::strncmp(argv[i], "--max-clients=", 14) == 0)
      max_clients = static_cast<uint32_t>(std::atoi(argv[i] + 14));
  }

  PrintTitle("E5b: host memory per client (bench_memory_per_client)",
             "a 10k-workstation campus (Section 1 target scale) must fit in "
             "host memory; lazy refs + content dedup make it fit");
  std::printf("%8s %5s %7s %12s %16s %14s %10s %10s\n", "clients", "ops", "shards",
              "peak_rss", "retained_total", "retained/cli", "set-up", "day");

  struct Arm { uint32_t clients, ops; bool sharded; };
  const Arm arms[] = {{100, 24, false}, {1000, 8, false}, {10000, 4, true}};

  std::vector<Row> rows;
  for (const Arm& a : arms) {
    if (a.clients > max_clients) continue;
    Row r = RunRow(a.clients, a.ops, a.sharded);
    std::printf("%8u %5u %7u %10ld K %14llu %12llu B %7.0f ms %7.0f ms\n", r.clients,
                r.ops_per_client, r.shards, r.peak_rss_kb,
                static_cast<unsigned long long>(r.retained_bytes),
                static_cast<unsigned long long>(r.per_client_bytes), r.setup_ms, r.day_ms);
    rows.push_back(r);
  }

  for (const Row& r : rows) {
    if (r.clients != 10000) continue;
    PrintSection("E5 at campus scale: 10,000 workstations, 400 clusters");
    std::printf("%10s %10s %16s %10s\n", "clients", "cpu util", "open latency",
                "hit ratio");
    std::printf("%10u %9.1f%% %13.0f ms %9.1f%%\n", r.clients, 100.0 * r.cpu_util,
                r.open_ms, 100.0 * r.hit_ratio);
    std::printf("\nat 25 clients/server the revised system holds every cluster at\n"
                "timesharing-grade latency simultaneously; host memory, not simulated\n"
                "cost, is the scale limiter.\n");
  }

  WriteJson("BENCH_memory.json", rows);

  // Absolute budgets (the acceptance criteria of the memory-diet change).
  bool ok = true;
  for (const Row& r : rows) {
    if (r.clients == 1000 && r.per_client_bytes > kRetainedPerClientBudget) {
      std::fprintf(stderr, "FAIL: N=1000 retained %llu B/client exceeds %llu budget\n",
                   static_cast<unsigned long long>(r.per_client_bytes),
                   static_cast<unsigned long long>(kRetainedPerClientBudget));
      ok = false;
    }
    if (r.clients == 10000 && r.peak_rss_kb > kPeakRssBudgetKb) {
      std::fprintf(stderr, "FAIL: N=10000 peak RSS %ld KB exceeds %ld KB budget\n",
                   r.peak_rss_kb, kPeakRssBudgetKb);
      ok = false;
    }
  }

  if (!baseline_path.empty()) {
    if (!CheckBaseline(baseline_path, rows)) ok = false;
    if (ok) std::printf("\nbaseline check passed (%s)\n", baseline_path.c_str());
  }

  return ok ? 0 : 1;
}
