// E1 — Server call histogram.
//
// Paper: "A histogram of calls received by servers in actual use shows that
// cache validity checking calls are preponderant, accounting for 65% of the
// total. Calls to obtain file status contribute about 27%, while calls to
// fetch and store files account for 4% and 2% respectively. These four calls
// thus encompass more than 98% of the calls handled by servers."
//
// Reproduction: 20 prototype workstations (check-on-open validation,
// server-side pathnames) drive a synthetic user day against one cluster
// server; we print the call-class distribution next to the paper's numbers,
// and the same workload under the revised (callback) system to show why the
// redesign kills the dominant traffic class. Each day ends with the server's
// per-procedure CallStats rows: calls, errors, bytes and latency.

#include "bench/harness.h"

namespace itc::bench {
namespace {

struct PaperRow {
  vice::CallClass cls;
  double paper_percent;
};

const PaperRow kPaper[] = {
    {vice::CallClass::kValidate, 65.0},
    {vice::CallClass::kStatus, 27.0},
    {vice::CallClass::kFetch, 4.0},
    {vice::CallClass::kStore, 2.0},
};

// Every procedure the server served, in opcode order; latencies in
// microseconds of virtual time.
void PrintOpRows(const rpc::CallStats& stats) {
  std::printf("\n%6s %-14s %-8s %6s %6s %9s %9s %11s %9s %9s %9s %9s\n", "opcode", "name",
              "class", "calls", "errors", "bytes in", "bytes out", "mean us", "p50 us",
              "p95 us", "p99 us", "max us");
  for (const auto& [opcode, op] : stats.per_op()) {
    const rpc::LatencyHistogram& lat = op.latency;
    std::printf("%6u %-14s %-8s %6llu %6llu %9llu %9llu %11.1f %9lld %9lld %9lld %9lld\n",
                opcode, std::string(op.name).c_str(),
                std::string(rpc::CallClassName(op.call_class)).c_str(),
                static_cast<unsigned long long>(op.calls),
                static_cast<unsigned long long>(op.errors),
                static_cast<unsigned long long>(op.bytes_in),
                static_cast<unsigned long long>(op.bytes_out), lat.Mean(),
                static_cast<long long>(lat.Percentile(0.5)),
                static_cast<long long>(lat.Percentile(0.95)),
                static_cast<long long>(lat.Percentile(0.99)),
                static_cast<long long>(lat.max()));
  }
  std::printf("%6s %-14s %-8s %6llu %6llu %9llu %9llu\n", "", "total", "",
              static_cast<unsigned long long>(stats.total_calls()),
              static_cast<unsigned long long>(stats.total_errors()),
              static_cast<unsigned long long>(stats.total_bytes_in()),
              static_cast<unsigned long long>(stats.total_bytes_out()));
}

void RunOne(const std::string& label, campus::CampusConfig campus_config) {
  UserDayLabConfig config;
  config.campus = std::move(campus_config);
  config.user_day.operations = 1500;
  UserDayLab lab(config);
  lab.Run();

  const auto hist = lab.campus().TotalCallHistogram();
  // Exclude connection-establishment-time classes? The paper's histogram is
  // steady-state; our TestAuth/GetVolumeInfo traffic lands in kOther/kStatus
  // and is part of the measurement, as it was in the prototype.
  uint64_t total = 0;
  for (const auto& [cls, count] : hist) total += count;

  PrintSection(label + "  (" + std::to_string(total) + " calls at the server)");
  std::printf("%-10s %10s %10s %12s\n", "class", "calls", "measured", "paper");
  double covered = 0;
  for (const PaperRow& row : kPaper) {
    const uint64_t count = hist.contains(row.cls) ? hist.at(row.cls) : 0;
    const double pct = total ? 100.0 * static_cast<double>(count) /
                                   static_cast<double>(total)
                             : 0.0;
    covered += pct;
    std::printf("%-10s %10llu %9.1f%% %11.1f%%\n",
                std::string(vice::CallClassName(row.cls)).c_str(),
                static_cast<unsigned long long>(count), pct, row.paper_percent);
  }
  const uint64_t other = hist.contains(vice::CallClass::kOther)
                             ? hist.at(vice::CallClass::kOther)
                             : 0;
  std::printf("%-10s %10llu %9.1f%% %11s\n", "other",
              static_cast<unsigned long long>(other), 100.0 - covered, "<2%");
  PrintOpRows(lab.campus().TotalCallStats());
}

}  // namespace
}  // namespace itc::bench

int main() {
  using namespace itc;
  using namespace itc::bench;

  PrintTitle("E1: server call histogram (bench_call_histogram)",
             "validate 65%, status 27%, fetch 4%, store 2% (>98% of all calls)");
  std::printf("workload: 20 workstations x 1500 operations, one cluster server,\n"
              "          synthetic user day (zipf file popularity, edit cycles)\n");

  RunOne("prototype (check-on-open, server-side pathnames)",
         campus::CampusConfig::Prototype(1, 20));

  RunOne("revised (callbacks, client-side pathnames) — same workload",
         campus::CampusConfig::Revised(1, 20));

  std::printf("\nshape check: under check-on-open, validation dominates (the paper's\n"
              "65%%) and fetch/store stay single-digit; callbacks eliminate nearly\n"
              "all validation traffic, which is exactly the Section 3.2 argument.\n");
  return 0;
}
