// Tests for the event kernel: arrival-order service (including the straggler
// scenario the old call-order model got wrong), FIFO-stable tie-breaking,
// staged multi-resource operations, and run-to-run determinism.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/sim/kernel.h"
#include "src/sim/resource.h"
#include "src/sim/scheduler.h"

namespace itc::sim {
namespace {

TEST(KernelTest, EventsRunInTimeOrderWithFifoTies) {
  Kernel kernel;
  std::vector<std::string> log;
  kernel.Spawn("late", 20, [&] { log.push_back("late"); });
  kernel.Spawn("tie-first", 10, [&] { log.push_back("tie-first"); });
  kernel.Spawn("tie-second", 10, [&] { log.push_back("tie-second"); });
  kernel.Run();
  // Simultaneous events run in spawn order (sequence number), never by
  // container or pointer order.
  EXPECT_EQ(log, (std::vector<std::string>{"tie-first", "tie-second", "late"}));
  EXPECT_EQ(kernel.now(), 20);
}

TEST(KernelTest, WaitUntilInterleavesActivities) {
  Kernel kernel;
  std::vector<std::string> log;
  kernel.Spawn("a", 0, [&] {
    log.push_back("a@0");
    kernel.WaitUntil(15);
    log.push_back("a@15");
  });
  kernel.Spawn("b", 5, [&] { log.push_back("b@5"); });
  kernel.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"a@0", "b@5", "a@15"}));
}

TEST(KernelTest, ChargeReturnsPredictedCompletionWithoutWaiting) {
  Kernel kernel;
  Resource cpu("cpu");
  SimTime completion = 0;
  SimTime now_after_charge = 0;
  kernel.Spawn("a", 0, [&] {
    completion = Charge(cpu, 5, 50);
    now_after_charge = kernel.now();
  });
  kernel.Run();
  // The activity suspended until the arrival (5), was charged, and moved on;
  // the completion (55) is a prediction it threads into its next stage.
  EXPECT_EQ(completion, 55);
  EXPECT_EQ(now_after_charge, 5);
}

TEST(KernelTest, ChargeOutsideKernelFallsBackToCallOrder) {
  ASSERT_EQ(Kernel::Current(), nullptr);
  Resource cpu("cpu");
  EXPECT_EQ(Charge(cpu, 50, 100), 150);
  // No kernel, no arrival-order queueing: the late-charged earlier arrival
  // queues behind already-admitted work. Single-actor tests rely on this.
  EXPECT_EQ(Charge(cpu, 10, 5), 155);
}

TEST(KernelTest, SimultaneousChargesServeInSpawnOrder) {
  Kernel kernel;
  Resource cpu("cpu");
  SimTime first = 0, second = 0;
  kernel.Spawn("first", 0, [&] { first = Charge(cpu, 10, 7); });
  kernel.Spawn("second", 0, [&] { second = Charge(cpu, 10, 7); });
  kernel.Run();
  EXPECT_EQ(first, 17);
  EXPECT_EQ(second, 24);
}

// A client modelled like a real workload operation: one Step() spans think
// time followed by a resource demand, so the demand's arrival lies in the
// middle of the step, not at its start.
class ThinkThenWork : public Process {
 public:
  ThinkThenWork(Resource* r, SimTime start, SimTime think, SimTime demand)
      : r_(r), now_(start), think_(think), demand_(demand) {}

  SimTime now() const override { return now_; }
  bool done() const override { return done_; }
  void Step() override {
    const SimTime arrival = now_ + think_;
    now_ = Charge(*r_, arrival, demand_);
    done_ = true;
  }

 private:
  Resource* r_;
  SimTime now_;
  SimTime think_;
  SimTime demand_;
  bool done_ = false;
};

// The straggler scenario the retired call-order scheduler got wrong: it
// stepped A (smaller virtual time) first, A's whole operation ran
// synchronously and booked the resource from t=50 to t=150, and then B —
// stepped later — presented an arrival (t=10) earlier than the resource's
// ready time and queued behind work logically in its future, completing at
// 155. The kernel suspends A until its arrival, serves B at t=10, and
// resumes A at t=50: exact FCFS in arrival order.
TEST(KernelTest, StragglerIsServedInArrivalOrder) {
  Resource cpu("cpu");
  ThinkThenWork a(&cpu, /*start=*/0, /*think=*/50, /*demand=*/100);
  ThinkThenWork b(&cpu, /*start=*/10, /*think=*/0, /*demand=*/5);
  Scheduler sched;
  sched.Add(&a);
  sched.Add(&b);
  const SimTime end = sched.RunAll();
  EXPECT_EQ(b.now(), 15);   // served [10, 15], not behind A
  EXPECT_EQ(a.now(), 150);  // served [50, 150]
  EXPECT_EQ(end, 150);
  EXPECT_EQ(cpu.busy_time(), 105);
}

// A three-stage operation (net, cpu, disk) interleaves with another client
// at every stage boundary; completions follow exact per-resource FCFS.
TEST(KernelTest, StagedOperationsInterleavePerResource) {
  Resource net("net"), cpu("cpu"), disk("disk");
  struct Pipeline : Process {
    Pipeline(Resource* n, Resource* c, Resource* d, SimTime start, SimTime net_d,
             SimTime cpu_d, SimTime disk_d)
        : n_(n), c_(c), d_(d), now_(start), net_d_(net_d), cpu_d_(cpu_d), disk_d_(disk_d) {}
    SimTime now() const override { return now_; }
    bool done() const override { return done_; }
    void Step() override {
      SimTime t = Charge(*n_, now_, net_d_);
      t = Charge(*c_, t, cpu_d_);
      now_ = Charge(*d_, t, disk_d_);
      done_ = true;
    }
    Resource *n_, *c_, *d_;
    SimTime now_, net_d_, cpu_d_, disk_d_;
    bool done_ = false;
  };
  Pipeline a(&net, &cpu, &disk, 0, 10, 50, 10);
  Pipeline b(&net, &cpu, &disk, 5, 10, 5, 5);
  Scheduler sched;
  sched.Add(&a);
  sched.Add(&b);
  sched.RunAll();
  // a: net [0,10], cpu [10,60], disk [60,70].
  // b: net arrives 5, busy until 10 -> [10,20]; cpu arrives 20, busy until
  // 60 -> [60,65]; disk arrives 65, busy until 70 -> [70,75].
  EXPECT_EQ(a.now(), 70);
  EXPECT_EQ(b.now(), 75);
  EXPECT_EQ(net.busy_time(), 20);
  EXPECT_EQ(cpu.busy_time(), 55);
  EXPECT_EQ(disk.busy_time(), 15);
}

// A worker that alternates think time and demands on a shared resource.
class Worker : public Process {
 public:
  Worker(Resource* r, SimTime think, SimTime demand, int jobs)
      : r_(r), think_(think), demand_(demand), left_(jobs) {}
  SimTime now() const override { return now_; }
  bool done() const override { return left_ == 0; }
  void Step() override {
    now_ = Charge(*r_, now_ + think_, demand_);
    --left_;
  }

 private:
  Resource* r_;
  SimTime think_, demand_, now_ = 0;
  int left_;
};

struct RunResult {
  SimTime end = 0;
  std::vector<TraceEntry> trace;
};

RunResult RunContendedDay() {
  Resource cpu("cpu");
  Worker a(&cpu, 3, 10, 5), b(&cpu, 7, 4, 6), c(&cpu, 1, 2, 9);
  Scheduler sched;
  sched.EnableTrace();
  sched.Add(&a);
  sched.Add(&b);
  sched.Add(&c);
  RunResult r;
  r.end = sched.RunAll();
  r.trace = sched.trace();
  return r;
}

TEST(KernelTest, IdenticalRunsProduceIdenticalTracesAndTimes) {
  const RunResult r1 = RunContendedDay();
  const RunResult r2 = RunContendedDay();
  EXPECT_EQ(r1.end, r2.end);
  ASSERT_FALSE(r1.trace.empty());
  EXPECT_EQ(r1.trace, r2.trace);
}

TEST(KernelTest, HorizonStopsActivitiesWithoutLosingDeterminism) {
  Resource cpu("cpu");
  Worker a(&cpu, 3, 10, 100), b(&cpu, 7, 4, 100);
  Scheduler sched;
  sched.Add(&a);
  sched.Add(&b);
  const SimTime end = sched.RunUntil(50);
  EXPECT_EQ(end, 50);
  // Neither process starts a new operation at or past the horizon.
  EXPECT_TRUE(a.now() >= 50 || a.done());
  EXPECT_TRUE(b.now() >= 50 || b.done());
}

}  // namespace
}  // namespace itc::sim
