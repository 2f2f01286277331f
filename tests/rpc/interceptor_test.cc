// Tests for the RPC call path: per-op CallStats at both ends, the client
// stub's resends and deadline (§3.5.3 — idempotent ops only are resent;
// mutators run at most once), and the endpoint's deterministic fault
// injector.

#include "src/rpc/fault_injector.h"

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/campus/campus.h"
#include "src/rpc/op_registry.h"
#include "src/rpc/rpc.h"
#include "src/rpc/wire.h"
#include "src/vice/protocol.h"

namespace itc::rpc {
namespace {

// --- LatencyHistogram --------------------------------------------------------

TEST(LatencyHistogramTest, RecordsAndSummarizes) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0);

  h.Record(100);
  h.Record(200);
  h.Record(400);
  h.Record(Millis(10));
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.min(), 100);
  EXPECT_EQ(h.max(), Millis(10));
  EXPECT_EQ(h.sum(), 100 + 200 + 400 + Millis(10));
  EXPECT_DOUBLE_EQ(h.Mean(), static_cast<double>(h.sum()) / 4.0);
  // p100 lands in the top bucket, clamped to the observed max.
  EXPECT_EQ(h.Percentile(1.0), Millis(10));
  // With 4 samples p99 has rank 3, so it reports the 400-sample's bucket edge.
  EXPECT_GE(h.Percentile(0.99), 400);
  EXPECT_LT(h.Percentile(0.99), Millis(10));
  // p50 is bounded by its bucket's upper edge, never below the sample.
  EXPECT_GE(h.Percentile(0.5), 200);
  EXPECT_LT(h.Percentile(0.5), 400);
}

TEST(LatencyHistogramTest, MergeCombines) {
  LatencyHistogram a, b;
  a.Record(10);
  b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 1000);
}

// --- Op schema / registry ----------------------------------------------------

TEST(OpSchemaTest, ViceSchemaLookup) {
  const OpSchema& schema = vice::ViceOpSchema();
  EXPECT_EQ(schema.ops().size(), 25u);
  const OpSpec* fetch = schema.Find(static_cast<uint32_t>(vice::Proc::kFetch));
  ASSERT_NE(fetch, nullptr);
  const OpSpec* renew = schema.Find(static_cast<uint32_t>(vice::Proc::kRenewLeases));
  ASSERT_NE(renew, nullptr);
  EXPECT_EQ(renew->name, "RenewLeases");
  // GrantLease (51) and ReleaseLease (53) are retired; their numbers stay
  // unassigned.
  EXPECT_EQ(schema.Find(51), nullptr);
  EXPECT_EQ(schema.Find(53), nullptr);
  EXPECT_EQ(fetch->name, "Fetch");
  EXPECT_EQ(fetch->call_class, CallClass::kFetch);
  EXPECT_TRUE(fetch->idempotent);
  const OpSpec* store = schema.Find(static_cast<uint32_t>(vice::Proc::kStore));
  ASSERT_NE(store, nullptr);
  EXPECT_FALSE(store->idempotent);
  EXPECT_EQ(schema.Find(9999), nullptr);
}

TEST(OpRegistryTest, UnknownAndUnboundOpcodesAreProtocolErrors) {
  static const OpSchema schema("toy", {{1, "Ping"}, {2, "Unbound"}});
  OpRegistry registry(&schema);
  registry.Bind(1, [](CallContext&, const Bytes& req) -> Result<Bytes> { return req; });

  CallContext ctx(1, 0, 0);
  EXPECT_TRUE(registry.Dispatch(ctx, 1, Bytes{}).ok());
  EXPECT_EQ(registry.Dispatch(ctx, 2, Bytes{}).status(), Status::kProtocolError);
  EXPECT_EQ(registry.Dispatch(ctx, 42, Bytes{}).status(), Status::kProtocolError);
}

TEST(OpRegistryTest, RenderOpTableShape) {
  const std::string table = RenderOpTable(vice::ViceOpSchema());
  EXPECT_NE(table.find("| proc | name | class | idempotent |"), std::string::npos);
  EXPECT_NE(table.find("| 10 | Fetch | fetch | yes |"), std::string::npos);
  EXPECT_NE(table.find("| 13 | Store | store | no |"), std::string::npos);
}

// --- End-to-end: campus-level stats -----------------------------------------

class InterceptorCampusTest : public ::testing::Test {
 protected:
  void Build(campus::CampusConfig config) {
    campus_ = std::make_unique<campus::Campus>(config);
    ASSERT_TRUE(campus_->SetupRootVolume().ok());
    auto home = campus_->AddUserWithHome("u", "pw", 0);
    ASSERT_TRUE(home.ok());
    home_ = *home;
    ws_ = &campus_->workstation(0);
    ASSERT_EQ(ws_->LoginWithPassword(home_.user, "pw"), Status::kOk);
  }

  std::unique_ptr<campus::Campus> campus_;
  campus::Campus::UserHome home_;
  virtue::Workstation* ws_ = nullptr;
};

TEST_F(InterceptorCampusTest, ServerCallStatsPopulatedAndAggregated) {
  Build(campus::CampusConfig::Revised(1, 1));
  ASSERT_EQ(ws_->WriteWholeFile("/vice/usr/u/f", ToBytes("data")), Status::kOk);
  ws_->venus().FlushCache();
  ASSERT_TRUE(ws_->ReadWholeFile("/vice/usr/u/f").ok());

  const CallStats total = campus_->TotalCallStats();
  EXPECT_GT(total.total_calls(), 0u);
  const OpStats* fetch = total.Find(static_cast<uint32_t>(vice::Proc::kFetch));
  ASSERT_NE(fetch, nullptr);
  EXPECT_EQ(fetch->name, "Fetch");
  EXPECT_GE(fetch->calls, 1u);
  EXPECT_GT(fetch->bytes_out, 0u);
  EXPECT_GT(fetch->latency.max(), 0);

  // The class collapse agrees with the per-server histogram path.
  EXPECT_EQ(campus_->TotalCallHistogram(), campus_->server(0).CallHistogram());
  EXPECT_EQ(campus_->TotalCalls(), campus_->server(0).total_calls());

  // The client stub records its own view, including round-trip latencies.
  const CallStats& client = ws_->venus().call_stats();
  EXPECT_GT(client.total_calls(), 0u);
  ASSERT_NE(client.Find(static_cast<uint32_t>(vice::Proc::kFetch)), nullptr);

  campus_->ResetAllStats();
  EXPECT_EQ(campus_->TotalCalls(), 0u);
  EXPECT_EQ(ws_->venus().call_stats().total_calls(), 0u);
}

TEST_F(InterceptorCampusTest, DroppedFetchReplyIsRetriedTransparently) {
  auto config = campus::CampusConfig::Revised(1, 1);
  config.rpc.retry.max_retries = 2;
  Build(config);
  ASSERT_EQ(ws_->WriteWholeFile("/vice/usr/u/f", ToBytes("survives")), Status::kOk);
  ws_->venus().FlushCache();

  auto& endpoint = campus_->server(0).endpoint();
  endpoint.ResetStats();
  endpoint.fault().DropNextReplies(1, CallClass::kFetch);

  // The fetch's reply is lost; the stub retries the idempotent op and the
  // read succeeds without the application seeing anything.
  auto data = ws_->ReadWholeFile("/vice/usr/u/f");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(ToString(*data), "survives");

  const OpStats* fetch =
      endpoint.call_stats().Find(static_cast<uint32_t>(vice::Proc::kFetch));
  ASSERT_NE(fetch, nullptr);
  EXPECT_GE(fetch->calls, 2u);  // the dropped attempt plus the retry
  EXPECT_GE(fetch->errors, 1u);
}

TEST_F(InterceptorCampusTest, StoreIsNeverBlindlyRetried) {
  auto config = campus::CampusConfig::Revised(1, 1);
  config.rpc.retry.max_retries = 2;
  Build(config);
  ASSERT_EQ(ws_->WriteWholeFile("/vice/usr/u/f", ToBytes("v1")), Status::kOk);

  auto& endpoint = campus_->server(0).endpoint();
  endpoint.ResetStats();
  endpoint.fault().DropNextReplies(1, CallClass::kStore);

  // The store executes server-side but its reply is lost. At-most-once: the
  // stub must NOT resend a non-idempotent op; the failure surfaces.
  EXPECT_EQ(ws_->WriteWholeFile("/vice/usr/u/f", ToBytes("v2")),
            Status::kUnavailable);

  const OpStats* store =
      endpoint.call_stats().Find(static_cast<uint32_t>(vice::Proc::kStore));
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->calls, 1u);  // executed exactly once, never resent
}

TEST_F(InterceptorCampusTest, SeededFaultInjectionByClass) {
  Build(campus::CampusConfig::Revised(1, 1));
  ASSERT_EQ(ws_->WriteWholeFile("/vice/usr/u/f", ToBytes("x")), Status::kOk);
  ws_->venus().FlushCache();

  // Every store is answered with the fault; fetches (including the directory
  // fetches path resolution needs) are untouched.
  campus_->server(0).endpoint().fault().FailCalls(0, UINT32_MAX, Status::kTimedOut,
                                                  CallClass::kStore);

  EXPECT_TRUE(ws_->ReadWholeFile("/vice/usr/u/f").ok());
  EXPECT_EQ(ws_->WriteWholeFile("/vice/usr/u/f", ToBytes("y")), Status::kTimedOut);

  // Lifting the fault restores normal service.
  campus_->server(0).endpoint().fault().FailCalls(0, 0);
  EXPECT_EQ(ws_->WriteWholeFile("/vice/usr/u/f", ToBytes("y")), Status::kOk);
}

TEST_F(InterceptorCampusTest, FailAllBlocksHandshake) {
  Build(campus::CampusConfig::Revised(1, 1));
  campus_->server(0).endpoint().fault().set_fail_all(true);
  ws_->Logout();
  EXPECT_EQ(ws_->LoginWithPassword(home_.user, "pw"), Status::kUnavailable);
  campus_->server(0).endpoint().fault().set_fail_all(false);
  EXPECT_EQ(ws_->LoginWithPassword(home_.user, "pw"), Status::kOk);
}

// --- Deadline ---------------------------------------------------------------

// Slow echo: proc 2 charges 500ms of server CPU.
class SlowEchoService : public Service {
 public:
  Result<Bytes> Dispatch(CallContext& ctx, uint32_t proc, const Bytes& request) override {
    if (proc == 2) ctx.ChargeCpu(Millis(500));
    return request;
  }
};

TEST(DeadlineTest, SlowCallTimesOut) {
  net::Topology topo(net::TopologyConfig{1, 1, 2});
  const sim::CostModel cost = sim::CostModel::Default1985();
  net::Network network(topo, cost);
  const crypto::Key key = crypto::DeriveKeyFromPassword("pw", "realm");
  SlowEchoService service;

  // A bare round trip costs ~18ms under the 1985 model (2 x 4ms network plus
  // 10ms of server CPU per call); 100ms comfortably admits it while catching
  // the 500ms op.
  RpcConfig config;
  config.call_deadline = Millis(100);
  ServerEndpoint server(
      topo.ServerNode(0, 0), &network, cost, config,
      [&key](UserId) -> std::optional<crypto::Key> { return key; }, 999);
  server.set_service(&service);

  sim::Clock clock;
  auto conn = ClientConnection::Connect(topo.WorkstationNode(0, 0), 7, key, &server,
                                        &network, cost, &clock, 555);
  ASSERT_TRUE(conn.ok());

  // A fast call fits inside the deadline...
  EXPECT_TRUE((*conn)->Call(1, ToBytes("quick")).ok());
  // ...the 500ms one does not.
  EXPECT_EQ((*conn)->Call(2, ToBytes("slow")).status(), Status::kTimedOut);
}

TEST(FailCallsTest, SkipsThenFailsExactlyCountCalls) {
  net::Topology topo(net::TopologyConfig{1, 1, 2});
  const sim::CostModel cost = sim::CostModel::Default1985();
  net::Network network(topo, cost);
  const crypto::Key key = crypto::DeriveKeyFromPassword("pw", "realm");
  SlowEchoService service;

  ServerEndpoint server(
      topo.ServerNode(0, 0), &network, cost, RpcConfig{},
      [&key](UserId) -> std::optional<crypto::Key> { return key; }, 999);
  server.set_service(&service);

  sim::Clock clock;
  auto conn = ClientConnection::Connect(topo.WorkstationNode(0, 0), 7, key, &server,
                                        &network, cost, &clock, 555);
  ASSERT_TRUE(conn.ok());

  // Skip 2, fail 1 with a chosen status, then clear: calls 1-2 succeed,
  // call 3 fails with exactly that status, call 4 succeeds again.
  server.fault().FailCalls(/*skip=*/2, /*count=*/1, Status::kConnectionBroken);
  EXPECT_TRUE((*conn)->Call(1, ToBytes("a")).ok());
  EXPECT_TRUE((*conn)->Call(1, ToBytes("b")).ok());
  EXPECT_EQ((*conn)->Call(1, ToBytes("c")).status(), Status::kConnectionBroken);
  EXPECT_TRUE((*conn)->Call(1, ToBytes("d")).ok());
}

// --- What each stage records -------------------------------------------------

// A toy service on a bare endpoint. Every reply is an OK status and the
// request echoed back.
const OpSchema& StageSchema() {
  static const OpSchema schema("stages", {
                                             {1, "Get", CallClass::kFetch, true},
                                             {2, "Put", CallClass::kStore, false},
                                             {3, "Slow", CallClass::kStatus, true},
                                         });
  return schema;
}

Result<Bytes> Echo(CallContext&, const Bytes& request) {
  Writer w;
  w.PutStatus(Status::kOk);
  w.PutBytes(request);
  return w.Take();
}

using ErrorCodes = std::vector<std::pair<Status, uint64_t>>;

// One CallStats row as the script leaves it.
struct PinnedRow {
  uint32_t opcode;
  uint64_t calls;
  uint64_t errors;
  uint64_t bytes_in;
  uint64_t bytes_out;
  uint64_t latency_count;
  SimTime latency_sum;
  SimTime latency_min;
  SimTime latency_max;
  ErrorCodes error_codes;
};

void ExpectRows(const CallStats& stats, const std::vector<PinnedRow>& pinned) {
  ASSERT_EQ(stats.per_op().size(), pinned.size());
  for (size_t i = 0; i < pinned.size(); ++i) {
    const auto& [opcode, row] = stats.per_op()[i];
    const PinnedRow& want = pinned[i];
    SCOPED_TRACE(row.name);
    EXPECT_EQ(opcode, want.opcode);
    EXPECT_EQ(row.calls, want.calls);
    EXPECT_EQ(row.errors, want.errors);
    EXPECT_EQ(row.bytes_in, want.bytes_in);
    EXPECT_EQ(row.bytes_out, want.bytes_out);
    EXPECT_EQ(row.latency.count(), want.latency_count);
    EXPECT_EQ(row.latency.sum(), want.latency_sum);
    EXPECT_EQ(row.latency.min(), want.latency_min);
    EXPECT_EQ(row.latency.max(), want.latency_max);
    EXPECT_EQ(ErrorCodes(row.error_codes.begin(), row.error_codes.end()), want.error_codes);
  }
}

// The rows the script leaves, unsealed and sealed, each as {opcode, calls,
// errors, bytes in, bytes out, latency count, sum, min, max (µs), error
// codes}. The server records every attempt that passes the refusal check,
// timed from arrival; the client records one row per call, timed over all
// attempts and backoffs.
constexpr Status kLost = Status::kUnavailable;
constexpr Status kBroken = Status::kConnectionBroken;
constexpr Status kLate = Status::kTimedOut;
const std::vector<PinnedRow> kServerRows[2] = {
    {
        {1, 5, 2, 30, 42, 5, 41200, 0, 10300, {{kLost, 1}, {kBroken, 1}}},
        {2, 1, 1, 3, 0, 1, 10300, 10300, 10300, {{kLost, 1}}},
        {3, 3, 0, 12, 36, 3, 1530900, 510300, 510300, {}},
    },
    {
        {1, 5, 2, 30, 42, 5, 41228, 0, 10307, {{kLost, 1}, {kBroken, 1}}},
        {2, 1, 1, 3, 0, 1, 10305, 10305, 10305, {{kLost, 1}}},
        {3, 3, 0, 12, 36, 3, 1530915, 510305, 510305, {}},
    },
};
const std::vector<PinnedRow> kClientRows[2] = {
    {
        {1, 5, 2, 31, 42, 5, 198628, 7040, 81120, {{kLost, 1}, {kBroken, 1}}},
        {2, 1, 1, 3, 0, 1, 17337, 17337, 17337, {{kLost, 1}}},
        {3, 1, 1, 4, 0, 1, 1633119, 1633119, 1633119, {{kLate, 1}}},
    },
    {
        {1, 5, 2, 31, 42, 5, 198970, 7068, 81204, {{kLost, 1}, {kBroken, 1}}},
        {2, 1, 1, 3, 0, 1, 17365, 17365, 17365, {{kLost, 1}}},
        {3, 1, 1, 4, 0, 1, 1633293, 1633293, 1633293, {{kLate, 1}}},
    },
};
constexpr SimTime kFinalClock[2] = {1894322, 1894866};

class CallStagesTest : public ::testing::TestWithParam<bool> {};

// Runs one script through every stage of the call path: a plain call, a
// lost reply that is resent, a lost reply that is not, a call that times out
// on every attempt, injected failures and a refused call. Every server and
// client row, and the client's final clock, equal their pinned values.
TEST_P(CallStagesTest, RecordPinnedRows) {
  net::Topology topo(net::TopologyConfig{1, 1, 2});
  const sim::CostModel cost = sim::CostModel::Default1985();
  net::Network network(topo, cost);
  const crypto::Key key = crypto::DeriveKeyFromPassword("pw", "realm");
  OpRegistry registry(&StageSchema());
  registry.Bind(1, Echo);
  registry.Bind(2, Echo);
  registry.Bind(3, [](CallContext& ctx, const Bytes& request) {
    ctx.ChargeCpu(Millis(500));
    return Echo(ctx, request);
  });

  RpcConfig config;
  config.encrypt = GetParam();
  config.retry.max_retries = 2;
  config.call_deadline = Millis(100);
  ServerEndpoint server(
      topo.ServerNode(0, 0), &network, cost, config,
      [&key](UserId) -> std::optional<crypto::Key> { return key; }, 999);
  server.set_service(&registry);

  sim::Clock clock;
  CallStats client_stats;
  auto conn = ClientConnection::Connect(topo.WorkstationNode(0, 0), 7, key, &server, &network,
                                        cost, &clock, 555,
                                        ClientOptions{&StageSchema(), &client_stats});
  ASSERT_TRUE(conn.ok());
  ClientConnection& c = **conn;

  // 1. A plain Get.
  EXPECT_TRUE(c.Call(1, ToBytes("plain")).ok());
  // 2. A Get whose first reply is lost: it is resent.
  server.fault().DropNextReplies(1);
  EXPECT_TRUE(c.Call(1, ToBytes("resent")).ok());
  // 3. A Put whose reply is lost: it ran once and is not resent.
  server.fault().DropNextReplies(1);
  EXPECT_EQ(c.Call(2, ToBytes("put")).status(), Status::kUnavailable);
  // 4. A Slow call past the deadline on all three attempts.
  EXPECT_EQ(c.Call(3, ToBytes("slow")).status(), Status::kTimedOut);
  // 5. One Get let through, the next failed unexecuted.
  server.fault().FailCalls(1, 1, Status::kConnectionBroken);
  EXPECT_TRUE(c.Call(1, ToBytes("skipped")).ok());
  EXPECT_EQ(c.Call(1, ToBytes("failed")).status(), Status::kConnectionBroken);
  // 6. A Get refused before the server records it, on every attempt.
  server.fault().set_fail_all(true);
  EXPECT_EQ(c.Call(1, ToBytes("refused")).status(), Status::kUnavailable);
  server.fault().set_fail_all(false);

  const int sealed = GetParam() ? 1 : 0;
  {
    SCOPED_TRACE("server");
    ExpectRows(server.call_stats(), kServerRows[sealed]);
  }
  {
    SCOPED_TRACE("client");
    ExpectRows(client_stats, kClientRows[sealed]);
  }
  EXPECT_EQ(clock.now(), kFinalClock[sealed]);
}

INSTANTIATE_TEST_SUITE_P(Envelope, CallStagesTest, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "Sealed" : "Unsealed";
                         });


// With a class filter, `skip` and `count` advance only on calls of that
// class; calls of other classes, and of ops outside the schema, pass through.
TEST(FailCallsTest, ClassFilterCountsOnlyMatchingCalls) {
  net::Topology topo(net::TopologyConfig{1, 1, 2});
  const sim::CostModel cost = sim::CostModel::Default1985();
  net::Network network(topo, cost);
  const crypto::Key key = crypto::DeriveKeyFromPassword("pw", "realm");
  OpRegistry registry(&StageSchema());
  registry.Bind(1, Echo);
  registry.Bind(2, Echo);
  registry.Bind(3, Echo);

  ServerEndpoint server(
      topo.ServerNode(0, 0), &network, cost, RpcConfig{},
      [&key](UserId) -> std::optional<crypto::Key> { return key; }, 999);
  server.set_service(&registry);

  sim::Clock clock;
  auto conn = ClientConnection::Connect(topo.WorkstationNode(0, 0), 7, key, &server,
                                        &network, cost, &clock, 555);
  ASSERT_TRUE(conn.ok());
  ClientConnection& c = **conn;

  // Skip one store, fail the next two.
  server.fault().FailCalls(/*skip=*/1, /*count=*/2, Status::kConnectionBroken,
                           CallClass::kStore);
  EXPECT_TRUE(c.Call(1, ToBytes("get")).ok());
  // Opcode 9 is outside the schema: it reaches the registry, which refuses it.
  EXPECT_EQ(c.Call(9, ToBytes("unknown")).status(), Status::kProtocolError);
  EXPECT_TRUE(c.Call(2, ToBytes("skipped put")).ok());
  EXPECT_TRUE(c.Call(3, ToBytes("status")).ok());
  EXPECT_EQ(c.Call(2, ToBytes("failed put")).status(), Status::kConnectionBroken);
  EXPECT_TRUE(c.Call(1, ToBytes("get")).ok());
  EXPECT_EQ(c.Call(2, ToBytes("failed put")).status(), Status::kConnectionBroken);
  EXPECT_TRUE(c.Call(2, ToBytes("put")).ok());
}

}  // namespace
}  // namespace itc::rpc
