// Unit tests for the RPC package: wire format, authenticated encrypted
// connections, timing behaviour of the two transports and server structures.

#include "src/rpc/rpc.h"

#include <gtest/gtest.h>

#include "src/common/content.h"
#include "src/crypto/cbc.h"
#include "src/rpc/fault_injector.h"
#include "src/rpc/wire.h"

namespace itc::rpc {
namespace {

// --- Wire format -------------------------------------------------------------

TEST(WireTest, RoundTripsAllTypes) {
  Writer w;
  w.PutU8(7);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefull);
  w.PutI64(-42);
  w.PutBool(true);
  w.PutString("hello");
  w.PutBytes(Bytes{1, 2, 3});
  w.PutFid(Fid{9, 8, 7});
  w.PutStatus(Status::kQuotaExceeded);
  const Bytes buf = w.Take();

  Reader r(buf);
  EXPECT_EQ(*r.U8(), 7u);
  EXPECT_EQ(*r.U32(), 0xdeadbeefu);
  EXPECT_EQ(*r.U64(), 0x0123456789abcdefull);
  EXPECT_EQ(*r.I64(), -42);
  EXPECT_EQ(*r.Bool(), true);
  EXPECT_EQ(*r.String(), "hello");
  EXPECT_EQ(*r.BytesField(), (Bytes{1, 2, 3}));
  EXPECT_EQ(*r.FidField(), (Fid{9, 8, 7}));
  Status st = Status::kOk;
  EXPECT_EQ(r.ReadStatus(&st), Status::kOk);
  EXPECT_EQ(st, Status::kQuotaExceeded);
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireTest, TruncatedBufferFails) {
  Writer w;
  w.PutU64(1);
  Bytes buf = w.Take();
  buf.resize(4);
  Reader r(buf);
  EXPECT_EQ(r.U64().status(), Status::kProtocolError);
}

TEST(WireTest, OversizedStringLengthFails) {
  Writer w;
  w.PutU32(1000);  // claims 1000 bytes follow; none do
  Reader r(w.Take());
  // First read the length back out as a string header.
  Bytes buf;
  {
    Writer w2;
    w2.PutU32(1000);
    buf = w2.Take();
  }
  Reader r2(buf);
  EXPECT_EQ(r2.String().status(), Status::kProtocolError);
}

TEST(WireTest, CountIsBoundedByTheBytesThatFollow) {
  // A count followed by three fids (36 bytes).
  auto read_count = [](uint32_t count) {
    Writer w;
    w.PutU32(count);
    for (uint32_t i = 0; i < 3; ++i) w.PutFid(Fid{1, i, 1});
    const Bytes buf = w.Take();
    Reader r(buf);
    return r.Count(kFidWireBytes);
  };
  EXPECT_EQ(*read_count(3), 3u);  // at the limit
  EXPECT_EQ(*read_count(2), 2u);  // one below
  EXPECT_EQ(read_count(4).status(), Status::kProtocolError);  // one above
  EXPECT_EQ(read_count(0xffffffffu).status(), Status::kProtocolError);
}

// Status, a bulk field, then a trailing U64, as control bytes plus a Bulk.
struct BulkReply {
  Bytes control;
  Bulk bulk;
};

BulkReply MakeBulkReply(const content::Ref& data) {
  Writer w;
  w.PutStatus(Status::kOk);
  Bulk bulk = w.PutBulk(data);
  w.PutU64(42);
  return BulkReply{w.Take(), std::move(bulk)};
}

// 300 generative bytes followed by a literal tail.
content::Ref TailedContents() {
  Bytes bytes = content::Ref::ForSeed(5, 300).Materialize();
  const Bytes tail = ToBytes("-- literal tail");
  bytes.insert(bytes.end(), tail.begin(), tail.end());
  return content::Ref::Canonicalize(std::move(bytes));
}

TEST(WireTest, BulkFieldReadsTheSameBesideOrSpliced) {
  const content::Ref data = TailedContents();
  ASSERT_GT(data.gen_len(), 0u);
  ASSERT_NE(data.tail(), nullptr);
  const BulkReply reply = MakeBulkReply(data);

  // Spliced, the reply is exactly the inline layout.
  Writer inline_layout;
  inline_layout.PutStatus(Status::kOk);
  inline_layout.PutBytes(data.Materialize());
  inline_layout.PutU64(42);
  const Bytes spliced = Splice(reply.control, reply.bulk);
  EXPECT_EQ(spliced, inline_layout.Take());

  // Beside: the field is the ref itself, and the control bytes go on.
  Reader beside(reply.control);
  ASSERT_EQ(ExpectOk(beside), Status::kOk);
  auto got = beside.RefField(reply.bulk);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->tail(), data.tail());
  EXPECT_EQ(got->gen_len(), data.gen_len());
  EXPECT_EQ(*beside.U64(), 42u);
  EXPECT_TRUE(beside.AtEnd());

  // Inline: the same contents, canonicalized back to the same ref.
  Reader in(spliced);
  ASSERT_EQ(ExpectOk(in), Status::kOk);
  auto read_inline = in.RefField(std::nullopt);
  ASSERT_TRUE(read_inline.ok());
  EXPECT_TRUE(read_inline->SameContent(data));
  EXPECT_EQ(read_inline->tail(), data.tail());  // interned: one buffer
  EXPECT_EQ(*in.U64(), 42u);
  EXPECT_TRUE(in.AtEnd());
}

TEST(WireTest, BulkThatDoesNotBelongToTheFieldIsRefused) {
  const BulkReply reply = MakeBulkReply(TailedContents());
  Bulk misplaced = reply.bulk;
  misplaced.offset += 1;
  Reader at_wrong_offset(reply.control);
  ASSERT_EQ(ExpectOk(at_wrong_offset), Status::kOk);
  EXPECT_EQ(at_wrong_offset.RefField(misplaced).status(), Status::kProtocolError);

  Bulk resized = reply.bulk;
  resized.data = content::Ref::Inline(ToBytes("short"));
  Reader wrong_size(reply.control);
  ASSERT_EQ(ExpectOk(wrong_size), Status::kOk);
  EXPECT_EQ(wrong_size.RefField(resized).status(), Status::kProtocolError);
}

// --- End-to-end RPC -----------------------------------------------------------

// Echo service: returns the request, optionally charging resources.
class EchoService : public Service {
 public:
  Result<Bytes> Dispatch(CallContext& ctx, uint32_t proc, const Bytes& request) override {
    last_user = ctx.user();
    last_proc = proc;
    if (proc == 2) ctx.ChargeCpu(Millis(100));
    if (proc == 3) ctx.ChargeDisk(64 * 1024);
    return request;
  }
  UserId last_user = kAnonymousUser;
  uint32_t last_proc = 0;
};

class RpcTest : public ::testing::Test {
 protected:
  static constexpr UserId kUser = 77;

  RpcTest()
      : topo_(net::TopologyConfig{1, 1, 2}),
        cost_(sim::CostModel::Default1985()),
        network_(topo_, cost_),
        user_key_(crypto::DeriveKeyFromPassword("pw", "realm")) {}

  std::unique_ptr<ServerEndpoint> MakeServer(RpcConfig config) {
    auto lookup = [this](UserId u) -> std::optional<crypto::Key> {
      if (u == kUser) return user_key_;
      return std::nullopt;
    };
    auto server = std::make_unique<ServerEndpoint>(topo_.ServerNode(0, 0), &network_,
                                                   cost_, config, lookup, 999);
    server->set_service(&service_);
    return server;
  }

  Result<std::unique_ptr<ClientConnection>> Connect(ServerEndpoint* server,
                                                    UserId user = kUser) {
    return ClientConnection::Connect(topo_.WorkstationNode(0, 0), user, user_key_, server,
                                     &network_, cost_, &clock_, 555);
  }

  net::Topology topo_;
  sim::CostModel cost_;
  net::Network network_;
  crypto::Key user_key_;
  EchoService service_;
  sim::Clock clock_;
};

TEST_F(RpcTest, EchoRoundTrip) {
  auto server = MakeServer(RpcConfig{});
  auto conn = Connect(server.get());
  ASSERT_TRUE(conn.ok());
  const Bytes payload = ToBytes("ping");
  auto reply = (*conn)->Call(1, payload);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, payload);
  EXPECT_EQ(service_.last_user, kUser);
  EXPECT_EQ(service_.last_proc, 1u);
  EXPECT_EQ(server->call_stats().total_calls(), 1u);
}

TEST_F(RpcTest, HandshakeAdvancesClock) {
  auto server = MakeServer(RpcConfig{});
  const SimTime before = clock_.now();
  auto conn = Connect(server.get());
  ASSERT_TRUE(conn.ok());
  // Four network legs + two server dispatches cannot be free.
  EXPECT_GT(clock_.now(), before);
  EXPECT_EQ(server->stats().handshakes, 1u);
}

TEST_F(RpcTest, UnknownUserFailsAuth) {
  auto server = MakeServer(RpcConfig{});
  auto conn = Connect(server.get(), /*user=*/12345);
  EXPECT_EQ(conn.status(), Status::kAuthFailed);
  EXPECT_EQ(server->stats().auth_failures, 1u);
}

TEST_F(RpcTest, CallAdvancesClockAndChargesServer) {
  auto server = MakeServer(RpcConfig{});
  auto conn = Connect(server.get());
  ASSERT_TRUE(conn.ok());
  const SimTime t0 = clock_.now();
  const SimTime cpu0 = server->cpu().busy_time();
  ASSERT_TRUE((*conn)->Call(2, ToBytes("work")).ok());  // charges 100 ms CPU
  EXPECT_GT(clock_.now() - t0, Millis(100));
  EXPECT_GT(server->cpu().busy_time() - cpu0, Millis(100));
}

TEST_F(RpcTest, DiskChargeSerializesAfterCpu) {
  auto server = MakeServer(RpcConfig{});
  auto conn = Connect(server.get());
  ASSERT_TRUE(conn.ok());
  const SimTime disk0 = server->disk().busy_time();
  ASSERT_TRUE((*conn)->Call(3, ToBytes("io")).ok());  // charges 64 KB disk
  EXPECT_GE(server->disk().busy_time() - disk0, cost_.disk_seek);
}

TEST_F(RpcTest, ProcessPerClientCostsMoreThanLwp) {
  RpcConfig proc_cfg;
  proc_cfg.server_structure = ServerStructure::kProcessPerClient;
  RpcConfig lwp_cfg;
  lwp_cfg.server_structure = ServerStructure::kLwp;

  auto proc_server = MakeServer(proc_cfg);
  auto lwp_server = MakeServer(lwp_cfg);

  sim::Clock c1, c2;
  auto conn1 = ClientConnection::Connect(topo_.WorkstationNode(0, 0), kUser, user_key_,
                                         proc_server.get(), &network_, cost_, &c1, 1);
  auto conn2 = ClientConnection::Connect(topo_.WorkstationNode(0, 1), kUser, user_key_,
                                         lwp_server.get(), &network_, cost_, &c2, 2);
  ASSERT_TRUE(conn1.ok() && conn2.ok());

  const SimTime cpu_before1 = proc_server->cpu().busy_time();
  const SimTime cpu_before2 = lwp_server->cpu().busy_time();
  ASSERT_TRUE((*conn1)->Call(1, ToBytes("x")).ok());
  ASSERT_TRUE((*conn2)->Call(1, ToBytes("x")).ok());
  const SimTime proc_cost = proc_server->cpu().busy_time() - cpu_before1;
  const SimTime lwp_cost = lwp_server->cpu().busy_time() - cpu_before2;
  EXPECT_GT(proc_cost, lwp_cost);
  EXPECT_GE(proc_cost - lwp_cost,
            cost_.server_context_switch - cost_.server_lwp_switch);
}

TEST_F(RpcTest, StreamTransportSlowerThanDatagram) {
  RpcConfig stream_cfg;
  stream_cfg.transport = Transport::kStream;
  RpcConfig dgram_cfg;
  dgram_cfg.transport = Transport::kDatagram;

  auto stream_server = MakeServer(stream_cfg);
  auto dgram_server = MakeServer(dgram_cfg);

  sim::Clock c1, c2;
  auto conn1 = ClientConnection::Connect(topo_.WorkstationNode(0, 0), kUser, user_key_,
                                         stream_server.get(), &network_, cost_, &c1, 1);
  auto conn2 = ClientConnection::Connect(topo_.WorkstationNode(0, 1), kUser, user_key_,
                                         dgram_server.get(), &network_, cost_, &c2, 2);
  ASSERT_TRUE(conn1.ok() && conn2.ok());

  const SimTime t1 = c1.now();
  const SimTime t2 = c2.now();
  ASSERT_TRUE((*conn1)->Call(1, ToBytes("x")).ok());
  ASSERT_TRUE((*conn2)->Call(1, ToBytes("x")).ok());
  EXPECT_GT(c1.now() - t1, c2.now() - t2);
}

TEST_F(RpcTest, EncryptionCanBeDisabledForAblation) {
  RpcConfig plain;
  plain.encrypt = false;
  auto server = MakeServer(plain);
  auto conn = Connect(server.get());
  ASSERT_TRUE(conn.ok());
  auto reply = (*conn)->Call(1, ToBytes("clear"));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(ToString(*reply), "clear");
}

TEST_F(RpcTest, ClosedConnectionRemovedFromServer) {
  auto server = MakeServer(RpcConfig{});
  {
    auto conn = Connect(server.get());
    ASSERT_TRUE(conn.ok());
  }  // destructor closes
  // A second connection still works; stale state is gone.
  auto conn2 = Connect(server.get());
  ASSERT_TRUE(conn2.ok());
  ASSERT_TRUE((*conn2)->Call(1, ToBytes("y")).ok());
}

// Answers every call with MakeBulkReply(contents).
class BulkService : public Service {
 public:
  explicit BulkService(content::Ref contents) : contents_(std::move(contents)) {}
  Result<Bytes> Dispatch(CallContext& ctx, uint32_t, const Bytes&) override {
    BulkReply reply = MakeBulkReply(contents_);
    ctx.set_bulk(std::move(reply.bulk));
    return std::move(reply.control);
  }

 private:
  content::Ref contents_;
};

TEST_F(RpcTest, BulkTravelsBesideOnlyToATakerOnAnUnsealedConnection) {
  const content::Ref data = TailedContents();
  BulkService bulk_service(data);
  const BulkReply reference = MakeBulkReply(data);
  const Bytes expected_inline = Splice(reference.control, reference.bulk);

  struct Outcome {
    Bytes reply;
    std::optional<Bulk> bulk;
    SimTime elapsed = 0;
    uint64_t reply_bytes = 0;
  };
  auto call = [&](bool encrypt, bool take_bulk) {
    RpcConfig config;
    config.encrypt = encrypt;
    auto server = MakeServer(config);
    server->set_service(&bulk_service);
    auto conn = Connect(server.get());
    EXPECT_TRUE(conn.ok());
    Outcome out;
    const SimTime t0 = clock_.now();
    auto reply = (*conn)->Call(1, Bytes{}, take_bulk ? &out.bulk : nullptr);
    EXPECT_TRUE(reply.ok());
    out.reply = *reply;
    out.elapsed = clock_.now() - t0;
    out.reply_bytes = server->call_stats().total_bytes_out();
    return out;
  };

  const Outcome beside = call(/*encrypt=*/false, /*take_bulk=*/true);
  ASSERT_TRUE(beside.bulk.has_value());
  EXPECT_EQ(beside.bulk->data.tail(), data.tail());  // the server's ref itself
  EXPECT_EQ(Splice(beside.reply, *beside.bulk), expected_inline);

  const Outcome unaware = call(/*encrypt=*/false, /*take_bulk=*/false);
  EXPECT_EQ(unaware.reply, expected_inline);

  const Outcome sealed = call(/*encrypt=*/true, /*take_bulk=*/true);
  EXPECT_FALSE(sealed.bulk.has_value());
  EXPECT_EQ(sealed.reply, expected_inline);

  // The wire and the stats see the inline layout however the bulk travelled.
  EXPECT_EQ(beside.elapsed, unaware.elapsed);
  EXPECT_EQ(beside.reply_bytes, expected_inline.size());
  EXPECT_EQ(unaware.reply_bytes, expected_inline.size());
  EXPECT_EQ(sealed.reply_bytes, expected_inline.size());
}

TEST_F(RpcTest, BulkSlotHoldsOnlyWhatTheLastAttemptDelivered) {
  RpcConfig config;
  config.encrypt = false;
  auto server = MakeServer(config);
  auto conn = Connect(server.get());
  ASSERT_TRUE(conn.ok());
  const Bulk stale{content::Ref::Inline(ToBytes("stale")), 4};

  // A reply without a bulk empties the slot...
  std::optional<Bulk> slot = stale;
  ASSERT_TRUE((*conn)->Call(1, ToBytes("ping"), &slot).ok());
  EXPECT_FALSE(slot.has_value());

  // ...and so does an attempt whose reply is lost after the server ran it.
  BulkService bulk_service(TailedContents());
  server->set_service(&bulk_service);
  slot = stale;
  server->fault().DropNextReplies(1);
  EXPECT_EQ((*conn)->Call(1, Bytes{}, &slot).status(), Status::kUnavailable);
  EXPECT_FALSE(slot.has_value());
}

TEST_F(RpcTest, WholeFileSideEffectMovesBigPayloads) {
  auto server = MakeServer(RpcConfig{});
  auto conn = Connect(server.get());
  ASSERT_TRUE(conn.ok());
  Bytes big(256 * 1024, 0x5a);
  const SimTime t0 = clock_.now();
  auto reply = (*conn)->Call(1, big);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->size(), big.size());
  // 512 KB over a 10 Mbit/s LAN (both directions) takes at least ~400 ms.
  EXPECT_GT(clock_.now() - t0, Millis(400));
}

}  // namespace
}  // namespace itc::rpc
