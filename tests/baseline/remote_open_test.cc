// Tests of the remote-open baseline (Locus/Newcastle-style comparator).

#include "src/baseline/remote_open.h"

#include <gtest/gtest.h>

#include "src/rpc/fault_injector.h"
#include "src/rpc/wire.h"

namespace itc::baseline {
namespace {

class RemoteOpenTest : public ::testing::Test {
 protected:
  static constexpr UserId kUser = 9;

  RemoteOpenTest()
      : topo_(net::TopologyConfig{1, 1, 2}),
        cost_(sim::CostModel::Default1985()),
        network_(topo_, cost_),
        key_(crypto::DeriveKeyFromPassword("pw", "realm")),
        server_(topo_.ServerNode(0, 0), &network_, cost_, rpc::RpcConfig{},
                [this](UserId u) -> std::optional<crypto::Key> {
                  if (u == kUser) return key_;
                  return std::nullopt;
                },
                77),
        client_(topo_.WorkstationNode(0, 0), &clock_, &server_, &network_, cost_) {}

  void SetUp() override { ASSERT_EQ(client_.Connect(kUser, key_, 5), Status::kOk); }

  net::Topology topo_;
  sim::CostModel cost_;
  net::Network network_;
  crypto::Key key_;
  RemoteOpenServer server_;
  sim::Clock clock_;
  RemoteOpenClient client_;
};

TEST_F(RemoteOpenTest, WriteThenReadWholeFile) {
  const Bytes data(10000, 0x5a);
  ASSERT_EQ(client_.WriteWholeFile("/f", data), Status::kOk);
  auto back = client_.ReadWholeFile("/f");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

TEST_F(RemoteOpenTest, EveryPageIsAnRpc) {
  const Bytes data(10 * kPageSize, 1);
  ASSERT_EQ(client_.WriteWholeFile("/f", data), Status::kOk);
  const uint64_t calls_before = server_.endpoint().call_stats().total_calls();
  ASSERT_TRUE(client_.ReadWholeFile("/f").ok());
  // Stat + open + 10 page reads + close = 13 calls.
  EXPECT_EQ(server_.endpoint().call_stats().total_calls() - calls_before, 13u);
}

TEST_F(RemoteOpenTest, SparseReadTouchesOnePage) {
  const Bytes data(100 * kPageSize, 2);
  ASSERT_EQ(server_.storage().WriteFile("/big", data), Status::kOk);  // direct population
  auto handle = client_.Open("/big", false);
  ASSERT_TRUE(handle.ok());
  const uint64_t calls_before = server_.endpoint().call_stats().total_calls();
  auto page = client_.Read(*handle, 50 * kPageSize, 100);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->size(), 100u);
  EXPECT_EQ(server_.endpoint().call_stats().total_calls() - calls_before, 1u);
  EXPECT_EQ(client_.Close(*handle), Status::kOk);
}

TEST_F(RemoteOpenTest, StatAndDirOps) {
  ASSERT_EQ(client_.MkDir("/d"), Status::kOk);
  ASSERT_EQ(client_.WriteWholeFile("/d/f", ToBytes("xyz")), Status::kOk);
  auto st = client_.Stat("/d/f");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 3u);
  EXPECT_FALSE(st->is_directory);
  EXPECT_TRUE(client_.Stat("/d")->is_directory);
  ASSERT_EQ(client_.Unlink("/d/f"), Status::kOk);
  EXPECT_EQ(client_.Stat("/d/f").status(), Status::kNotFound);
}

TEST_F(RemoteOpenTest, MissingFileAndBadHandle) {
  EXPECT_EQ(client_.Open("/nope", false).status(), Status::kNotFound);
  EXPECT_EQ(client_.Read(999, 0, 10).status(), Status::kBadDescriptor);
  EXPECT_EQ(client_.Close(999), Status::kBadDescriptor);
}

TEST_F(RemoteOpenTest, HandlesAreReleasedOnClose) {
  ASSERT_EQ(client_.WriteWholeFile("/f", ToBytes("x")), Status::kOk);
  auto h = client_.Open("/f", false);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(server_.open_handles(), 1u);
  ASSERT_EQ(client_.Close(*h), Status::kOk);
  EXPECT_EQ(server_.open_handles(), 0u);
}

TEST_F(RemoteOpenTest, RereadCostsFullPriceWithoutCaching) {
  // The defining weakness vs whole-file caching: the second read of the
  // same file costs just as much as the first.
  const Bytes data(20 * kPageSize, 3);
  ASSERT_EQ(client_.WriteWholeFile("/f", data), Status::kOk);

  const SimTime t0 = clock_.now();
  ASSERT_TRUE(client_.ReadWholeFile("/f").ok());
  const SimTime first = clock_.now() - t0;
  ASSERT_TRUE(client_.ReadWholeFile("/f").ok());
  const SimTime second = clock_.now() - t0 - first;
  EXPECT_NEAR(static_cast<double>(second), static_cast<double>(first),
              static_cast<double>(first) * 0.05);
}

TEST_F(RemoteOpenTest, ReadWholeFileSurfacesCloseFailure) {
  // Regression: ReadWholeFile used to drop the Status of its trailing Close,
  // returning the data as if nothing went wrong while the server-side handle
  // leaked. ReadWholeFile on a one-page file is stat + open + read + close;
  // fail exactly the close and the error must surface.
  const Bytes data(100, 0x7);
  ASSERT_EQ(client_.WriteWholeFile("/f", data), Status::kOk);
  server_.endpoint().fault().FailCalls(/*skip=*/3, /*count=*/1);
  auto back = client_.ReadWholeFile("/f");
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status(), Status::kUnavailable);
  // The failed close really did leak the handle — the observable the old
  // code hid from the caller.
  EXPECT_EQ(server_.open_handles(), 1u);
  // With the fault cleared, the same read goes through.
  auto again = client_.ReadWholeFile("/f");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, data);
}

TEST_F(RemoteOpenTest, ReadDirListsNames) {
  ASSERT_EQ(client_.MkDir("/d"), Status::kOk);
  ASSERT_EQ(client_.WriteWholeFile("/d/a", ToBytes("1")), Status::kOk);
  ASSERT_EQ(client_.WriteWholeFile("/d/b", ToBytes("2")), Status::kOk);
  auto names = client_.ReadDir("/d");
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names->size(), 2u);
  EXPECT_EQ((*names)[0], "a");
  EXPECT_EQ((*names)[1], "b");
  EXPECT_EQ(client_.ReadDir("/nope").status(), Status::kNotFound);
  EXPECT_EQ(client_.ReadDir("/d/a").status(), Status::kNotDirectory);
}

TEST_F(RemoteOpenTest, RenameWithinServer) {
  ASSERT_EQ(client_.WriteWholeFile("/old", ToBytes("data")), Status::kOk);
  ASSERT_EQ(client_.Rename("/old", "/new"), Status::kOk);
  EXPECT_EQ(client_.Stat("/old").status(), Status::kNotFound);
  auto back = client_.ReadWholeFile("/new");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(ToString(*back), "data");
  EXPECT_EQ(client_.Rename("/nope", "/x"), Status::kNotFound);
}

TEST_F(RemoteOpenTest, RmDirOnlyRemovesEmptyDirectories) {
  ASSERT_EQ(client_.MkDir("/d"), Status::kOk);
  ASSERT_EQ(client_.WriteWholeFile("/d/f", ToBytes("x")), Status::kOk);
  EXPECT_EQ(client_.RmDir("/d"), Status::kNotEmpty);
  ASSERT_EQ(client_.Unlink("/d/f"), Status::kOk);
  EXPECT_EQ(client_.RmDir("/d"), Status::kOk);
  EXPECT_EQ(client_.Stat("/d").status(), Status::kNotFound);
}

TEST_F(RemoteOpenTest, TruncateShrinksOpenFile) {
  ASSERT_EQ(client_.WriteWholeFile("/f", Bytes(5000, 0x11)), Status::kOk);
  auto h = client_.Open("/f", false);
  ASSERT_TRUE(h.ok());
  ASSERT_EQ(client_.Truncate(*h, 0), Status::kOk);
  ASSERT_EQ(client_.Close(*h), Status::kOk);
  EXPECT_EQ(client_.Stat("/f")->size, 0u);
  EXPECT_EQ(client_.Truncate(999, 0), Status::kBadDescriptor);
}

// Answers every call OK with a directory count of 0xffffffff and no names.
class HostileCountService : public rpc::Service {
 public:
  Result<Bytes> Dispatch(rpc::CallContext&, uint32_t, const Bytes&) override {
    rpc::Writer w;
    w.PutStatus(Status::kOk);
    w.PutU32(0xffffffffu);
    return w.Take();
  }
};

TEST_F(RemoteOpenTest, ReadDirRefusesACountTheReplyCannotHold) {
  // Sized by the count alone, the name vector would ask for ~137 GB.
  HostileCountService hostile;
  server_.endpoint().set_service(&hostile);
  EXPECT_EQ(client_.ReadDir("/").status(), Status::kProtocolError);
}

}  // namespace
}  // namespace itc::baseline
