// Host allocations of the Virtue calls a campus day makes most.
//
// The measured call mix is dominated by status and validation traffic
// (§5.2), so a call's fixed host cost, not its bytes, bounds how many
// workstations one simulated server carries. This test counts the global
// operator new calls of four workstation calls on a small campus, with
// paths as long as the campus benchmark's (/vice/usr/u123/f17), after one
// call of each kind has warmed the directories, connections and opcode
// tables:
//   * Stat of a cached file — no RPC, so nothing to allocate;
//   * Stat of an uncached file — one FetchStatus;
//   * ReadWholeFile of a cold file — one Fetch;
//   * ReadWholeFile of a cached file — the descriptor bookkeeping and the
//     returned bytes;
//   * Stat of an uncached file in a read-only volume released to both
//     cluster servers — one FetchStatus to the nearest replica site, within
//     the read-write Stat's budget.
// Each runs unsealed and sealed (the sealed envelope's own buffers are
// counted too).
//
// It is its own test executable because it replaces the global operator new
// to count allocations.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "src/campus/campus.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

}  // namespace

// All out of line, so the compiler does not pair an inlined malloc() or
// free() with the operator new or delete at a call site and warn of a
// mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// The nothrow form too (std::stable_sort's buffer): every allocation the
// plain delete frees must come from malloc.
[[gnu::noinline]] void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace itc {
namespace {

constexpr int kFiles = 20;

// The most allocations each call may make, unsealed and sealed.
struct Budget {
  uint64_t cached_stat;
  uint64_t uncached_stat;
  uint64_t cold_read;
  uint64_t cached_read;
};
constexpr Budget kUnsealed{0, 6, 11, 3};
constexpr Budget kSealed{0, 10, 17, 3};

std::string FilePath(int i) { return "/vice/usr/u123/f" + std::to_string(i); }
// At the replicated volume's root, so the path below the Venus mount
// ("/unix/sun/f2") fits the short-string buffer as "/usr/u123/f2" does.
std::string ReplicatedPath(int i) { return "/vice/unix/sun/f" + std::to_string(i); }

class HotPathAllocationTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    campus::CampusConfig config = campus::CampusConfig::Revised(2, 1);
    config.rpc.encrypt = GetParam();
    campus_ = std::make_unique<campus::Campus>(config);
    ASSERT_TRUE(campus_->SetupRootVolume().ok());
    auto home = campus_->AddUserWithHome("u123", "pw-u123", /*custodian=*/0);
    ASSERT_TRUE(home.ok());
    for (int i = 0; i < kFiles; ++i) {
      const Bytes data(4096 + 64 * static_cast<size_t>(i), static_cast<uint8_t>('a' + i));
      ASSERT_EQ(campus_->PopulateDirect(home->volume, "/f" + std::to_string(i), data),
                Status::kOk);
    }
    // A system volume released read-only to the servers of both clusters.
    auto sys = campus_->CreateSystemVolume("sys", "/unix/sun", /*custodian=*/0);
    ASSERT_TRUE(sys.ok());
    for (int i = 0; i < kFiles; ++i) {
      ASSERT_EQ(campus_->PopulateDirect(*sys, "/f" + std::to_string(i),
                                        Bytes(4096, static_cast<uint8_t>('A' + i))),
                Status::kOk);
    }
    ASSERT_TRUE(campus_->registry().ReleaseReadOnly(*sys, "sys.ro", {0, 1}).ok());
    ws_ = &campus_->workstation(0);
    ASSERT_EQ(ws_->LoginWithPassword(home->user, "pw-u123"), Status::kOk);

    // One call of each kind: the walk's directories and volume hints are
    // cached, the connection is open, and every opcode has its stats slot.
    ASSERT_TRUE(ws_->Stat(FilePath(0)).ok());
    ASSERT_TRUE(ws_->ReadWholeFile(FilePath(1)).ok());
    ASSERT_TRUE(ws_->ReadWholeFile(FilePath(1)).ok());
    ASSERT_TRUE(ws_->Stat(FilePath(1)).ok());
    ASSERT_TRUE(ws_->Stat(ReplicatedPath(0)).ok());
  }

  uint64_t Calls() const { return ws_->venus().call_stats().total_calls(); }

  // Allocations made by `call`, which must make exactly `rpcs` RPCs.
  template <typename Call>
  uint64_t Count(uint64_t rpcs, Call call) {
    const uint64_t calls_before = Calls();
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    EXPECT_TRUE(call());
    const uint64_t n = g_allocations.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(Calls() - calls_before, rpcs);
    return n;
  }

  std::unique_ptr<campus::Campus> campus_;
  virtue::Workstation* ws_ = nullptr;
};

TEST_P(HotPathAllocationTest, CallsAllocateOnlyWhatTheyReturnOrKeep) {
  // Built before counting: an 18-byte path is past the short-string buffer.
  const std::string cached = FilePath(1);
  const std::string uncached = FilePath(2);
  const std::string cold = FilePath(17);
  const uint64_t cached_stat = Count(0, [&] { return ws_->Stat(cached).ok(); });
  const uint64_t uncached_stat = Count(1, [&] { return ws_->Stat(uncached).ok(); });
  const uint64_t cold_read = Count(1, [&] { return ws_->ReadWholeFile(cold).ok(); });
  const uint64_t cached_read = Count(0, [&] { return ws_->ReadWholeFile(cold).ok(); });

  const bool sealed = GetParam();
  std::printf("%s allocations: cached Stat %llu, uncached Stat %llu, cold ReadWholeFile %llu, "
              "cached ReadWholeFile %llu\n",
              sealed ? "sealed" : "unsealed", static_cast<unsigned long long>(cached_stat),
              static_cast<unsigned long long>(uncached_stat),
              static_cast<unsigned long long>(cold_read),
              static_cast<unsigned long long>(cached_read));
  const Budget& budget = sealed ? kSealed : kUnsealed;
  EXPECT_LE(cached_stat, budget.cached_stat);
  EXPECT_LE(uncached_stat, budget.uncached_stat);
  EXPECT_LE(cold_read, budget.cold_read);
  EXPECT_LE(cached_read, budget.cached_read);
}

TEST_P(HotPathAllocationTest, ReplicatedStatAllocatesAsAReadWriteOne) {
  const std::string uncached = ReplicatedPath(2);
  const uint64_t replicated_stat = Count(1, [&] { return ws_->Stat(uncached).ok(); });

  const bool sealed = GetParam();
  std::printf("%s allocations: uncached Stat in a replicated read-only volume %llu\n",
              sealed ? "sealed" : "unsealed", static_cast<unsigned long long>(replicated_stat));
  EXPECT_LE(replicated_stat, (sealed ? kSealed : kUnsealed).uncached_stat);
}

INSTANTIATE_TEST_SUITE_P(Envelope, HotPathAllocationTest, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "Sealed" : "Unsealed";
                         });

}  // namespace
}  // namespace itc
