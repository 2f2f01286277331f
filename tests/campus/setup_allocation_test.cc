// Set-up cost per user must not grow with the campus.
//
// Adding a user replicates the protection and location databases to every
// cluster server and mounts the new home volume under /usr in the root
// volume. When each of those steps copied its whole database or directory,
// one more user cost O(N) host work on a campus of N users. This test counts
// the host allocations of one Campus::AddUserWithHome on a 40-server campus
// of 100 users and again of 5,000 users: the second count may be at most
// twice the first (the O(log N) paths of the structure-sharing maps grow
// only a little).
//
// It is its own test executable because it replaces the global operator new
// to count allocations.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "src/campus/campus.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler does not pair an inlined free() with the
// operator new at a call site and warn of a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace itc {
namespace {

class SetupAllocationTest : public ::testing::Test {
 protected:
  SetupAllocationTest() : campus_(campus::CampusConfig::Revised(40, 1)) {
    EXPECT_TRUE(campus_.SetupRootVolume().ok());
  }

  void AddUsersUntil(uint32_t n) {
    while (users_ < n) ASSERT_TRUE(AddUser());
  }

  // Allocations made by one more AddUserWithHome.
  uint64_t CountOneMoreUser() {
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    EXPECT_TRUE(AddUser());
    return g_allocations.load(std::memory_order_relaxed) - before;
  }

 private:
  bool AddUser() {
    const std::string name = "u" + std::to_string(users_);
    const ServerId custodian = users_ % static_cast<uint32_t>(campus_.server_count());
    users_ += 1;
    return campus_.AddUserWithHome(name, "pw-" + name, custodian).ok();
  }

  campus::Campus campus_;
  uint32_t users_ = 0;
};

TEST_F(SetupAllocationTest, OneMoreUserCostsAboutTheSameAtAnySize) {
  AddUsersUntil(100);
  const uint64_t at_100 = CountOneMoreUser();
  AddUsersUntil(5000);
  const uint64_t at_5000 = CountOneMoreUser();
  std::printf("allocations of one AddUserWithHome: %llu after 100 users, %llu after 5,000\n",
              static_cast<unsigned long long>(at_100), static_cast<unsigned long long>(at_5000));
  EXPECT_GT(at_100, 0u);
  EXPECT_LE(at_5000, 2 * at_100);
}

}  // namespace
}  // namespace itc
