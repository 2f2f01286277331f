#include "src/sim/kernel_group.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "src/common/logging.h"

namespace itc::sim {

KernelGroup::KernelGroup(uint32_t shard_count, KernelBackend backend, SimTime lookahead)
    : lookahead_(lookahead) {
  ITC_CHECK(shard_count >= 1);
  ITC_CHECK(lookahead > 0);  // zero lookahead would deadlock the gate
  shards_.reserve(shard_count);
  for (uint32_t i = 0; i < shard_count; ++i) {
    auto k = std::make_unique<Kernel>(backend);
    k->group_ = this;
    k->shard_ = i;
    shards_.push_back(std::move(k));
  }
}

KernelGroup::~KernelGroup() = default;

KernelGroup* KernelGroup::Current() {
  Kernel* k = Kernel::Current();
  return k == nullptr ? nullptr : k->group();
}

void KernelGroup::Spawn(uint32_t domain, std::string name, SimTime start,
                        std::function<void()> body) {
  shards_[ShardOfDomain(domain)]->Spawn(std::move(name), start, std::move(body));
}

void KernelGroup::Run() {
  ITC_CHECK(Kernel::Current() == nullptr);  // no nested runs
  terminated_.store(false);
  const uint32_t n = shard_count();
  std::vector<std::thread> threads;
  threads.reserve(n - 1);
  for (uint32_t i = 1; i < n; ++i) {
    threads.emplace_back([this, i] { shards_[i]->RunShard(); });
  }
  shards_[0]->RunShard();
  for (auto& th : threads) th.join();
  for (auto& k : shards_) k->JoinActivityThreads();
  // Rethrow by shard index so the surfaced failure is deterministic even
  // when several shards failed in the same run.
  for (auto& k : shards_) {
    if (k->failure_ != nullptr) {
      std::exception_ptr f = std::exchange(k->failure_, nullptr);
      std::rethrow_exception(f);
    }
  }
}

void KernelGroup::MigrateToDomain(uint32_t domain, SimTime t) {
  Kernel* host = Kernel::Current();
  ITC_CHECK(host != nullptr && host->group() == this);
  // The lookahead contract: a cross-shard (or cross-cluster) hop always
  // pays at least the backbone floor, so the receiving shard — gated below
  // every other shard's bound + lookahead — cannot have passed `t` yet.
  ITC_CHECK(t >= host->now_ + lookahead_);
  Kernel* target = shards_[ShardOfDomain(domain)].get();
  const uint64_t seq = Kernel::ArrivalSeq(host->shard_, host->next_msg_seq_++);
  host->MigrateOut(target, t, seq);
}

void KernelGroup::Post(uint32_t domain, SimTime t, std::string name,
                       std::function<void()> fn) {
  Kernel* host = Kernel::Current();
  ITC_CHECK(host != nullptr && host->group() == this);
  ITC_CHECK(t >= host->now_ + lookahead_);
  Kernel* target = shards_[ShardOfDomain(domain)].get();
  const uint64_t seq = Kernel::ArrivalSeq(host->shard_, host->next_msg_seq_++);
  target->PostMail(t, seq, std::move(name), std::move(fn));
  NoteMessageSent();
}

void KernelGroup::EnableTrace(size_t capacity) {
  for (auto& k : shards_) k->EnableTrace(capacity);
}

uint64_t KernelGroup::events_dispatched() const {
  uint64_t total = 0;
  for (const auto& k : shards_) total += k->events_dispatched();
  return total;
}

SimTime KernelGroup::EffectiveBound(uint32_t i) const {
  const Kernel& k = *shards_[i];
  // Mailbox first: DrainMail lowers lb_ to the taken timestamps before it
  // clears mail_min_, so a cleared mailbox read here implies the lowered
  // bound below. In the other order a drain between the loads hides both.
  const SimTime mail = k.mail_min_.load();
  return std::min(k.lb_.load(), mail);
}

SimTime KernelGroup::SafeHorizon(uint32_t self) const {
  SimTime min_eff = kNeverSimTime;
  const uint32_t n = shard_count();
  for (uint32_t i = 0; i < n; ++i) {
    if (i == self) continue;
    min_eff = std::min(min_eff, EffectiveBound(i));
  }
  if (min_eff >= kNeverSimTime - lookahead_) return kNeverSimTime;
  return min_eff + lookahead_;
}

bool KernelGroup::AllIdle() const {
  const uint32_t n = shard_count();
  for (uint32_t i = 0; i < n; ++i) {
    if (EffectiveBound(i) != kNeverSimTime) return false;
  }
  return true;
}

KernelGroup::Gate KernelGroup::AwaitSafe(uint32_t shard, SimTime t_next) {
  Kernel& me = *shards_[shard];
  int spins = 0;
  for (;;) {
    if (terminated_.load()) return Gate::kDone;
    // Every cross-shard send publishes the receiver's mailbox minimum
    // *before* bumping the messages-sent counter, and only afterwards may
    // the sender's own bound rise. So a scan of the shards' bounds that
    // sees the counter unchanged on both sides missed no handoff: one in
    // flight either shows up in a mailbox it read or keeps its sender's
    // bound at or below the send. Without that check, a scan could read
    // the receiver before the mail landed and the sender after its bound
    // rose, and open a horizon past the message's consequences.
    const uint64_t sent_before = msgs_sent_.load();
    if (me.mail_min_.load() != kNeverSimTime) return Gate::kRetry;
    if (t_next != kNeverSimTime) {
      // Single-shard groups have an unbounded horizon and never block here.
      if (t_next < SafeHorizon(shard) && msgs_sent_.load() == sent_before) {
        return Gate::kDispatch;
      }
    } else {
      // This shard is idle. Claim termination only if every shard is idle
      // across a scan with the counter stable (the same argument as above).
      if (AllIdle()) {
        if (msgs_sent_.load() == sent_before && AllIdle()) {
          terminated_.store(true);
          {
            std::lock_guard<std::mutex> lock(sync_mu_);
          }
          sync_cv_.notify_all();
          return Gate::kDone;
        }
        continue;  // raced with a handoff; rescan
      }
    }
    // Not safe yet. The horizon usually opens within a few of the other
    // shards' events, so spin briefly, then yield (essential when shards
    // outnumber cores), then block with a timed backstop so a lost wakeup
    // costs a millisecond, never a hang.
    ++spins;
    if (spins < 256) {
      // busy-read; the loads above are the pause
    } else if (spins < 320) {
      std::this_thread::yield();
    } else {
      spins = 0;
      waiters_.fetch_add(1);
      {
        std::unique_lock<std::mutex> lock(sync_mu_);
        sync_cv_.wait_for(lock, std::chrono::milliseconds(1));
      }
      waiters_.fetch_sub(1);
    }
  }
}

void KernelGroup::NoteMessageSent() {
  // Mailbox publication (EnqueueMail / PostMail) happened-before this bump;
  // AwaitSafe's termination scan depends on exactly that order.
  msgs_sent_.fetch_add(1);
  WakeWaiters();
}

void KernelGroup::WakeWaiters() {
  if (waiters_.load() == 0) return;
  {
    std::lock_guard<std::mutex> lock(sync_mu_);
  }
  sync_cv_.notify_all();
}

}  // namespace itc::sim
