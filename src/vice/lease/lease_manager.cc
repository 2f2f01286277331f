#include "src/vice/lease/lease_manager.h"

#include <algorithm>
#include <utility>

#include "src/sim/kernel.h"

namespace itc::vice {

SimTime LeaseManager::Grant(const Fid& fid, CallbackReceiver* who, SimTime now) {
  if (now < suspended_until_) {
    stats_.refused += 1;
    return 0;
  }
  const SimTime expiry = now + term_;
  leases_[fid][who] = expiry;
  stats_.granted += 1;
  return expiry;
}

std::vector<Fid> LeaseManager::Renew(CallbackReceiver* who, const std::vector<Fid>& fids,
                                     SimTime now) {
  std::vector<Fid> rejected;
  for (const Fid& fid : fids) {
    bool live = false;
    if (now >= suspended_until_) {
      auto it = leases_.find(fid);
      if (it != leases_.end()) {
        auto holder = it->second.find(who);
        live = holder != it->second.end() && holder->second > now;
        if (live) holder->second = now + term_;
      }
    }
    if (live) {
      stats_.renewed += 1;
    } else {
      // Expired, never held, or under the restart embargo: renewal would
      // resurrect a lease the server may already have considered dead while
      // mutating — the holder must revalidate the file instead.
      stats_.rejected += 1;
      rejected.push_back(fid);
    }
  }
  return rejected;
}

void LeaseManager::Release(const Fid& fid, CallbackReceiver* who) {
  auto it = leases_.find(fid);
  if (it == leases_.end()) return;
  it->second.erase(who);
  if (it->second.empty()) leases_.erase(it);
}

void LeaseManager::ReleaseAll(CallbackReceiver* who) {
  for (auto it = leases_.begin(); it != leases_.end();) {
    it->second.erase(who);
    if (it->second.empty()) {
      it = leases_.erase(it);
    } else {
      ++it;
    }
  }
}

SimTime LeaseManager::Break(const Fid& fid, CallbackReceiver* except, SimTime at,
                            NodeId server_node, net::Network* network,
                            sim::Resource* server_cpu, const sim::CostModel& cost) {
  // Under the restart embargo the table is empty but a pre-crash lease the
  // server no longer remembers may still be live somewhere; no mutation may
  // complete until every such promise has run out.
  const SimTime floor = std::max(at, suspended_until_);
  auto it = leases_.find(fid);
  if (it == leases_.end()) return floor;

  SimTime safe = floor;
  uint32_t sent = 0;
  SimTime t = at;
  bool writer_held = false;
  SimTime writer_expiry = 0;
  // Holders in node order (see NodeOrder), not address order.
  std::vector<std::pair<CallbackReceiver*, SimTime>> holders(it->second.begin(),
                                                             it->second.end());
  std::stable_sort(holders.begin(), holders.end(),
                   [](const auto& a, const auto& b) { return NodeOrder(a.first, b.first); });
  for (const auto& [holder, expiry] : holders) {
    if (holder == except) {
      writer_held = true;
      writer_expiry = expiry;
      continue;
    }
    if (expiry <= at) continue;  // already lapsed on its own
    t = sim::Charge(*server_cpu, t, cost.server_lwp_switch);
    if (!network->Reachable(server_node, holder->callback_node(), t)) {
      // Cannot be told; the write may not complete until this holder's
      // promise has run out (never later than at + term).
      network->NotePartitionDrop(server_node);
      stats_.lost += 1;
      stats_.waited_out += 1;
      safe = std::max(safe, expiry);
      continue;
    }
    network->Send(server_node, holder->callback_node(), 64, t,
                  [holder = holder, fid] { holder->OnCallbackBroken(fid); });
    sent += 1;
  }
  if (sent > 0) stats_.break_events += 1;
  stats_.broken += sent;

  leases_.erase(it);
  if (writer_held) leases_[fid][except] = writer_expiry;
  return safe;
}

bool LeaseManager::HasLease(const Fid& fid, const CallbackReceiver* who, SimTime now) const {
  auto it = leases_.find(fid);
  if (it == leases_.end()) return false;
  auto holder = it->second.find(const_cast<CallbackReceiver*>(who));
  return holder != it->second.end() && holder->second > now;
}

size_t LeaseManager::lease_count(SimTime now) const {
  size_t n = 0;
  for (const auto& [fid, holders] : leases_) {
    for (const auto& [holder, expiry] : holders) {
      if (expiry > now) n += 1;
    }
  }
  return n;
}

}  // namespace itc::vice
