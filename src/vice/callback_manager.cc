#include "src/vice/callback_manager.h"

#include <algorithm>
#include <utility>

#include "src/sim/kernel.h"

namespace itc::vice {

namespace {

SimTime ExpiryAt(SimTime now, SimTime term) {
  return term == kNeverExpires ? kNeverExpires : now + term;
}

}  // namespace

SimTime CallbackManager::Register(const Fid& fid, CallbackReceiver* who, SimTime now,
                                  SimTime term) {
  if (now < suspended_until_) {
    stats_.refused += 1;
    return 0;
  }
  const SimTime expiry = ExpiryAt(now, term);
  promises_[fid][who] = expiry;
  return expiry;
}

std::vector<Fid> CallbackManager::RenewLeases(CallbackReceiver* who,
                                              const std::vector<Fid>& fids, SimTime now,
                                              SimTime term) {
  std::vector<Fid> rejected;
  for (const Fid& fid : fids) {
    bool live = false;
    if (now >= suspended_until_) {
      auto it = promises_.find(fid);
      if (it != promises_.end()) {
        auto holder = it->second.find(who);
        live = holder != it->second.end() && holder->second > now;
        if (live) holder->second = ExpiryAt(now, term);
      }
    }
    if (!live) rejected.push_back(fid);
  }
  return rejected;
}

void CallbackManager::Release(const Fid& fid, CallbackReceiver* who) {
  auto it = promises_.find(fid);
  if (it == promises_.end()) return;
  it->second.erase(who);
  if (it->second.empty()) promises_.erase(it);
}

void CallbackManager::ReleaseAll(CallbackReceiver* who) {
  for (auto it = promises_.begin(); it != promises_.end();) {
    it->second.erase(who);
    if (it->second.empty()) {
      it = promises_.erase(it);
    } else {
      ++it;
    }
  }
}

void CallbackManager::Notify(const Fid& fid, const Holders& holders, CallbackReceiver* except,
                             SimTime at, SimTime* t, uint32_t* sent, Holders* unheard,
                             NodeId server_node, net::Network* network,
                             sim::Resource* server_cpu, const sim::CostModel& cost) {
  std::vector<std::pair<CallbackReceiver*, SimTime>> in_node_order(holders.begin(),
                                                                   holders.end());
  std::stable_sort(in_node_order.begin(), in_node_order.end(),
                   [](const auto& a, const auto& b) { return NodeOrder(a.first, b.first); });
  for (const auto& [holder, expiry] : in_node_order) {
    if (holder == except || expiry <= at) continue;  // the writer; a lapsed lease
    // One small message per holder, preceded by a sliver of server CPU.
    *t = sim::Charge(*server_cpu, *t, cost.server_lwp_switch);
    if (!network->Reachable(server_node, holder->callback_node(), *t)) {
      // The break is fire-and-forget: a partitioned holder never hears it.
      // A callback holder keeps trusting its cache (the staleness hole
      // leases close); a lease holder is trusted to stop at its expiry.
      network->NotePartitionDrop(server_node);
      stats_.lost += 1;
      if (unheard != nullptr && expiry != kNeverExpires) unheard->emplace(holder, expiry);
      continue;
    }
    network->Send(server_node, holder->callback_node(), 64, *t,
                  [holder = holder, fid] { holder->OnCallbackBroken(fid); });
    *sent += 1;
    stats_.broken += 1;
  }
}

SimTime CallbackManager::Break(const Fid& fid, CallbackReceiver* except, SimTime at,
                               NodeId server_node, net::Network* network,
                               sim::Resource* server_cpu, const sim::CostModel& cost) {
  // Under the grant embargo the table is empty but a pre-crash lease the
  // server no longer remembers may still be live somewhere; no mutation may
  // complete until every such promise has run out.
  const SimTime floor = std::max(at, suspended_until_);
  auto it = promises_.find(fid);
  if (it == promises_.end()) return floor;

  SimTime t = at;
  uint32_t sent = 0;
  Holders unheard;
  Notify(fid, it->second, except, at, &t, &sent, &unheard, server_node, network, server_cpu,
         cost);
  if (sent > 0) stats_.break_events += 1;
  // The mutation may not complete before every unheard lease has run out.
  SimTime done = floor;
  for (const auto& [holder, expiry] : unheard) done = std::max(done, expiry);
  stats_.waited_out += unheard.size();

  // Everyone else's promise is now void. The writer's own promise survives
  // with its original expiry: its cached copy is the new version, and it
  // must still hear about subsequent writes by others.
  auto writer = except != nullptr ? it->second.find(except) : it->second.end();
  const bool writer_held = writer != it->second.end();
  const SimTime writer_expiry = writer_held ? writer->second : 0;
  promises_.erase(it);
  if (writer_held) promises_[fid][except] = writer_expiry;
  return done;
}

uint32_t CallbackManager::BreakFile(const Fid& fid, SimTime at, NodeId server_node,
                                    net::Network* network, sim::Resource* server_cpu,
                                    const sim::CostModel& cost) {
  auto it = promises_.find(fid);
  if (it == promises_.end()) return 0;
  SimTime t = at;
  uint32_t sent = 0;
  Notify(fid, it->second, nullptr, at, &t, &sent, nullptr, server_node, network, server_cpu,
         cost);
  promises_.erase(it);
  if (sent > 0) stats_.break_events += 1;
  return sent;
}

uint32_t CallbackManager::BreakVolume(VolumeId volume, SimTime at, NodeId server_node,
                                      net::Network* network, sim::Resource* server_cpu,
                                      const sim::CostModel& cost) {
  uint32_t sent = 0;
  SimTime t = at;
  for (auto it = promises_.begin(); it != promises_.end();) {
    if (it->first.volume != volume) {
      ++it;
      continue;
    }
    Notify(it->first, it->second, nullptr, at, &t, &sent, nullptr, server_node, network,
           server_cpu, cost);
    it = promises_.erase(it);
  }
  if (sent > 0) stats_.break_events += 1;
  return sent;
}

bool CallbackManager::HasPromise(const Fid& fid, const CallbackReceiver* who,
                                 SimTime now) const {
  auto it = promises_.find(fid);
  if (it == promises_.end()) return false;
  auto holder = it->second.find(const_cast<CallbackReceiver*>(who));
  return holder != it->second.end() && holder->second > now;
}

size_t CallbackManager::promise_count(SimTime now) const {
  size_t n = 0;
  for (const auto& [fid, holders] : promises_) {
    for (const auto& [holder, expiry] : holders) {
      if (expiry > now) n += 1;
    }
  }
  return n;
}

}  // namespace itc::vice
