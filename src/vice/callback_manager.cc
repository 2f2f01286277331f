#include "src/vice/callback_manager.h"

#include <algorithm>
#include <vector>

#include "src/sim/kernel.h"

namespace itc::vice {

namespace {

std::vector<CallbackReceiver*> InNodeOrder(const std::set<CallbackReceiver*>& holders) {
  std::vector<CallbackReceiver*> out(holders.begin(), holders.end());
  std::stable_sort(out.begin(), out.end(), NodeOrder);
  return out;
}

}  // namespace

void CallbackManager::Register(const Fid& fid, CallbackReceiver* who) {
  if (promises_[fid].insert(who).second) stats_.registered += 1;
}

void CallbackManager::Unregister(const Fid& fid, CallbackReceiver* who) {
  auto it = promises_.find(fid);
  if (it == promises_.end()) return;
  it->second.erase(who);
  if (it->second.empty()) promises_.erase(it);
}

void CallbackManager::UnregisterAll(CallbackReceiver* who) {
  for (auto it = promises_.begin(); it != promises_.end();) {
    it->second.erase(who);
    if (it->second.empty()) {
      it = promises_.erase(it);
    } else {
      ++it;
    }
  }
}

uint32_t CallbackManager::Break(const Fid& fid, CallbackReceiver* except, SimTime at,
                                NodeId server_node, net::Network* network,
                                sim::Resource* server_cpu, const sim::CostModel& cost) {
  auto it = promises_.find(fid);
  if (it == promises_.end()) return 0;

  uint32_t sent = 0;
  SimTime t = at;
  for (CallbackReceiver* r : InNodeOrder(it->second)) {
    if (r == except) continue;
    // One small message per holder, preceded by a sliver of server CPU.
    t = sim::Charge(*server_cpu, t, cost.server_lwp_switch);
    if (!network->Reachable(server_node, r->callback_node(), t)) {
      // The break is fire-and-forget: a partitioned holder never hears it
      // and keeps trusting its cache — the staleness hole leases close.
      network->NotePartitionDrop(server_node);
      stats_.lost += 1;
      continue;
    }
    network->Send(server_node, r->callback_node(), 64, t,
                  [r, fid] { r->OnCallbackBroken(fid); });
    sent += 1;
  }
  if (sent > 0) stats_.break_events += 1;
  stats_.broken += sent;

  // Everyone else's promise is now void. The writer's own promise survives:
  // its cached copy is the new version, and it must still hear about
  // subsequent writes by others.
  const bool writer_held = except != nullptr && it->second.contains(except);
  promises_.erase(it);
  if (writer_held) promises_[fid].insert(except);
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
    for (CallbackReceiver* r : InNodeOrder(it->second)) {
      t = sim::Charge(*server_cpu, t, cost.server_lwp_switch);
      if (!network->Reachable(server_node, r->callback_node(), t)) {
        network->NotePartitionDrop(server_node);
        stats_.lost += 1;
        continue;
      }
      network->Send(server_node, r->callback_node(), 64, t,
                    [r, fid = it->first] { r->OnCallbackBroken(fid); });
      sent += 1;
    }
    it = promises_.erase(it);
  }
  if (sent > 0) {
    stats_.break_events += 1;
    stats_.broken += sent;
  }
  return sent;
}

bool CallbackManager::HasPromise(const Fid& fid, const CallbackReceiver* who) const {
  auto it = promises_.find(fid);
  return it != promises_.end() &&
         it->second.contains(const_cast<CallbackReceiver*>(who));
}

size_t CallbackManager::promise_count() const {
  size_t n = 0;
  for (const auto& [fid, holders] : promises_) n += holders.size();
  return n;
}

}  // namespace itc::vice
