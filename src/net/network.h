// Simulated campus network: timing, contention, and traffic accounting.
//
// Transfer(from, to, bytes, depart) models one message: it seizes each LAN
// segment along the route for the message's transmission time (cluster
// segments and the backbone are FCFS resources, so heavy traffic queues),
// adds bridge store-and-forward latency for cross-cluster routes, and
// returns the arrival time. All itcfs RPC traffic flows through here, which
// is what makes the locality experiments (cluster decomposition, read-only
// replication) measurable.
//
// Sharded operation: when the calling activity runs inside a
// sim::KernelGroup (more than one shard), cluster segments are
// shard-local resources and a cross-cluster Transfer *migrates the calling
// activity* to the destination cluster's shard: it pays the source segment
// locally, crosses the backbone at fixed (uncontended) transmission
// latency between the two bridge hops — together at least
// CostModel::BackboneLookahead(), the group's lookahead contract — and
// charges the destination segment on the far shard. One-way messages
// (Send) become one-shot delivery activities posted to the destination
// shard instead, since fire-and-forget traffic has no reply to migrate
// home on. Traffic accounting is kept in per-cluster buckets so shards
// never write a shared counter.

#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/common/ownership.h"
#include "src/common/types.h"
#include "src/net/topology.h"
#include "src/sim/cost_model.h"
#include "src/sim/resource.h"

namespace itc::net {

struct NetworkStats {
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t cross_cluster_messages = 0;
  uint64_t cross_cluster_bytes = 0;
  uint64_t partition_drops = 0;
};

// A link partition: the listed nodes are cut off from the rest of the campus
// (and only the rest — nodes inside the set still reach each other) for the
// half-open interval [from, until). Healing is just the passage of virtual
// time, so partition behaviour is a pure function of the clock and stays
// deterministic under the event kernel.
struct Partition {
  std::vector<NodeId> nodes;
  SimTime from = 0;
  SimTime until = 0;
};

class Network {
 public:
  Network(const Topology& topology, const sim::CostModel& cost);

  // Delivers `bytes` from node `from` to node `to`, departing at `depart`.
  // Returns the arrival time at `to`. Transfer itself is pure timing — the
  // RPC layer consults Reachable() and models the loss; a Transfer across an
  // active partition is a programming error. Under a kernel group a
  // cross-cluster Transfer leaves the calling activity on the destination
  // cluster's shard (the reply Transfer carries it home).
  ITC_KERNEL_ENTRY SimTime Transfer(NodeId from, NodeId to, uint64_t bytes, SimTime depart);

  // One-way message: pays the same network path as Transfer and invokes
  // `deliver` at the arrival time at `to`. Solo kernel (and same-cluster
  // sharded) delivery runs inline on the calling activity, exactly like the
  // Transfer-then-apply sequence it replaces; a cross-cluster sharded
  // delivery runs as a one-shot activity on the destination shard at the
  // arrival time. The calling activity never suspends past the source
  // segment + bridge in sharded mode — fire-and-forget, as the callback
  // and lease break paths require.
  ITC_KERNEL_ENTRY void Send(NodeId from, NodeId to, uint64_t bytes, SimTime depart,
                             std::function<void()> deliver);

  // Schedules a partition. Overlapping partitions compose: a message is lost
  // when any active partition separates its endpoints.
  ITC_KERNEL_QUIESCENT void AddPartition(Partition partition);
  // True when a message departing at `at` can travel between `a` and `b`:
  // no active partition contains exactly one of the two endpoints. Loopback
  // is always reachable.
  ITC_KERNEL_ENTRY bool Reachable(NodeId a, NodeId b, SimTime at) const;
  // Bookkeeping hook for the RPC layer: counts a message the partition ate.
  // `at` is the node where the loss is observed (the sender of the leg that
  // would have departed), which decides the accounting bucket — and, under
  // a kernel group, names the shard the caller is already on.
  ITC_KERNEL_ENTRY void NotePartitionDrop(NodeId at) {
    BucketFor(at).partition_drops += 1;
  }
  // Earliest time >= `at` at which every partition separating `a` and `b`
  // has healed (== `at` when they are already reachable).
  ITC_KERNEL_ENTRY SimTime HealedBy(NodeId a, NodeId b, SimTime at) const;

  // Campus-wide traffic totals, aggregated across the per-cluster buckets.
  ITC_KERNEL_QUIESCENT NetworkStats stats() const;
  ITC_KERNEL_QUIESCENT void ResetStats();

  sim::Resource& cluster_segment(ClusterId c) { return *segments_[c]; }
  sim::Resource& backbone() { return *backbone_; }
  const Topology& topology() const { return topology_; }

 private:
  // Cache-line-padded per-cluster accounting: every mutation happens on the
  // shard owning the sending node's cluster, so shards never contend.
  struct alignas(64) StatsBucket {
    NetworkStats stats;
  };

  NetworkStats& BucketFor(NodeId n) { return stats_by_cluster_[topology_.ClusterOf(n)].stats; }

  Topology topology_;
  sim::CostModel cost_;
  std::vector<std::unique_ptr<sim::Resource>> segments_;
  std::unique_ptr<sim::Resource> backbone_;
  ITC_OWNED_BY_KERNEL std::vector<Partition> partitions_;
  ITC_OWNED_BY_SHARD std::vector<StatsBucket> stats_by_cluster_;
};

}  // namespace itc::net

#endif  // SRC_NET_NETWORK_H_
