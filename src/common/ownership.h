// Kernel-ownership annotations for itcfs-lint's kernel-ownership rule.
//
// The discrete-event kernel (src/sim/kernel.h) owns a domain of state: the
// event heap, the virtual clock, the trace ring, and — through the
// activities it schedules — the functional state those activities mutate
// (resources, network partitions, server volumes). Under the sharded
// runtime (sim::KernelGroup, more than one shard) there is one kernel
// per shard, each on its own OS thread, and a touch from outside the
// owning shard is a data race, not just a style violation.
//
// These macros make the domain machine-checkable. They expand to nothing —
// the compiler never sees them — but itcfs-lint's symbol index
// (tools/lint/symbols.h) picks them up and its kernel-ownership rule
// enforces the fence:
//
//   ITC_OWNED_BY_KERNEL    on a member declaration. The member belongs to
//                          the owning kernel's domain; only methods of the
//                          class reachable (via the conservative call graph)
//                          from an ENTRY or QUIESCENT function may touch it.
//
//   ITC_OWNED_BY_SHARD     on a member declaration. Strictly stronger than
//                          ITC_OWNED_BY_KERNEL: the member belongs to ONE
//                          shard of the kernel group — the shard that owns
//                          the enclosing object's cluster — and may only be
//                          touched by an activity currently hosted there
//                          (or while the whole group is quiescent). Methods
//                          reaching such a member must be reachable from an
//                          ENTRY or QUIESCENT function of the class, or
//                          carry the ITC_SHARD_FOREIGN waiver below.
//
//   ITC_KERNEL_ENTRY       on a function declaration or definition. An
//                          entry point of the kernel domain: the event loop
//                          itself, or a call an activity legally makes while
//                          the kernel is running (sim::Charge, Kernel::
//                          WaitUntil, an RPC handler bound by BindOps, ...).
//                          Under a kernel group an ENTRY function runs on
//                          whichever shard hosts the calling activity; code
//                          that touches ITC_OWNED_BY_SHARD state must have
//                          migrated there first (net::Network::Transfer does
//                          this as a side effect of crossing the backbone).
//
//   ITC_KERNEL_QUIESCENT   on a function declaration or definition. Legal
//                          only while the owning kernel — all shards of the
//                          group — is idle: setup (Spawn, EnableTrace),
//                          post-run accessors (trace, utilization), and
//                          orchestration between runs (Partition,
//                          RestartServer, SimulateCrash, ...). Quiescent
//                          functions may touch any shard's state; the
//                          runtime check is ITC_CHECK(sim::Kernel::Current()
//                          == nullptr) at the top of the function.
//
//   ITC_SHARD_FOREIGN      on a function declaration or definition. An
//                          acknowledged cross-shard touch: the function is
//                          known to reach state its calling shard does not
//                          own (e.g. a client-side destructor tearing down
//                          server-side connection state) and is exempted
//                          from the owned-by-shard fence. A waiver, not a
//                          blessing — each one marks documented debt that
//                          must only run quiescently or on the owning
//                          shard; the lint rule accepts an owned-by-shard
//                          touch inside a SHARD_FOREIGN function and flags
//                          one anywhere else outside ENTRY/QUIESCENT reach.
//
// The rule checks methods of the annotated member's own class, so the fence
// is necessary, not sufficient — a reference smuggled out of the class
// escapes it. That is the same deal ITC_CHECK offers: a cheap invariant
// that converts the common mistake into a build failure.

#ifndef ITC_COMMON_OWNERSHIP_H_
#define ITC_COMMON_OWNERSHIP_H_

#define ITC_OWNED_BY_KERNEL
#define ITC_OWNED_BY_SHARD
#define ITC_KERNEL_ENTRY
#define ITC_KERNEL_QUIESCENT
#define ITC_SHARD_FOREIGN

#endif  // ITC_COMMON_OWNERSHIP_H_
