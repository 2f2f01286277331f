// itcfs-lint rule engine.
//
// Each rule encodes a project invariant that used to be enforced only by
// code review (or by a runtime crash):
//
//   nodiscard-status        every function declared in a header returning
//                           Status or Result<T> carries [[nodiscard]]
//   discarded-status        no statement-position call to such a function
//                           silently drops the returned error
//   intention-before-mutate every ViceServer handler in file_server.cc
//                           appends to the IntentionLog before its first
//                           volume mutation (store-on-close atomicity, §3.5)
//   opcode-sync             the Proc enums, the OpSchema tables, and the
//                           generated tables in docs/PROTOCOL.md agree
//   sim-determinism         no wall-clock / ambient-randomness identifiers
//                           outside src/sim/ and src/common/rng.h
//   assert-side-effect      no assert() whose condition has side effects
//   assert-in-header        no assert() in a header at all (the default
//                           RelWithDebInfo build defines NDEBUG, so these
//                           are silent no-ops; use ITC_CHECK)
//   resource-serve-outside-kernel
//                           no direct sim::Resource::Serve call outside
//                           src/sim/ — functional code charges demands
//                           through sim::Charge so the event kernel can
//                           admit them in arrival order
//   vfs-dispatch-only       no direct Venus file operation (venus_->Open,
//                           venus().Stat, ...) and no baseline::
//                           RemoteOpenClient use outside src/virtue/vfs/,
//                           src/venus/, src/baseline/ — file access goes
//                           through the vfs::Switch mount layer
//   no-raw-lease-term       no statement mixing a lease-related identifier
//                           with a numeric time literal (Seconds(30), ...)
//                           outside the two constants' definitions
//                           (vice::kLeaseTerm in src/vice/file_server.h,
//                           venus::kLeaseRenewMargin in
//                           src/venus/config.h) — the lease/renewal
//                           clockwork must follow the configured term, or
//                           the correctness argument (recovery embargo =
//                           one term, staleness <= one term) silently
//                           splits from the durations actually in force
//
// Lint v2 adds interprocedural rules that run on the repo-wide symbol index
// (tools/lint/symbols.h) and conservative call graph (tools/lint/callgraph.h)
// built from the same token streams:
//
//   kernel-ownership        state marked ITC_OWNED_BY_KERNEL may only be
//                           touched by methods reachable from a function
//                           marked ITC_KERNEL_ENTRY or ITC_KERNEL_QUIESCENT
//                           (the ownership fence the sharded multi-kernel
//                           runtime relies on; src/common/ownership.h).
//                           State marked ITC_OWNED_BY_SHARD belongs to one
//                           shard of the kernel group and is held to the
//                           same fence with a sharper message; a method
//                           marked ITC_SHARD_FOREIGN is a declared (waived)
//                           cross-shard touch and may reach it
//   no-alloc-in-kernel-hot-path
//                           no new/make_unique/make_shared or container
//                           growth call (push_back, insert, resize, ...)
//                           in Kernel::Run*/Dispatch/WaitUntil or anything
//                           they reach over the call graph — the
//                           steady-state event loop is allocation-free per
//                           event (suppression allowed for cold paths)
//   sim-determinism-transitive
//                           the determinism ban, extended over the call
//                           graph: calling a helper that (transitively)
//                           reaches a banned wall-clock/entropy use is
//                           itself a violation, so bans cannot be laundered
//                           through wrappers
//   stale-suppression       an `itcfs-lint: allow(...)` naming an unknown
//                           rule id, or suppressing zero diagnostics in a
//                           full run, is itself an error
//   rule-doc-sync           every registered rule id has a `### `id``
//                           section in docs/LINT.md and vice versa
//
// Suppression: `// itcfs-lint: allow(rule-id)` on the offending line or the
// line above. See docs/LINT.md for the catalog.

#ifndef TOOLS_LINT_RULES_H_
#define TOOLS_LINT_RULES_H_

#include <set>
#include <string>
#include <vector>

#include "tools/lint/lexer.h"

namespace itc::lint {

struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

struct LintInput {
  std::vector<LexedFile> files;
  // Contents of docs/PROTOCOL.md; empty skips the generated-table half of
  // opcode-sync (the enum/schema half still runs).
  std::string protocol_md;
  // Contents of docs/LINT.md; empty skips rule-doc-sync.
  std::string lint_md;
};

inline const std::set<std::string>& AllRules() {
  static const std::set<std::string> rules = {
      "nodiscard-status",  "discarded-status",  "intention-before-mutate",
      "opcode-sync",       "sim-determinism",   "assert-side-effect",
      "assert-in-header",  "resource-serve-outside-kernel",
      "no-alloc-in-kernel-hot-path", "vfs-dispatch-only",
      "no-raw-lease-term", "kernel-ownership", "sim-determinism-transitive",
      "stale-suppression", "rule-doc-sync",  "no-eager-contents",
  };
  return rules;
}

// Runs the rules over the input. `only` restricts to a subset of rule ids;
// empty means all. Returns diagnostics sorted by (file, line, rule).
std::vector<Diagnostic> RunRules(const LintInput& input,
                                 const std::set<std::string>& only = {});

}  // namespace itc::lint

#endif  // TOOLS_LINT_RULES_H_
