// Tests for itcfs-lint: each rule is exercised against a checked-in
// positive fixture (must fire) and a negative fixture (must stay quiet).
// Fixtures live in tests/lint/fixtures/ and are lexed under the virtual
// repo path each rule keys on, so the fixtures never have to be compiled.

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tools/lint/callgraph.h"
#include "tools/lint/lexer.h"
#include "tools/lint/rules.h"
#include "tools/lint/symbols.h"

namespace itc::lint {
namespace {

std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(ITC_SOURCE_DIR) + "/tests/lint/fixtures/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Lexes fixture `name` under the virtual path `as` (defaults to the
// fixture's own name under src/, which keeps it out of rule path filters
// unless the test opts in).
LexedFile LexFixture(const std::string& name, std::string as = "") {
  if (as.empty()) as = "src/fixture/" + name;
  return Lex(std::move(as), ReadFixture(name));
}

std::vector<Diagnostic> RunOne(const std::string& rule, LintInput input) {
  return RunRules(input, {rule});
}

TEST(NodiscardStatus, FiresOnUnannotatedDeclarations) {
  LintInput in;
  in.files.push_back(LexFixture("nodiscard_bad.h"));
  const auto diags = RunOne("nodiscard-status", in);
  EXPECT_EQ(diags.size(), 4u) << "Flush, Measure, Sync, FreeFlush";
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.rule, "nodiscard-status");
    EXPECT_EQ(d.file, "src/fixture/nodiscard_bad.h");
  }
}

TEST(NodiscardStatus, QuietWhenAnnotated) {
  LintInput in;
  in.files.push_back(LexFixture("nodiscard_good.h"));
  EXPECT_TRUE(RunOne("nodiscard-status", in).empty());
}

TEST(NodiscardStatus, OnlyChecksHeaders) {
  // The same unannotated declarations in a .cc are definitions of already
  // declared functions; only the header spelling is policed.
  LintInput in;
  in.files.push_back(Lex("src/fixture/defs.cc", ReadFixture("nodiscard_bad.h")));
  EXPECT_TRUE(RunOne("nodiscard-status", in).empty());
}

TEST(DiscardedStatus, FiresOnStatementPositionCalls) {
  LintInput in;
  in.files.push_back(LexFixture("discard_decls.h"));
  in.files.push_back(LexFixture("discard_bad.cc"));
  const auto diags = RunOne("discarded-status", in);
  EXPECT_EQ(diags.size(), 4u) << "Put, Get, Compact, Compact-inside-if";
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.file, "src/fixture/discard_bad.cc");
  }
}

TEST(DiscardedStatus, QuietWhenConsumedOrVoidCast) {
  LintInput in;
  in.files.push_back(LexFixture("discard_decls.h"));
  in.files.push_back(LexFixture("discard_good.cc"));
  EXPECT_TRUE(RunOne("discarded-status", in).empty());
}

TEST(IntentionBeforeMutate, FiresWhenMutationPrecedesLog) {
  LintInput in;
  in.files.push_back(LexFixture("intention_bad.cc", "src/vice/file_server.cc"));
  const auto diags = RunOne("intention-before-mutate", in);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("ViceServer::Store"), std::string::npos);
  EXPECT_NE(diags[0].message.find("StoreData"), std::string::npos);
}

TEST(IntentionBeforeMutate, QuietWhenLogComesFirst) {
  LintInput in;
  in.files.push_back(LexFixture("intention_good.cc", "src/vice/file_server.cc"));
  EXPECT_TRUE(RunOne("intention-before-mutate", in).empty());
}

TEST(IntentionBeforeMutate, OnlyAppliesToFileServer) {
  LintInput in;
  in.files.push_back(LexFixture("intention_bad.cc", "src/vice/other.cc"));
  EXPECT_TRUE(RunOne("intention-before-mutate", in).empty());
}

TEST(OpcodeSync, QuietWhenEnumSchemaAndDocAgree) {
  LintInput in;
  in.files.push_back(LexFixture("opcode_good_protocol.h", "src/vice/protocol.h"));
  in.files.push_back(LexFixture("opcode_good_protocol.cc", "src/vice/protocol.cc"));
  in.protocol_md = ReadFixture("opcode_good.md");
  EXPECT_TRUE(RunOne("opcode-sync", in).empty());
}

TEST(OpcodeSync, FiresOnEveryKindOfDrift) {
  LintInput in;
  in.files.push_back(LexFixture("opcode_bad_protocol.h", "src/vice/protocol.h"));
  in.files.push_back(LexFixture("opcode_bad_protocol.cc", "src/vice/protocol.cc"));
  in.protocol_md = ReadFixture("opcode_bad.md");
  const auto diags = RunOne("opcode-sync", in);
  // kGetTime registered as "Clock", kRemove with no schema entry, the doc
  // missing op 2, and the doc listing stale op 12.
  EXPECT_EQ(diags.size(), 4u);
  std::set<std::string> messages;
  for (const Diagnostic& d : diags) messages.insert(d.message);
  bool saw_name = false, saw_missing_schema = false, saw_doc_missing = false,
       saw_doc_stale = false;
  for (const std::string& m : messages) {
    if (m.find("named \"Clock\"") != std::string::npos) saw_name = true;
    if (m.find("kRemove has no OpSchema entry") != std::string::npos)
      saw_missing_schema = true;
    if (m.find("missing op 2") != std::string::npos) saw_doc_missing = true;
    if (m.find("lists op 12") != std::string::npos) saw_doc_stale = true;
  }
  EXPECT_TRUE(saw_name);
  EXPECT_TRUE(saw_missing_schema);
  EXPECT_TRUE(saw_doc_missing);
  EXPECT_TRUE(saw_doc_stale);
}

TEST(SimDeterminism, FiresOutsideSim) {
  LintInput in;
  in.files.push_back(LexFixture("determinism_bad.cc"));
  const auto diags = RunOne("sim-determinism", in);
  EXPECT_EQ(diags.size(), 3u) << "system_clock, time(), rand()";
}

TEST(SimDeterminism, QuietOnSimLayerAndAccessors) {
  LintInput in;
  in.files.push_back(LexFixture("determinism_good.cc"));
  EXPECT_TRUE(RunOne("sim-determinism", in).empty());
}

TEST(SimDeterminism, ExemptsSimDirectory) {
  LintInput in;
  in.files.push_back(LexFixture("determinism_bad.cc", "src/sim/clock.cc"));
  EXPECT_TRUE(RunOne("sim-determinism", in).empty());
}

TEST(ResourceServeOutsideKernel, FiresOnDirectServeCalls) {
  LintInput in;
  in.files.push_back(LexFixture("resource_serve_bad.cc"));
  const auto diags = RunOne("resource-serve-outside-kernel", in);
  EXPECT_EQ(diags.size(), 2u) << "cpu.Serve and disk->Serve";
  for (const Diagnostic& d : diags) {
    EXPECT_NE(d.message.find("sim::Charge"), std::string::npos);
  }
}

TEST(ResourceServeOutsideKernel, QuietOnChargeAndUnrelatedServes) {
  LintInput in;
  in.files.push_back(LexFixture("resource_serve_good.cc"));
  EXPECT_TRUE(RunOne("resource-serve-outside-kernel", in).empty());
}

TEST(ResourceServeOutsideKernel, ExemptsSimDirectory) {
  LintInput in;
  in.files.push_back(LexFixture("resource_serve_bad.cc", "src/sim/kernel.cc"));
  EXPECT_TRUE(RunOne("resource-serve-outside-kernel", in).empty());
}

TEST(NoAllocInKernelHotPath, FiresOnAllocationsInRunAndDispatch) {
  LintInput in;
  in.files.push_back(LexFixture("alloc_hot_bad.cc", "src/sim/kernel.cc"));
  const auto diags = RunOne("no-alloc-in-kernel-hot-path", in);
  EXPECT_EQ(diags.size(), 4u) << "new, push_back, make_unique, insert";
  bool saw_new = false, saw_growth = false, saw_make_unique = false;
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.rule, "no-alloc-in-kernel-hot-path");
    if (d.message.find("'new'") != std::string::npos) saw_new = true;
    if (d.message.find("container growth") != std::string::npos) saw_growth = true;
    if (d.message.find("make_unique") != std::string::npos) saw_make_unique = true;
  }
  EXPECT_TRUE(saw_new);
  EXPECT_TRUE(saw_growth);
  EXPECT_TRUE(saw_make_unique);
}

TEST(NoAllocInKernelHotPath, QuietOnPresizedWritesAndSuppressedColdPath) {
  LintInput in;
  in.files.push_back(LexFixture("alloc_hot_good.cc", "src/sim/kernel.cc"));
  EXPECT_TRUE(RunOne("no-alloc-in-kernel-hot-path", in).empty());
}

TEST(VfsDispatchOnly, FiresOnDirectVenusAndBaselineClientUse) {
  LintInput in;
  in.files.push_back(LexFixture("vfs_dispatch_bad.cc", "src/virtue/workstation.cc"));
  const auto diags = RunOne("vfs-dispatch-only", in);
  EXPECT_EQ(diags.size(), 4u) << "Open, Close, Stat, RemoteOpenClient";
  bool saw_client = false, saw_op = false;
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.rule, "vfs-dispatch-only");
    if (d.message.find("RemoteOpenClient") != std::string::npos) saw_client = true;
    if (d.message.find("vfs::Switch") != std::string::npos) saw_op = true;
  }
  EXPECT_TRUE(saw_client);
  EXPECT_TRUE(saw_op);
}

TEST(VfsDispatchOnly, QuietOnControlPlaneAndSwitchDispatch) {
  LintInput in;
  in.files.push_back(LexFixture("vfs_dispatch_good.cc", "src/virtue/workstation.cc"));
  EXPECT_TRUE(RunOne("vfs-dispatch-only", in).empty());
}

TEST(VfsDispatchOnly, ExemptsMountBackendsVenusAndBaseline) {
  LintInput in;
  in.files.push_back(LexFixture("vfs_dispatch_bad.cc", "src/virtue/vfs/venus_mount.cc"));
  in.files.push_back(LexFixture("vfs_dispatch_bad.cc", "src/venus/venus.cc"));
  in.files.push_back(LexFixture("vfs_dispatch_bad.cc", "src/baseline/remote_open.cc"));
  EXPECT_TRUE(RunOne("vfs-dispatch-only", in).empty());
}

TEST(AssertSideEffect, FiresOnMutatingConditions) {
  LintInput in;
  in.files.push_back(LexFixture("assert_bad.cc"));
  const auto diags = RunOne("assert-side-effect", in);
  EXPECT_EQ(diags.size(), 2u) << "n-- and queue[0] = 1";
}

TEST(AssertSideEffect, QuietOnPureConditions) {
  LintInput in;
  in.files.push_back(LexFixture("assert_good.cc"));
  EXPECT_TRUE(RunOne("assert-side-effect", in).empty());
}

TEST(AssertInHeader, FiresOnAnyHeaderAssert) {
  LintInput in;
  in.files.push_back(LexFixture("assert_header_bad.h"));
  const auto diags = RunOne("assert-in-header", in);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("ITC_CHECK"), std::string::npos);
}

TEST(AssertInHeader, QuietOnItcCheckAndSourceFiles) {
  LintInput in;
  in.files.push_back(LexFixture("assert_header_good.h"));
  // assert in a .cc is allowed (only the side-effect rule applies there).
  in.files.push_back(LexFixture("assert_good.cc"));
  EXPECT_TRUE(RunOne("assert-in-header", in).empty());
}

TEST(Suppression, AllowCommentSilencesMatchingRuleOnly) {
  LintInput in;
  in.files.push_back(LexFixture("suppressed.cc"));
  const auto diags = RunOne("sim-determinism", in);
  // Stamp and Stamp2 are suppressed (trailing comment / line above);
  // Stamp3 names the wrong rule id, so it still fires.
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].line, 0);
  EXPECT_EQ(diags[0].rule, "sim-determinism");
}

TEST(Lexer, CommentsAndStringsProduceNoTokens) {
  LexedFile f = Lex("src/x.cc", "// assert(a++)\n/* rand() */ \"time(0)\" x;\n");
  ASSERT_EQ(f.tokens.size(), 3u);
  EXPECT_EQ(f.tokens[0].kind, TokKind::kString);
  EXPECT_EQ(f.tokens[1].text, "x");
  EXPECT_EQ(f.tokens[2].text, ";");
}

TEST(Lexer, RawStringsAndLineNumbers) {
  LexedFile f = Lex("src/x.cc", "auto s = R\"(rand()\nassert(i++))\";\nint y;\n");
  // No sim-determinism or assert tokens leak out of the raw string, and the
  // token after it sits on the right line.
  bool saw_rand = false;
  for (const Token& t : f.tokens) {
    if (t.kind != TokKind::kString && t.text == "rand") saw_rand = true;
    if (t.text == "y") {
      EXPECT_EQ(t.line, 3);
    }
  }
  EXPECT_FALSE(saw_rand);
}

TEST(NoRawLeaseTerm, FiresOnNumericDurationsNearLeaseIdentifiers) {
  LintInput in;
  in.files.push_back(LexFixture("lease_term_bad.cc", "src/vice/callback_manager.cc"));
  const auto diags = RunOne("no-raw-lease-term", in);
  EXPECT_EQ(diags.size(), 5u) << "expiry, embargo, renewal margin, server embargo and renewal";
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.rule, "no-raw-lease-term");
    EXPECT_NE(d.message.find("kLeaseTerm"), std::string::npos);
  }
}

TEST(NoRawLeaseTerm, QuietOnConfiguredDurationsAndUnrelatedLiterals) {
  LintInput in;
  in.files.push_back(LexFixture("lease_term_good.cc", "src/vice/callback_manager.cc"));
  EXPECT_TRUE(RunOne("no-raw-lease-term", in).empty());
}

TEST(NoRawLeaseTerm, ExemptsTheTwoConfigDefaultSites) {
  // The two constants are the one sanctioned literal spelling of each
  // duration: the server term and the client renewal margin.
  LintInput in;
  in.files.push_back(LexFixture("lease_term_bad.cc", "src/vice/file_server.h"));
  in.files.push_back(LexFixture("lease_term_bad.cc", "src/venus/config.h"));
  EXPECT_TRUE(RunOne("no-raw-lease-term", in).empty());
}

TEST(NoEagerContents, FiresOnSynthesizeAndPopulateMaterialize) {
  LintInput in;
  in.files.push_back(LexFixture("eager_contents_bad.cc"));
  const auto diags = RunOne("no-eager-contents", in);
  EXPECT_EQ(diags.size(), 2u) << "SynthesizeContents call + Materialize in populate";
  for (const Diagnostic& d : diags) EXPECT_EQ(d.rule, "no-eager-contents");
}

TEST(NoEagerContents, QuietOnRefsSuppressionsAndTransientMaterialize) {
  LintInput in;
  in.files.push_back(LexFixture("eager_contents_good.cc"));
  EXPECT_TRUE(RunOne("no-eager-contents", in).empty());
}

TEST(NoEagerContents, ExemptsContentAndSourceTreeModules) {
  // The delegating definition (and the content module itself) is where
  // materialization is the module's job.
  LintInput in;
  in.files.push_back(LexFixture("eager_contents_bad.cc", "src/workload/source_tree.cc"));
  in.files.push_back(LexFixture("eager_contents_bad.cc", "src/common/content.cc"));
  EXPECT_TRUE(RunOne("no-eager-contents", in).empty());
}

// --- v2: symbol index + call graph -------------------------------------------

TEST(SymbolIndexer, FindsMembersQualifiedDefsAndDeclMarkers) {
  LintInput in;
  in.files.push_back(Lex(
      "src/x.cc",
      "class A {\n"
      " public:\n"
      "  void M() { x_ = 1; }\n"
      "  ITC_KERNEL_ENTRY void E();\n"
      " private:\n"
      "  ITC_OWNED_BY_KERNEL int x_ = 0;\n"
      "};\n"
      "void A::E() { M(); }\n"
      "static int Free(int v) { return v; }\n"));
  const SymbolIndex idx = BuildIndex(in.files);
  ASSERT_EQ(idx.functions.size(), 3u);
  bool saw_m = false, saw_e = false, saw_free = false;
  for (const FunctionDef& f : idx.functions) {
    if (f.Qualified() == "A::M") saw_m = true;
    if (f.Qualified() == "A::E") {
      saw_e = true;
      // The marker sits on the in-class declaration; it must transfer to the
      // out-of-line definition.
      EXPECT_TRUE(f.entry);
    }
    if (f.Qualified() == "Free") saw_free = true;
  }
  EXPECT_TRUE(saw_m && saw_e && saw_free);
  ASSERT_EQ(idx.owned.size(), 1u);
  EXPECT_EQ(idx.owned[0].cls, "A");
  EXPECT_EQ(idx.owned[0].name, "x_");
}

TEST(SymbolIndexer, PreprocessorBracesDoNotDesyncScopes) {
  LintInput in;
  in.files.push_back(Lex(
      "src/x.cc",
      "#define CHECK(c) do { if (!(c)) { abort(); } } while (false)\n"
      "class B {\n"
      " public:\n"
      "  void F() { CHECK(1); }\n"
      "};\n"));
  const SymbolIndex idx = BuildIndex(in.files);
  ASSERT_EQ(idx.functions.size(), 1u);
  EXPECT_EQ(idx.functions[0].Qualified(), "B::F");
}

TEST(CallGraph, ReceiverHintPrunesAndBareCallsResolve) {
  LintInput in;
  in.files.push_back(Lex(
      "src/x.cc",
      "class Fiber { public: void Start() {} };\n"
      "class Workload { public: void Start() {} };\n"
      "class Kernel {\n"
      " public:\n"
      "  void Run() {\n"
      "    fiber_.Start();\n"
      "    Helper();\n"
      "  }\n"
      "  void Helper() {}\n"
      "  Fiber fiber_;\n"
      "};\n"));
  const SymbolIndex idx = BuildIndex(in.files);
  const CallGraph g = BuildCallGraph(idx);
  size_t run = idx.functions.size(), fiber_start = run, workload_start = run,
         helper = run;
  for (size_t i = 0; i < idx.functions.size(); ++i) {
    const std::string q = idx.functions[i].Qualified();
    if (q == "Kernel::Run") run = i;
    if (q == "Fiber::Start") fiber_start = i;
    if (q == "Workload::Start") workload_start = i;
    if (q == "Kernel::Helper") helper = i;
  }
  ASSERT_LT(run, idx.functions.size());
  // `fiber_.Start()` resolves to Fiber::Start — and NOT to Workload::Start,
  // which merely shares the method name.
  EXPECT_EQ(g.callees[run].count(fiber_start), 1u);
  EXPECT_EQ(g.callees[run].count(workload_start), 0u);
  EXPECT_EQ(g.callees[run].count(helper), 1u);
}

TEST(KernelOwnership, FiresOnUnreachableMethodsTouchingOwnedState) {
  LintInput in;
  in.files.push_back(LexFixture("ownership_bad.h"));
  const auto diags = RunOne("kernel-ownership", in);
  EXPECT_EQ(diags.size(), 2u) << "Rogue/ticks_ and Peek/log_";
  bool saw_rogue = false, saw_peek = false;
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.rule, "kernel-ownership");
    if (d.message.find("Kern::Rogue") != std::string::npos) saw_rogue = true;
    if (d.message.find("Kern::Peek") != std::string::npos) saw_peek = true;
  }
  EXPECT_TRUE(saw_rogue);
  EXPECT_TRUE(saw_peek);
}

TEST(KernelOwnership, QuietOnSanctionedAccessCtorsAndUnrelatedClasses) {
  LintInput in;
  in.files.push_back(LexFixture("ownership_good.h"));
  EXPECT_TRUE(RunOne("kernel-ownership", in).empty());
}

TEST(KernelOwnership, FiresOnUnwaivedTouchOfShardState) {
  LintInput in;
  in.files.push_back(LexFixture("ownership_shard_bad.h"));
  const auto diags = RunOne("kernel-ownership", in);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("Endpoint::Rogue"), std::string::npos);
  EXPECT_NE(diags[0].message.find("ITC_OWNED_BY_SHARD"), std::string::npos);
  EXPECT_NE(diags[0].message.find("ITC_SHARD_FOREIGN"), std::string::npos)
      << "the shard message must name the waiver escape hatch";
}

TEST(KernelOwnership, ShardForeignWaiverCoversDeclaredCrossShardTouches) {
  LintInput in;
  in.files.push_back(LexFixture("ownership_shard_good.h"));
  EXPECT_TRUE(RunOne("kernel-ownership", in).empty());
}

TEST(KernelOwnership, ShardForeignDoesNotWaivePlainKernelState) {
  // Same class, but the foreign method touches ITC_OWNED_BY_KERNEL state:
  // the waiver is specific to per-shard members.
  LintInput in;
  in.files.push_back(Lex("src/fixture/ownership_mixed.h", R"(
class Mixed {
 public:
  ITC_KERNEL_ENTRY void Handle() { a_++; b_++; }
  ITC_SHARD_FOREIGN void Close() { a_ = 0; b_ = 0; }
 private:
  ITC_OWNED_BY_SHARD int a_ = 0;
  ITC_OWNED_BY_KERNEL int b_ = 0;
};
)"));
  const auto diags = RunOne("kernel-ownership", in);
  ASSERT_EQ(diags.size(), 1u) << "only the kernel-owned member b_ fires";
  EXPECT_NE(diags[0].message.find("'b_'"), std::string::npos);
  EXPECT_NE(diags[0].message.find("Mixed::Close"), std::string::npos);
}

TEST(NoAllocTransitive, FiresOnRootBodiesAndReachableHelpers) {
  LintInput in;
  in.files.push_back(LexFixture("alloc_transitive_bad.cc"));
  const auto diags = RunOne("no-alloc-in-kernel-hot-path", in);
  EXPECT_EQ(diags.size(), 4u) << "Run's and Dispatch's push_back, Pump's new, Park's push_back";
  std::set<std::string> culprits;
  for (const Diagnostic& d : diags) {
    for (const char* fn : {"'Kernel::Run'", "'Kernel::Dispatch'", "'Kernel::Pump'",
                           "'Kernel::Park'"}) {
      if (d.message.find(fn) != std::string::npos) culprits.insert(fn);
    }
  }
  EXPECT_EQ(culprits.size(), 4u) << "each body fires once";
}

TEST(NoAllocTransitive, QuietOnPresizedWritesSuppressionsAndUnreachableCode) {
  LintInput in;
  in.files.push_back(LexFixture("alloc_transitive_good.cc"));
  EXPECT_TRUE(RunOne("no-alloc-in-kernel-hot-path", in).empty());
}

TEST(SimDeterminismTransitive, TaintPropagatesThroughHelpers) {
  LintInput in;
  in.files.push_back(LexFixture("det_transitive_bad.cc"));
  const auto diags = RunOne("sim-determinism-transitive", in);
  // Uptime -> WallSeconds, Doubly -> Uptime, Launder -> Sneaky: the direct-
  // rule-only suppression on Sneaky does not sanction it for callers.
  EXPECT_EQ(diags.size(), 3u);
  bool saw_wall = false, saw_uptime = false, saw_sneaky = false;
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.rule, "sim-determinism-transitive");
    if (d.message.find("'WallSeconds'") != std::string::npos) saw_wall = true;
    if (d.message.find("'Uptime'") != std::string::npos) saw_uptime = true;
    if (d.message.find("'Sneaky'") != std::string::npos) saw_sneaky = true;
  }
  EXPECT_TRUE(saw_wall);
  EXPECT_TRUE(saw_uptime);
  EXPECT_TRUE(saw_sneaky);
}

TEST(SimDeterminismTransitive, OwnAllowOnBannedLineSanctionsTheWrapper) {
  LintInput in;
  in.files.push_back(LexFixture("det_transitive_good.cc"));
  EXPECT_TRUE(RunOne("sim-determinism-transitive", in).empty());
}

TEST(SimDeterminismTransitive, ExemptFilesNeitherSeedNorGetDiagnosed) {
  LintInput in;
  in.files.push_back(LexFixture("det_transitive_bad.cc", "src/sim/clock_util.cc"));
  EXPECT_TRUE(RunOne("sim-determinism-transitive", in).empty());
}

TEST(StaleSuppression, FullRunFlagsTyposUnusedAllowsAndUnusedAllowAll) {
  LintInput in;
  in.files.push_back(LexFixture("stale_bad.cc"));
  const auto diags = RunRules(in, {});
  EXPECT_EQ(diags.size(), 3u);
  bool saw_unknown = false, saw_unused = false, saw_all = false;
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.rule, "stale-suppression");
    if (d.message.find("unknown rule 'sim-determinsm'") != std::string::npos)
      saw_unknown = true;
    if (d.message.find("'allow(sim-determinism)' suppresses nothing") !=
        std::string::npos)
      saw_unused = true;
    if (d.message.find("'allow(all)'") != std::string::npos) saw_all = true;
  }
  EXPECT_TRUE(saw_unknown);
  EXPECT_TRUE(saw_unused);
  EXPECT_TRUE(saw_all);
}

TEST(StaleSuppression, PartialRunOnlyJudgesRulesThatRan) {
  LintInput in;
  in.files.push_back(LexFixture("stale_bad.cc"));
  // stale-suppression alone: the unknown id is still an error (it can never
  // become useful), but allow(sim-determinism) and allow(all) cannot be
  // judged without their rules running.
  const auto diags = RunRules(in, {"stale-suppression"});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("unknown rule"), std::string::npos);
}

TEST(StaleSuppression, QuietWhenEveryAllowEarnsItsKeep) {
  LintInput in;
  in.files.push_back(LexFixture("stale_good.cc"));
  EXPECT_TRUE(RunRules(in, {}).empty());
}

TEST(RuleDocSync, QuietWhenDocsMatchRegistry) {
  LintInput in;
  std::string md = "# itcfs-lint\n";
  for (const std::string& r : AllRules()) md += "### `" + r + "`\ntext\n";
  in.lint_md = md;
  EXPECT_TRUE(RunOne("rule-doc-sync", in).empty());
}

TEST(RuleDocSync, FiresOnMissingAndStaleSections) {
  LintInput in;
  std::string md = "# itcfs-lint\n### `no-such-rule`\n";
  for (const std::string& r : AllRules()) {
    if (r != "opcode-sync") md += "### `" + r + "`\n";
  }
  in.lint_md = md;
  const auto diags = RunOne("rule-doc-sync", in);
  EXPECT_EQ(diags.size(), 2u);
  bool saw_missing = false, saw_stale = false;
  for (const Diagnostic& d : diags) {
    if (d.message.find("'opcode-sync' has no") != std::string::npos) saw_missing = true;
    if (d.message.find("'no-such-rule'") != std::string::npos) saw_stale = true;
  }
  EXPECT_TRUE(saw_missing);
  EXPECT_TRUE(saw_stale);
}

TEST(RuleDocSync, SkippedWhenDocsAbsent) {
  LintInput in;  // lint_md empty: fixture-driven unit runs have no docs
  EXPECT_TRUE(RunOne("rule-doc-sync", in).empty());
}

// --- v2: lexer hardening -----------------------------------------------------

TEST(Lexer, PreprocessorTokensAreFlaggedAcrossContinuations) {
  LexedFile f = Lex("src/x.cc", "#define FOO \\\n  bar(1)\nint x;\n");
  bool saw_bar = false;
  for (const Token& t : f.tokens) {
    if (t.text == "bar") {
      saw_bar = true;
      EXPECT_TRUE(t.pp);
    }
    if (t.text == "x") {
      EXPECT_FALSE(t.pp);
      EXPECT_EQ(t.line, 3);
    }
  }
  EXPECT_TRUE(saw_bar);
}

TEST(Lexer, LineCommentContinuationSwallowsTheNextLine) {
  LexedFile f = Lex("src/x.cc", "// comment \\\nstill comment rand()\nint z;\n");
  ASSERT_GE(f.tokens.size(), 2u);
  EXPECT_EQ(f.tokens[0].text, "int");
  EXPECT_EQ(f.tokens[1].text, "z");
  EXPECT_EQ(f.tokens[1].line, 3);
}

TEST(Lexer, CustomDelimiterRawStringsAndMalformedFallback) {
  LexedFile f = Lex("src/x.cc", "auto s = R\"x(rand())x\"; int y;\n");
  for (const Token& t : f.tokens) {
    if (t.kind != TokKind::kString) {
      EXPECT_NE(t.text, "rand");
    }
  }
  // A delimiter longer than 16 chars is not a raw string; the lexer must not
  // crash or swallow the rest of the file.
  LexedFile g = Lex("src/x.cc",
                    "auto t = R\"aaaaaaaaaaaaaaaaaaaa(x)\"; int w;\n");
  bool saw_w = false;
  for (const Token& t : g.tokens) {
    if (t.text == "w") saw_w = true;
  }
  EXPECT_TRUE(saw_w);
}

TEST(Lexer, OperatorCallAndQualifiedNamesSurviveIndexing) {
  LintInput in;
  in.files.push_back(Lex("src/x.cc",
                         "struct EventAfter {\n"
                         "  bool operator()(int a, int b) const { return a > b; }\n"
                         "};\n"
                         "bool Cmp::operator<(const Cmp& o) const { return true; }\n"));
  const SymbolIndex idx = BuildIndex(in.files);
  bool saw_call = false, saw_less = false;
  for (const FunctionDef& fd : idx.functions) {
    if (fd.Qualified() == "EventAfter::operator()") saw_call = true;
    if (fd.Qualified() == "Cmp::operator<") saw_less = true;
  }
  EXPECT_TRUE(saw_call);
  EXPECT_TRUE(saw_less);
}

TEST(Cli, AllRulesHaveStableIds) {
  EXPECT_EQ(AllRules().size(), 16u);
  EXPECT_EQ(AllRules().count("nodiscard-status"), 1u);
  EXPECT_EQ(AllRules().count("no-eager-contents"), 1u);
  EXPECT_EQ(AllRules().count("opcode-sync"), 1u);
  EXPECT_EQ(AllRules().count("resource-serve-outside-kernel"), 1u);
  EXPECT_EQ(AllRules().count("no-alloc-in-kernel-hot-path"), 1u);
  EXPECT_EQ(AllRules().count("vfs-dispatch-only"), 1u);
  EXPECT_EQ(AllRules().count("no-raw-lease-term"), 1u);
  EXPECT_EQ(AllRules().count("kernel-ownership"), 1u);
  EXPECT_EQ(AllRules().count("no-alloc-in-kernel-hot-path-transitive"), 0u);
  EXPECT_EQ(AllRules().count("sim-determinism-transitive"), 1u);
  EXPECT_EQ(AllRules().count("stale-suppression"), 1u);
  EXPECT_EQ(AllRules().count("rule-doc-sync"), 1u);
}

}  // namespace
}  // namespace itc::lint
