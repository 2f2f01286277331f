#include "tools/lint/rules.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "tools/lint/callgraph.h"
#include "tools/lint/symbols.h"

namespace itc::lint {

namespace {

using Toks = std::vector<Token>;

bool Is(const Toks& t, size_t i, std::string_view text) {
  return i < t.size() && t[i].text == text;
}
bool IsIdent(const Toks& t, size_t i) {
  return i < t.size() && t[i].kind == TokKind::kIdent;
}

// Index just past the `)`/`}`/`]`/`>` matching the opener at `i`. Angle
// scans treat `>>` as two closers (nested template args). Returns t.size()
// on unbalanced input.
size_t SkipBalanced(const Toks& t, size_t i, std::string_view open, std::string_view close) {
  int depth = 0;
  for (; i < t.size(); ++i) {
    if (t[i].text == open) {
      ++depth;
    } else if (t[i].text == close) {
      if (--depth == 0) return i + 1;
    } else if (open == "<" && t[i].text == ">>") {
      depth -= 2;
      if (depth <= 0) return i + 1;
    }
  }
  return t.size();
}

// Index of the opener matching the closer at `i`, or npos.
size_t MatchBack(const Toks& t, size_t i, std::string_view open, std::string_view close) {
  int depth = 0;
  for (size_t j = i + 1; j-- > 0;) {
    if (t[j].text == close) {
      ++depth;
    } else if (t[j].text == open) {
      if (--depth == 0) return j;
    }
  }
  return static_cast<size_t>(-1);
}

const std::set<std::string>& DeclQualifiers() {
  static const std::set<std::string> q = {"virtual",   "static", "inline",
                                          "constexpr", "explicit", "friend"};
  return q;
}

// Tokens that can legitimately precede the start of a member/free function
// declaration (after attributes and qualifiers have been skipped).
bool AtDeclPosition(const Toks& t, size_t i) {
  if (i == 0) return true;
  const std::string& p = t[i - 1].text;
  return p == ";" || p == "{" || p == "}" || p == ":" || p == ">";
}

struct Decl {
  std::string base_type;  // last identifier of the return type's base
  std::string name;
  int line = 0;        // line of the return type token
  bool nodiscard = false;
};

// Walks back from the return type over qualifiers and attribute blocks.
// Sets `nodiscard` if any [[...]] block mentions it; returns the index of
// the first token of the declaration (for the decl-position test).
size_t ScanDeclPrefix(const Toks& t, size_t i, bool* nodiscard) {
  *nodiscard = false;
  while (i > 0) {
    const Token& p = t[i - 1];
    if (p.kind == TokKind::kIdent && DeclQualifiers().count(p.text) > 0) {
      --i;
      continue;
    }
    if (p.text == "]" && i >= 2 && t[i - 2].text == "]") {
      // [[ ... ]] attribute block; MatchBack counts both closers, so it
      // lands on the outermost `[`.
      size_t open = MatchBack(t, i - 1, "[", "]");
      if (open == static_cast<size_t>(-1) || !Is(t, open + 1, "[")) break;
      for (size_t k = open; k < i; ++k) {
        if (t[k].text == "nodiscard") *nodiscard = true;
      }
      i = open;
      continue;
    }
    break;
  }
  return i;
}

// Tries to parse a function declaration whose return type starts at `i`:
//   qualifiers? attr? TypeName(::TypeName)*(<...>)?[*&]* Name (
// Returns the declaration, or nullopt. Only the pieces the rules need.
std::optional<Decl> ParseDecl(const Toks& t, size_t i) {
  if (!IsIdent(t, i)) return std::nullopt;
  // A qualifier is never the type itself; the scan starting at the type
  // token handles `virtual Status Sync(...)` (avoids double-counting).
  if (DeclQualifiers().count(t[i].text) > 0) return std::nullopt;
  // Keywords that start a statement, not a return type — `return Flush();`
  // must not register Flush as a void-returning declaration.
  static const std::set<std::string> kNotATypeStart = {
      "return", "else",  "new",   "delete",  "throw",    "goto",
      "case",   "do",    "break", "continue", "co_return", "co_await",
      "co_yield", "using", "typedef", "sizeof"};
  if (kNotATypeStart.count(t[i].text) > 0) return std::nullopt;
  Decl d;
  d.line = t[i].line;
  size_t first = ScanDeclPrefix(t, i, &d.nodiscard);
  if (!AtDeclPosition(t, first)) return std::nullopt;

  size_t k = i;
  std::string last_type;
  const size_t limit = std::min(t.size(), i + 64);
  while (k < limit) {
    if (IsIdent(t, k)) {
      if (!last_type.empty() && Is(t, k + 1, "(")) {
        d.base_type = last_type;
        d.name = t[k].text;
        return d;
      }
      last_type = t[k].text;
      ++k;
    } else if (Is(t, k, "::")) {
      ++k;
    } else if (Is(t, k, "<")) {
      k = SkipBalanced(t, k, "<", ">");
    } else if (Is(t, k, "*") || Is(t, k, "&") || Is(t, k, "&&")) {
      ++k;
    } else {
      return std::nullopt;
    }
  }
  return std::nullopt;
}

// Which Suppression records earned their keep this run, keyed by
// (suppression index, rule id actually silenced). Consulted afterwards by
// stale-suppression: an allow() that silenced nothing is itself an error.
struct SuppressionUsage {
  std::map<const LexedFile*, std::set<std::pair<size_t, std::string>>> used;

  void Mark(const LexedFile& f, size_t idx, const std::string& rule) {
    used[&f].insert({idx, rule});
  }
  // rule == "" asks "used for anything at all?" (the allow(all) case).
  bool UsedFor(const LexedFile& f, size_t idx, const std::string& rule) const {
    auto it = used.find(&f);
    if (it == used.end()) return false;
    if (!rule.empty()) return it->second.count({idx, rule}) > 0;
    auto lo = it->second.lower_bound({idx, ""});
    return lo != it->second.end() && lo->first == idx;
  }
};

SuppressionUsage* g_usage = nullptr;  // live for the duration of RunRules

void Emit(std::vector<Diagnostic>& out, const LexedFile& f, int line,
          const std::string& rule, std::string message) {
  const std::vector<size_t> allows = f.AllowIndices(line, rule);
  if (!allows.empty()) {
    if (g_usage != nullptr) {
      for (size_t idx : allows) g_usage->Mark(f, idx, rule);
    }
    return;
  }
  out.push_back({f.path, line, rule, std::move(message)});
}

// --- nodiscard-status + declaration harvest ---------------------------------------

struct DeclIndex {
  std::set<std::string> status_returning;  // names declared returning Status/Result
  std::set<std::string> other_returning;   // names declared returning anything else
};

bool ReturnsStatus(const Decl& d) {
  return d.base_type == "Status" || d.base_type == "Result";
}

void CheckNodiscardAndHarvest(const LexedFile& f, DeclIndex& index, bool check,
                              std::vector<Diagnostic>& out) {
  const Toks& t = f.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    std::optional<Decl> d = ParseDecl(t, i);
    if (!d.has_value()) continue;
    if (ReturnsStatus(*d)) {
      index.status_returning.insert(d->name);
      if (check && !d->nodiscard) {
        Emit(out, f, d->line, "nodiscard-status",
             "'" + d->name + "' returns " + d->base_type +
                 " but is not [[nodiscard]]; a caller can silently drop the error");
      }
    } else {
      index.other_returning.insert(d->name);
    }
  }
}

// --- discarded-status ----------------------------------------------------------------

// Walks back from the called identifier over an `a.b()->c(` style chain.
// Returns the index of the chain's first token.
size_t ChainStart(const Toks& t, size_t i) {
  while (i > 0) {
    const std::string& p = t[i - 1].text;
    if (p == "." || p == "->" || p == "::") {
      if (i >= 2 && IsIdent(t, i - 2)) {
        i -= 2;
        continue;
      }
      if (i >= 2 && (t[i - 2].text == ")" || t[i - 2].text == "]")) {
        const char* open = t[i - 2].text == ")" ? "(" : "[";
        const char* close = t[i - 2].text == ")" ? ")" : "]";
        size_t o = MatchBack(t, i - 2, open, close);
        if (o == static_cast<size_t>(-1)) return i;
        if (o > 0 && IsIdent(t, o - 1)) {
          i = o - 1;
          continue;
        }
        return o;
      }
    }
    return i;
  }
  return i;
}

// True if the token before `start` makes this a statement-position
// expression (whose value is necessarily discarded).
bool AtStatementPosition(const Toks& t, size_t start) {
  if (start == 0) return true;
  const std::string& p = t[start - 1].text;
  // `:` is deliberately absent: it usually marks a ternary branch
  // (`x ? a() : b()`), not a case label, and the rule must not false-fire.
  if (p == ";" || p == "{" || p == "}" || p == "else" || p == "do") return true;
  if (p == ")") {
    // `if (...) Call();` — the paren must close a control-flow condition.
    size_t o = MatchBack(t, start - 1, "(", ")");
    if (o == static_cast<size_t>(-1) || o == 0) return false;
    const std::string& kw = t[o - 1].text;
    return kw == "if" || kw == "for" || kw == "while" || kw == "switch";
  }
  return false;
}

void CheckDiscardedCalls(const LexedFile& f, const DeclIndex& index,
                         std::vector<Diagnostic>& out) {
  const Toks& t = f.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (!IsIdent(t, i) || !Is(t, i + 1, "(")) continue;
    const std::string& name = t[i].text;
    if (index.status_returning.count(name) == 0) continue;
    // A name that is also declared with a non-Status return somewhere is
    // ambiguous at token level; skip it rather than guess.
    if (index.other_returning.count(name) > 0) continue;
    const size_t start = ChainStart(t, i);
    if (!AtStatementPosition(t, start)) continue;
    const size_t after = SkipBalanced(t, i + 1, "(", ")");
    if (!Is(t, after, ";")) continue;
    Emit(out, f, t[i].line, "discarded-status",
         "result of '" + name +
             "' (returns Status/Result) is discarded; handle it, propagate it, or "
             "cast to (void) with a comment");
  }
}

// --- intention-before-mutate ------------------------------------------------------

const std::set<std::string>& VolumeMutators() {
  // Volume methods that change durable volume state. Advisory locks and
  // callback promises are volatile by design (§3.2) and deliberately absent.
  static const std::set<std::string> m = {
      "StoreData",  "StoreRef",   "SetMode",  "SetOwner",  "SetAcl", "CreateFile",
      "MakeDir",    "MakeSymlink", "RemoveFile", "RemoveDir",  "Rename",
      "MakeMountPoint"};
  return m;
}

void CheckIntentionBeforeMutate(const LexedFile& f, std::vector<Diagnostic>& out) {
  const Toks& t = f.tokens;
  for (size_t i = 0; i + 3 < t.size(); ++i) {
    // ViceServer::Name ( ... ) ... { body }
    if (!Is(t, i, "ViceServer") || !Is(t, i + 1, "::") || !IsIdent(t, i + 2) ||
        !Is(t, i + 3, "(")) {
      continue;
    }
    const std::string fname = t[i + 2].text;
    size_t k = SkipBalanced(t, i + 3, "(", ")");
    // Skip cv-qualifiers etc. up to the body; a `;` means just a declaration.
    while (k < t.size() && !Is(t, k, "{") && !Is(t, k, ";")) ++k;
    if (k >= t.size() || Is(t, k, ";")) continue;
    const size_t body_end = SkipBalanced(t, k, "{", "}");

    size_t first_log = body_end;
    size_t first_mutation = body_end;
    for (size_t j = k; j < body_end; ++j) {
      if (!IsIdent(t, j) || !Is(t, j + 1, "(")) continue;
      if (t[j].text == "LogIntention" && j < first_log) first_log = j;
      if (j > 0 && (t[j - 1].text == "->" || t[j - 1].text == ".") &&
          VolumeMutators().count(t[j].text) > 0 && j < first_mutation) {
        first_mutation = j;
      }
    }
    if (first_mutation < body_end && first_mutation < first_log) {
      Emit(out, f, t[first_mutation].line, "intention-before-mutate",
           "ViceServer::" + fname + " calls " + t[first_mutation].text +
               " without first appending to the IntentionLog; a crash here loses "
               "store-on-close atomicity (§3.5)");
    }
    i = body_end - 1;
  }
}

// --- opcode-sync -------------------------------------------------------------------

struct OpService {
  std::string header;     // file declaring the enum
  std::string enum_name;  // Proc / ProtectionProc
  std::string source;     // file defining the OpSchema
  std::string md_marker;  // vice-op-table / protection-op-table
};

const LexedFile* FindFile(const LintInput& in, const std::string& path) {
  for (const LexedFile& f : in.files) {
    if (f.path == path) return &f;
  }
  return nullptr;
}

// kTestAuth = 1, kGetTime = 2, ... -> {name -> {value, line}}
std::map<std::string, std::pair<uint32_t, int>> ParseEnum(const LexedFile& f,
                                                          const std::string& enum_name) {
  std::map<std::string, std::pair<uint32_t, int>> entries;
  const Toks& t = f.tokens;
  for (size_t i = 0; i + 2 < t.size(); ++i) {
    if (!Is(t, i, "enum") || !Is(t, i + 1, "class") || !Is(t, i + 2, enum_name)) continue;
    size_t k = i + 3;
    while (k < t.size() && !Is(t, k, "{")) ++k;
    const size_t end = SkipBalanced(t, k, "{", "}");
    uint32_t next = 0;
    for (size_t j = k + 1; j < end; ++j) {
      if (!IsIdent(t, j)) continue;
      uint32_t value = next;
      size_t after = j + 1;
      if (Is(t, after, "=") && after + 1 < t.size() &&
          t[after + 1].kind == TokKind::kNumber) {
        value = static_cast<uint32_t>(std::stoul(t[after + 1].text));
        after += 2;
      }
      entries[t[j].text] = {value, t[j].line};
      next = value + 1;
      // Skip to the comma ending this enumerator.
      j = after;
      while (j < end && !Is(t, j, ",")) ++j;
    }
    break;
  }
  return entries;
}

// `Op(Proc::kFetch), "Fetch"` / `op(P::kWhoAmI), "WhoAmI"` pairs.
std::vector<std::pair<std::string, std::string>> ParseSchemaPairs(const LexedFile& f) {
  std::vector<std::pair<std::string, std::string>> pairs;
  const Toks& t = f.tokens;
  for (size_t i = 0; i + 4 < t.size(); ++i) {
    if (Is(t, i, "::") && IsIdent(t, i + 1) && t[i + 1].text.rfind('k', 0) == 0 &&
        Is(t, i + 2, ")") && Is(t, i + 3, ",") && i + 4 < t.size() &&
        t[i + 4].kind == TokKind::kString) {
      pairs.emplace_back(t[i + 1].text, t[i + 4].text);
    }
  }
  return pairs;
}

// Rows of the generated markdown table: (opcode, name, md line).
struct MdRow {
  uint32_t opcode;
  std::string name;
  int line;
};

std::vector<MdRow> ParseMdTable(const std::string& md, const std::string& marker,
                                bool* found) {
  std::vector<MdRow> rows;
  *found = false;
  const std::string begin = "<!-- BEGIN GENERATED: " + marker + " -->";
  const std::string end = "<!-- END GENERATED: " + marker + " -->";
  std::istringstream in(md);
  std::string line_text;
  int line_no = 0;
  bool inside = false;
  while (std::getline(in, line_text)) {
    ++line_no;
    if (line_text.find(begin) != std::string::npos) {
      inside = true;
      *found = true;
      continue;
    }
    if (line_text.find(end) != std::string::npos) break;
    if (!inside || line_text.rfind("| ", 0) != 0) continue;
    // "| 10 | Fetch | ..." — skip the header and separator rows.
    std::istringstream cells(line_text);
    std::string bar, num, bar2, name;
    cells >> bar >> num >> bar2 >> name;
    if (num.empty() || !std::isdigit(static_cast<unsigned char>(num[0]))) continue;
    rows.push_back({static_cast<uint32_t>(std::stoul(num)), name, line_no});
  }
  return rows;
}

void CheckOpcodeSync(const LintInput& in, std::vector<Diagnostic>& out) {
  static const OpService kServices[] = {
      {"src/vice/protocol.h", "Proc", "src/vice/protocol.cc", "vice-op-table"},
      {"src/protection/protection_rpc.h", "ProtectionProc",
       "src/protection/protection_rpc.cc", "protection-op-table"},
  };
  for (const OpService& svc : kServices) {
    const LexedFile* header = FindFile(in, svc.header);
    const LexedFile* source = FindFile(in, svc.source);
    if (header == nullptr || source == nullptr) continue;
    auto enum_entries = ParseEnum(*header, svc.enum_name);
    auto schema = ParseSchemaPairs(*source);
    if (enum_entries.empty()) continue;

    std::map<std::string, std::string> schema_by_enum;  // kFetch -> "Fetch"
    for (const auto& [enum_id, name] : schema) {
      if (schema_by_enum.count(enum_id) > 0) {
        Emit(out, *source, 1, "opcode-sync",
             svc.enum_name + "::" + enum_id + " appears twice in the OpSchema");
      }
      schema_by_enum[enum_id] = name;
      auto it = enum_entries.find(enum_id);
      if (it == enum_entries.end()) {
        Emit(out, *source, 1, "opcode-sync",
             "OpSchema references " + svc.enum_name + "::" + enum_id +
                 " which is not an enumerator in " + svc.header);
      } else if ("k" + name != enum_id) {
        Emit(out, *header, it->second.second, "opcode-sync",
             svc.enum_name + "::" + enum_id + " is named \"" + name +
                 "\" in the OpSchema; enumerator and wire name must match");
      }
    }
    for (const auto& [enum_id, entry] : enum_entries) {
      if (schema_by_enum.count(enum_id) == 0) {
        Emit(out, *header, entry.second, "opcode-sync",
             svc.enum_name + "::" + enum_id + " has no OpSchema entry in " + svc.source);
      }
    }

    if (in.protocol_md.empty()) continue;
    bool found = false;
    auto rows = ParseMdTable(in.protocol_md, svc.md_marker, &found);
    if (!found) {
      out.push_back({"docs/PROTOCOL.md", 1, "opcode-sync",
                     "generated table marker '" + svc.md_marker + "' not found"});
      continue;
    }
    // Expected rows from enum+schema, in opcode order — exactly what
    // RenderOpTable emits.
    std::vector<std::pair<uint32_t, std::string>> expect;
    for (const auto& [enum_id, name] : schema) {
      auto it = enum_entries.find(enum_id);
      if (it != enum_entries.end()) expect.emplace_back(it->second.first, name);
    }
    std::sort(expect.begin(), expect.end());
    std::vector<std::pair<uint32_t, std::string>> got;
    got.reserve(rows.size());
    for (const MdRow& r : rows) got.emplace_back(r.opcode, r.name);
    if (got != expect) {
      for (const auto& [code, name] : expect) {
        if (std::find(got.begin(), got.end(), std::make_pair(code, name)) == got.end()) {
          out.push_back({"docs/PROTOCOL.md", 1, "opcode-sync",
                         "table '" + svc.md_marker + "' is missing op " +
                             std::to_string(code) + " " + name +
                             " (regenerate from RenderOpTable)"});
        }
      }
      for (const MdRow& r : rows) {
        if (std::find(expect.begin(), expect.end(),
                      std::make_pair(r.opcode, r.name)) == expect.end()) {
          out.push_back({"docs/PROTOCOL.md", r.line, "opcode-sync",
                         "table '" + svc.md_marker + "' lists op " +
                             std::to_string(r.opcode) + " " + r.name +
                             " which the OpSchema does not define"});
        }
      }
    }
  }
}

// --- sim-determinism ---------------------------------------------------------------

bool DeterminismExempt(const std::string& path) {
  return path.rfind("src/sim/", 0) == 0 || path == "src/common/rng.h";
}

struct BannedUse {
  size_t tok;       // token index of the banned identifier
  bool call;        // true for time(/rand(/clock( style direct calls
};

// All banned wall-clock/entropy uses in t[begin, end). Shared by the direct
// per-file rule and the transitive rule's seed scan.
std::vector<BannedUse> BannedDeterminismUses(const Toks& t, size_t begin, size_t end) {
  // Identifiers that smuggle in wall-clock time or ambient randomness and
  // would make two runs of the simulation diverge.
  static const std::set<std::string> banned = {
      "system_clock", "steady_clock",  "high_resolution_clock", "random_device",
      "srand",        "gettimeofday",  "clock_gettime",         "localtime",
      "gmtime",       "__DATE__",      "__TIME__",              "__TIMESTAMP__"};
  // Banned only as a direct call: `time(...)`, `rand()`. (`x.time(` is a
  // member of some unrelated class; `foo_time(` is a different identifier.)
  static const std::set<std::string> banned_calls = {"time", "rand", "clock"};
  std::vector<BannedUse> uses;
  for (size_t i = begin; i < end && i < t.size(); ++i) {
    if (!IsIdent(t, i)) continue;
    const std::string& name = t[i].text;
    if (banned.count(name) > 0) {
      uses.push_back({i, false});
      continue;
    }
    if (banned_calls.count(name) > 0 && Is(t, i + 1, "(")) {
      const bool member = i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->");
      const bool qualified = i > 0 && t[i - 1].text == "::";
      const bool std_qualified = qualified && i > 1 && t[i - 2].text == "std";
      if (member || (qualified && !std_qualified)) continue;
      // A type or `&`/`*` before the name makes this a declaration of an
      // unrelated accessor (e.g. `sim::Clock& clock()`), not a libc call.
      if (i > 0 && (t[i - 1].text == "&" || t[i - 1].text == "*" ||
                    (IsIdent(t, i - 1) && t[i - 1].text != "return"))) {
        continue;
      }
      uses.push_back({i, true});
    }
  }
  return uses;
}

void CheckSimDeterminism(const LexedFile& f, std::vector<Diagnostic>& out) {
  if (DeterminismExempt(f.path)) return;
  const Toks& t = f.tokens;
  for (const BannedUse& u : BannedDeterminismUses(t, 0, t.size())) {
    if (u.call) {
      Emit(out, f, t[u.tok].line, "sim-determinism",
           "call to '" + t[u.tok].text + "(' is nondeterministic; use sim::Clock / "
           "common/rng.h");
    } else {
      Emit(out, f, t[u.tok].line, "sim-determinism",
           "'" + t[u.tok].text + "' is nondeterministic; use sim::Clock / common/rng.h "
           "(only src/sim/ and src/common/rng.h may touch real time or entropy)");
    }
  }
}

// --- resource-serve-outside-kernel --------------------------------------------------

bool ResourceServeExempt(const std::string& path) {
  // src/sim/ is the implementation of the staged API (the kernel's Charge is
  // the one sanctioned Serve call site); everything else goes through it.
  return path.rfind("src/sim/", 0) == 0;
}

void CheckResourceServeOutsideKernel(const LexedFile& f, std::vector<Diagnostic>& out) {
  if (ResourceServeExempt(f.path)) return;
  const Toks& t = f.tokens;
  for (size_t i = 1; i < t.size(); ++i) {
    if (!IsIdent(t, i) || t[i].text != "Serve") continue;
    if (!Is(t, i + 1, "(")) continue;
    // Only member calls: `Serve` is the Resource API; a free function or a
    // declaration of the same name is something else.
    if (t[i - 1].text != "." && t[i - 1].text != "->") continue;
    Emit(out, f, t[i].line, "resource-serve-outside-kernel",
         "direct Resource::Serve bypasses the event kernel's arrival-order "
         "queueing; charge the demand through sim::Charge (src/sim/kernel.h)");
  }
}

// --- assert rules -------------------------------------------------------------------

void CheckAsserts(const LexedFile& f, bool run_side_effect, bool run_header,
                  std::vector<Diagnostic>& out) {
  static const std::set<std::string> mutating = {"++", "--", "=",  "+=",  "-=", "*=",
                                                 "/=", "%=", "&=", "|=",  "^=", "<<=",
                                                 ">>="};
  const Toks& t = f.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (!Is(t, i, "assert") || !Is(t, i + 1, "(")) continue;
    // `#define assert` or `foo.assert(` are not the C assert macro.
    if (i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->" ||
                  t[i - 1].text == "define")) {
      continue;
    }
    if (run_header && f.IsHeader()) {
      Emit(out, f, t[i].line, "assert-in-header",
           "assert() in a header is a silent no-op under the default NDEBUG "
           "build; use ITC_CHECK from src/common/logging.h");
    }
    if (run_side_effect) {
      const size_t end = SkipBalanced(t, i + 1, "(", ")");
      for (size_t j = i + 2; j + 1 < end; ++j) {
        if (t[j].kind == TokKind::kPunct && mutating.count(t[j].text) > 0) {
          Emit(out, f, t[i].line, "assert-side-effect",
               "assert() condition contains '" + t[j].text +
                   "'; the side effect vanishes under NDEBUG");
          break;
        }
      }
    }
  }
}

// --- vfs-dispatch-only --------------------------------------------------------------

bool VfsDispatchExempt(const std::string& path) {
  // The mount backends are the sanctioned adapters; Venus and the baseline
  // own their respective clients.
  return path.rfind("src/virtue/vfs/", 0) == 0 || path.rfind("src/venus/", 0) == 0 ||
         path.rfind("src/baseline/", 0) == 0;
}

const std::set<std::string>& VenusFileOps() {
  // The data-plane surface of Venus. Control-plane calls (Login, Logout,
  // user, stats, FlushCache, set_escape_predicate, ...) stay legal anywhere.
  static const std::set<std::string> ops = {
      "Open",   "Close",  "Stat",     "ReadDir",  "MkDir",   "Remove",
      "RmDir",  "Rename", "Symlink",  "ReadLink", "SetMode"};
  return ops;
}

void CheckVfsDispatchOnly(const LexedFile& f, std::vector<Diagnostic>& out) {
  if (VfsDispatchExempt(f.path)) return;
  const Toks& t = f.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    // `baseline::RemoteOpenClient` outside the sanctioned dirs: a parallel
    // remote-open universe instead of a mount-table entry.
    if (Is(t, i, "baseline") && Is(t, i + 1, "::") && Is(t, i + 2, "RemoteOpenClient")) {
      Emit(out, f, t[i].line, "vfs-dispatch-only",
           "direct use of baseline::RemoteOpenClient bypasses the VFS switch; "
           "attach a vfs::RemoteMount instead (src/virtue/vfs/remote_mount.h)");
      continue;
    }
    // `venus_->Op(` / `venus().Op(` where Op is a Venus file operation.
    size_t op = 0;
    if (Is(t, i, "venus_") && (Is(t, i + 1, "->") || Is(t, i + 1, "."))) {
      op = i + 2;
    } else if (Is(t, i, "venus") && Is(t, i + 1, "(") && Is(t, i + 2, ")") &&
               (Is(t, i + 3, ".") || Is(t, i + 3, "->"))) {
      op = i + 4;
    } else {
      continue;
    }
    if (!IsIdent(t, op) || !Is(t, op + 1, "(")) continue;
    if (VenusFileOps().count(t[op].text) == 0) continue;
    Emit(out, f, t[i].line, "vfs-dispatch-only",
         "direct Venus file operation '" + t[op].text +
             "' bypasses the VFS switch; dispatch through vfs::Switch so the "
             "mount table, escape protocol, and descriptor state stay "
             "authoritative");
  }
}

// --- no-raw-lease-term --------------------------------------------------------------

bool LeaseTermExempt(const std::string& path) {
  // The two places a lease duration is DEFINED rather than used: the server
  // term (vice::kLeaseTerm) and the client renewal margin
  // (venus::kLeaseRenewMargin). Everywhere else reads those constants.
  return path == "src/vice/file_server.h" || path == "src/venus/config.h";
}

bool IsTimeUnitCall(const Toks& t, size_t i) {
  static const std::set<std::string> units = {"Micros", "Millis", "Seconds", "Minutes"};
  return IsIdent(t, i) && units.count(t[i].text) > 0 && Is(t, i + 1, "(") &&
         i + 2 < t.size() && t[i + 2].kind == TokKind::kNumber;
}

bool IsLeaseIdent(const Toks& t, size_t i) {
  if (!IsIdent(t, i)) return false;
  std::string lower = t[i].text;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return lower.find("lease") != std::string::npos;
}

void CheckNoRawLeaseTerm(const LexedFile& f, std::vector<Diagnostic>& out) {
  if (LeaseTermExempt(f.path)) return;
  const Toks& t = f.tokens;
  // Statement granularity: a numeric time literal is a raw lease term when
  // the same `;`/`{`/`}`-delimited statement also names something lease-ish
  // (kLeaseTerm, lease_expiry, SuspendLeasesUntil-style callers spell one).
  size_t start = 0;
  for (size_t i = 0; i <= t.size(); ++i) {
    const bool boundary =
        i == t.size() || (t[i].kind == TokKind::kPunct &&
                          (t[i].text == ";" || t[i].text == "{" || t[i].text == "}"));
    if (!boundary) continue;
    int lease_line = 0;
    size_t literal_at = 0;
    for (size_t k = start; k < i; ++k) {
      if (IsLeaseIdent(t, k)) lease_line = t[k].line;
      if (IsTimeUnitCall(t, k)) literal_at = k;
    }
    if (lease_line != 0 && literal_at != 0) {
      Emit(out, f, t[literal_at].line, "no-raw-lease-term",
           "numeric time literal in a lease-term expression; lease durations "
           "come from vice::kLeaseTerm / venus::kLeaseRenewMargin so the "
           "embargo and staleness bounds track the one term");
    }
    start = i + 1;
  }
}

// --- no-eager-contents --------------------------------------------------------------

// Where materializing synthetic contents is the module's job: the content
// module itself, and the legacy SynthesizeContents definition (which now
// delegates to content::Ref and documents the transient-use contract).
bool EagerContentsExempt(const std::string& path) {
  return path == "src/common/content.h" || path == "src/common/content.cc" ||
         path == "src/workload/source_tree.h" || path == "src/workload/source_tree.cc";
}

void CheckNoEagerContents(const LexedFile& f, std::vector<Diagnostic>& out) {
  if (EagerContentsExempt(f.path)) return;
  const Toks& t = f.tokens;
  // (a) Any SynthesizeContents call materializes the full byte vector. At
  // populate scale that is exactly the ~2 MB/client footprint the lazy
  // representation removed; transient uses (an RPC payload that is consumed
  // and freed) carry an explicit allow().
  for (size_t i = 0; i < t.size(); ++i) {
    if (IsIdent(t, i) && t[i].text == "SynthesizeContents" && Is(t, i + 1, "(")) {
      Emit(out, f, t[i].line, "no-eager-contents",
           "SynthesizeContents materializes full file bytes; hold a lazy "
           "content::Ref (content::Ref::ForSeed) and let the rest point "
           "canonicalize, or suppress with allow(no-eager-contents) where the "
           "buffer is genuinely transient (wire payload, byte-equality check)");
    }
  }
  // (b) Statement granularity (same scheme as no-raw-lease-term): a
  // Materialize() call in the same statement as a Populate* call is the
  // populate-scale deep copy the representation exists to avoid — the ref
  // overload of Campus::PopulateDirect takes the ref itself.
  size_t start = 0;
  for (size_t i = 0; i <= t.size(); ++i) {
    const bool boundary =
        i == t.size() || (t[i].kind == TokKind::kPunct &&
                          (t[i].text == ";" || t[i].text == "{" || t[i].text == "}"));
    if (!boundary) continue;
    int mat_line = 0;
    bool populate = false;
    for (size_t k = start; k < i; ++k) {
      if (!IsIdent(t, k)) continue;
      if (t[k].text == "Materialize" && Is(t, k + 1, "(")) mat_line = t[k].line;
      if (t[k].text.rfind("Populate", 0) == 0 && Is(t, k + 1, "(")) populate = true;
    }
    if (populate && mat_line != 0) {
      Emit(out, f, mat_line, "no-eager-contents",
           "Materialize() in a populate call defeats the lazy representation; "
           "pass the content::Ref itself (Campus::PopulateDirect has a ref "
           "overload)");
    }
    start = i + 1;
  }
}

// --- kernel-ownership (interprocedural) ---------------------------------------------

void CheckKernelOwnership(const SymbolIndex& idx, const CallGraph& g,
                          std::vector<Diagnostic>& out) {
  std::vector<size_t> roots;
  for (size_t i = 0; i < idx.functions.size(); ++i) {
    if (idx.functions[i].entry || idx.functions[i].quiescent) roots.push_back(i);
  }
  const std::vector<bool> sanctioned = Reachable(g, roots);

  for (const OwnedMember& m : idx.owned) {
    for (size_t fi = 0; fi < idx.functions.size(); ++fi) {
      const FunctionDef& f = idx.functions[fi];
      if (f.cls != m.cls || f.IsCtorOrDtor() || sanctioned[fi]) continue;
      // Per-shard state accepts the ITC_SHARD_FOREIGN waiver: the method is
      // a declared cross-shard touch (documented debt), not an oversight.
      if (m.shard && f.shard_foreign) continue;
      const Toks& t = f.file->tokens;
      for (size_t j = f.body_begin; j < f.body_end && j < t.size(); ++j) {
        if (t[j].pp || !IsIdent(t, j) || t[j].text != m.name) continue;
        if (m.shard) {
          Emit(out, *f.file, t[j].line, "kernel-ownership",
               "'" + m.name + "' is ITC_OWNED_BY_SHARD state of " + m.cls +
                   " — it belongs to one shard of the kernel group — but '" +
                   f.Qualified() +
                   "' is not reachable from any ITC_KERNEL_ENTRY or "
                   "ITC_KERNEL_QUIESCENT function; mark the entry point, route "
                   "the access through one, or declare the cross-shard touch "
                   "with ITC_SHARD_FOREIGN (src/common/ownership.h)");
        } else {
          Emit(out, *f.file, t[j].line, "kernel-ownership",
               "'" + m.name + "' is ITC_OWNED_BY_KERNEL state of " + m.cls +
                   ", but '" + f.Qualified() +
                   "' is not reachable from any ITC_KERNEL_ENTRY or "
                   "ITC_KERNEL_QUIESCENT function; mark the entry point or route the "
                   "access through one (src/common/ownership.h)");
        }
        break;  // one diagnostic per (member, method) is enough
      }
    }
  }
}

// --- no-alloc-in-kernel-hot-path ----------------------------------------------------

const std::set<std::string>& ContainerGrowthCalls() {
  // Member calls that can grow a container (and therefore allocate). pop_back
  // and in-place writes (`buf[i] = x`) are deliberately absent: the hot path
  // may shrink and overwrite, it may not grow.
  static const std::set<std::string> g = {"push_back", "emplace_back", "push",
                                          "emplace",   "insert",       "resize",
                                          "reserve",   "assign",       "append"};
  return g;
}

// Description of the allocation starting at token j ("'new'", "container
// growth ('push_back')"), or "" when j does not allocate.
std::string AllocAt(const Toks& t, size_t j) {
  if (!IsIdent(t, j)) return "";
  const std::string& name = t[j].text;
  if (name == "new") return "'new'";
  if ((name == "make_unique" || name == "make_shared") &&
      (Is(t, j + 1, "<") || Is(t, j + 1, "("))) {
    return "'" + name + "'";
  }
  if (ContainerGrowthCalls().count(name) > 0 && Is(t, j + 1, "(") && j > 0 &&
      (t[j - 1].text == "." || t[j - 1].text == "->")) {
    return "container growth ('" + name + "')";
  }
  return "";
}

void CheckNoAllocInKernelHotPath(const SymbolIndex& idx, const CallGraph& g,
                                 std::vector<Diagnostic>& out) {
  // The steady-state roots: the event loop itself plus WaitUntil, which every
  // activity suspension runs through. Their own bodies count too.
  std::vector<size_t> roots;
  for (size_t i = 0; i < idx.functions.size(); ++i) {
    const FunctionDef& f = idx.functions[i];
    if (f.cls == "Kernel" &&
        (f.name == "Dispatch" || f.name == "WaitUntil" || f.name.rfind("Run", 0) == 0)) {
      roots.push_back(i);
    }
  }
  const std::vector<bool> reach = Reachable(g, roots);

  for (size_t fi = 0; fi < idx.functions.size(); ++fi) {
    if (!reach[fi]) continue;
    const FunctionDef& f = idx.functions[fi];
    const Toks& t = f.file->tokens;
    for (size_t j = f.body_begin; j < f.body_end && j < t.size(); ++j) {
      if (t[j].pp) continue;
      std::string what = AllocAt(t, j);
      if (what.empty()) continue;
      Emit(out, *f.file, t[j].line, "no-alloc-in-kernel-hot-path",
           what + " in '" + f.Qualified() +
               "', which is on the kernel hot path "
               "(Kernel::Run*/Dispatch/WaitUntil and what they reach); the event "
               "loop must stay allocation-free per event — pre-size, or suppress "
               "with a reason for a cold path");
    }
  }
}

// --- sim-determinism-transitive -----------------------------------------------------

void CheckSimDeterminismTransitive(const SymbolIndex& idx, const CallGraph& g,
                                   std::vector<Diagnostic>& out) {
  const std::string rule = "sim-determinism-transitive";
  // Seed taint: functions in non-exempt files whose bodies contain a banned
  // use. Note allow(sim-determinism) silences only the direct diagnostic;
  // sanctioning a wrapper for its *callers* takes an explicit
  // allow(sim-determinism-transitive) on the banned line, which clears the
  // taint here.
  std::vector<bool> tainted(idx.functions.size(), false);
  for (size_t fi = 0; fi < idx.functions.size(); ++fi) {
    const FunctionDef& f = idx.functions[fi];
    if (DeterminismExempt(f.file->path)) continue;
    const Toks& t = f.file->tokens;
    for (const BannedUse& u : BannedDeterminismUses(t, f.body_begin, f.body_end)) {
      const int line = t[u.tok].line;
      const std::vector<size_t> allows = f.file->AllowIndices(line, rule);
      if (!allows.empty()) {
        if (g_usage != nullptr) {
          for (size_t s : allows) g_usage->Mark(*f.file, s, rule);
        }
        continue;
      }
      tainted[fi] = true;
    }
  }

  // Propagate taint caller-ward one unsuppressed call site at a time. A
  // suppressed crossing sanctions the caller (no taint through it); an
  // unsuppressed one is diagnosed and taints the caller, so the closure
  // surfaces every laundering chain in a single run.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const CallSite& s : g.sites) {
      if (!tainted[s.callee] || tainted[s.caller]) continue;
      const FunctionDef& caller = idx.functions[s.caller];
      if (DeterminismExempt(caller.file->path)) continue;
      const size_t before = out.size();
      Emit(out, *caller.file, s.line, rule,
           "call to '" + idx.functions[s.callee].Qualified() +
               "' reaches a wall-clock/entropy use; determinism bans cannot be "
               "laundered through helpers — use sim::Clock / common/rng.h, or "
               "sanction the wrapper with allow(sim-determinism-transitive)");
      if (out.size() > before) {
        tainted[s.caller] = true;
        changed = true;
      }
    }
  }
}

// --- rule-doc-sync ------------------------------------------------------------------

void CheckRuleDocSync(const LintInput& in, std::vector<Diagnostic>& out) {
  if (in.lint_md.empty()) return;
  std::map<std::string, int> documented;  // rule id -> heading line
  std::istringstream md(in.lint_md);
  std::string line_text;
  int line_no = 0;
  while (std::getline(md, line_text)) {
    ++line_no;
    const std::string prefix = "### `";
    if (line_text.rfind(prefix, 0) != 0) continue;
    size_t end = line_text.find('`', prefix.size());
    if (end == std::string::npos) continue;
    documented.emplace(line_text.substr(prefix.size(), end - prefix.size()), line_no);
  }
  for (const std::string& rule : AllRules()) {
    if (documented.count(rule) == 0) {
      out.push_back({"docs/LINT.md", 1, "rule-doc-sync",
                     "registered rule '" + rule +
                         "' has no `### \\`" + rule + "\\`` section in docs/LINT.md"});
    }
  }
  for (const auto& [rule, at] : documented) {
    if (AllRules().count(rule) == 0) {
      out.push_back({"docs/LINT.md", at, "rule-doc-sync",
                     "docs/LINT.md documents rule '" + rule +
                         "' which is not registered in AllRules()"});
    }
  }
}

// --- stale-suppression --------------------------------------------------------------

void CheckStaleSuppressions(const LintInput& in, const SuppressionUsage& usage,
                            const std::set<std::string>& only,
                            std::vector<Diagnostic>& out) {
  auto ran = [&only](const std::string& r) { return only.empty() || only.count(r) > 0; };
  const bool full_run = only.empty();
  for (const LexedFile& f : in.files) {
    for (size_t i = 0; i < f.suppressions.size(); ++i) {
      const Suppression& s = f.suppressions[i];
      for (const std::string& r : s.rules) {
        if (r == "all") {
          // Not via Emit: an allow(all) would silence its own staleness
          // report, making an unused one invisible forever.
          if (full_run && !usage.UsedFor(f, i, "")) {
            out.push_back({f.path, s.line, "stale-suppression",
                           "'allow(all)' suppresses nothing; delete it"});
          }
          continue;
        }
        if (AllRules().count(r) == 0) {
          Emit(out, f, s.line, "stale-suppression",
               "unknown rule '" + r + "' in allow(...); see docs/LINT.md for the "
               "catalog");
          continue;
        }
        // Staleness of an allow(stale-suppression) cannot be decided in the
        // same pass that would use it; everything else must have silenced at
        // least one diagnostic of the rule it names.
        if (r == "stale-suppression") continue;
        if (ran(r) && !usage.UsedFor(f, i, r)) {
          Emit(out, f, s.line, "stale-suppression",
               "'allow(" + r + ")' suppresses nothing here; delete it or fix the "
               "rule id");
        }
      }
    }
  }
}

}  // namespace

std::vector<Diagnostic> RunRules(const LintInput& input, const std::set<std::string>& only) {
  auto enabled = [&only](const std::string& rule) {
    return only.empty() || only.count(rule) > 0;
  };

  SuppressionUsage usage;
  g_usage = &usage;
  std::vector<Diagnostic> out;

  // Declaration harvest feeds both halves of the error-discipline rule.
  DeclIndex index;
  const bool check_nodiscard = enabled("nodiscard-status");
  const bool check_discard = enabled("discarded-status");
  if (check_nodiscard || check_discard) {
    for (const LexedFile& f : input.files) {
      if (f.IsHeader()) CheckNodiscardAndHarvest(f, index, check_nodiscard, out);
    }
  }
  if (check_discard) {
    for (const LexedFile& f : input.files) CheckDiscardedCalls(f, index, out);
  }
  if (enabled("intention-before-mutate")) {
    for (const LexedFile& f : input.files) {
      if (f.path == "src/vice/file_server.cc") CheckIntentionBeforeMutate(f, out);
    }
  }
  if (enabled("opcode-sync")) CheckOpcodeSync(input, out);
  if (enabled("sim-determinism")) {
    for (const LexedFile& f : input.files) CheckSimDeterminism(f, out);
  }
  if (enabled("resource-serve-outside-kernel")) {
    for (const LexedFile& f : input.files) CheckResourceServeOutsideKernel(f, out);
  }
  if (enabled("vfs-dispatch-only")) {
    for (const LexedFile& f : input.files) CheckVfsDispatchOnly(f, out);
  }
  if (enabled("no-raw-lease-term")) {
    for (const LexedFile& f : input.files) CheckNoRawLeaseTerm(f, out);
  }
  if (enabled("no-eager-contents")) {
    for (const LexedFile& f : input.files) CheckNoEagerContents(f, out);
  }
  const bool side = enabled("assert-side-effect");
  const bool header = enabled("assert-in-header");
  if (side || header) {
    for (const LexedFile& f : input.files) CheckAsserts(f, side, header, out);
  }

  // The interprocedural rules share one symbol index + call graph build.
  const bool ownership = enabled("kernel-ownership");
  const bool alloc = enabled("no-alloc-in-kernel-hot-path");
  const bool det_trans = enabled("sim-determinism-transitive");
  if (ownership || alloc || det_trans) {
    const SymbolIndex idx = BuildIndex(input.files);
    const CallGraph graph = BuildCallGraph(idx);
    if (ownership) CheckKernelOwnership(idx, graph, out);
    if (alloc) CheckNoAllocInKernelHotPath(idx, graph, out);
    if (det_trans) CheckSimDeterminismTransitive(idx, graph, out);
  }

  if (enabled("rule-doc-sync")) CheckRuleDocSync(input, out);
  // Last: every other rule has recorded which suppressions it consumed.
  if (enabled("stale-suppression")) CheckStaleSuppressions(input, usage, only, out);
  g_usage = nullptr;

  std::sort(out.begin(), out.end(), [](const Diagnostic& a, const Diagnostic& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return out;
}

}  // namespace itc::lint
