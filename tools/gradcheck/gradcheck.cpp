// gradcheck — the repo's custom multi-pass static analyzer.
//
// v1 was a single token-level lint; v2 grew it to three passes; v3 five; v4
// is six passes gating the same contract the runtime verifiers
// (trace::validate, core::sync::OrderedMutex) check from the other side:
//
//   token pass (default)  — the failure modes that have actually bitten this
//       codebase: unseeded randomness breaking replayable simulations,
//       ad-hoc threads dodging the pool's determinism, wall-clock sleeps in
//       modeled time, raw-double timing parameters with no unit in the name,
//       silently dropped cost-model results, and raw std::mutex /
//       std::condition_variable declarations outside core/sync (every lock
//       must carry a core::sync::LockRank).
//
//   --conc                — concurrency-discipline lints, brace/scope-aware:
//       condition-variable waits without a predicate, bare .lock()/.unlock()
//       instead of RAII guards, std::thread::detach, relaxed atomics outside
//       the fabric/pool allowlist, and deadline-less blocking waits inside
//       comm::ThreadComm / core::parallel. These are exactly the rules the
//       pool-backed ThreadComm rewrite (ROADMAP) must obey.
//
//   --locks               — cross-TU lock-order analysis: extracts mutex
//       declarations (with their LockRank) and RAII acquisition sites,
//       builds the lock-acquisition-order graph (edge A -> B when B is
//       taken while A is held, scope-aware), reports any cycle as
//       potential-deadlock, flags blocking calls (ThreadComm collectives,
//       pool dispatch, thread joins, sleeps, fsync) made while a lock is
//       held as blocking-under-lock, and emits a DOT rendering of the lock
//       hierarchy (--dot, checked in as docs/locks.dot). The static half of
//       core::sync::OrderedMutex: the runtime checker proves the executed
//       order on whatever interleaving a test run produces; this pass
//       proves the lexically visible order across every TU at once.
//
//   --det                 — determinism lints keeping simulator/bench output
//       bit-reproducible: range-for over unordered containers (iteration
//       order is hash-seed- and address-dependent; sort the keys first, see
//       compress/state_io), wall-clock reads (system_clock, time(), ...)
//       outside the real-time fabric, and ordered containers keyed on
//       pointers (address-dependent iteration order).
//
//   --share               — race-surface analysis over the GRADCOMP_GUARDED_BY
//       annotation layer (core/sync_annotations.hpp). Builds the field ->
//       guard map per class across TUs from the annotations themselves, then
//       checks: guarded fields touched in scopes that do not lexically hold
//       the guard (unguarded-access), by-reference lambda captures mutated
//       inside work handed to another thread — ThreadPool::submit /
//       parallel_for / reduce_ordered, comm::run_ranks, std::thread —
//       (unguarded-capture), and mutable members of mutex-owning classes in
//       comm/, core/parallel, train/, and fabric/ that carry neither a guard
//       annotation, std::atomic, nor an explicit GRADCOMP_SYNC_EXTERNAL
//       waiver (unannotated-shared-field). Clang enforces the same
//       annotations natively (-Wthread-safety); this pass makes them load-
//       bearing on every compiler, GCC builds included.
//
//   --deps                — dependency/layering analysis: parses #include
//       directives under the scan root, maps files to modules via the
//       checked-in layers.conf, fails on layer inversions (an edge the conf
//       does not allow) and on any cycle in the observed or allowed module
//       graph, and emits a DOT rendering of the architecture (--dot).
//
// It is NOT a compiler: the token passes tokenize (comments, string
// literals, and preprocessor lines stripped) and pattern-match, which is
// exactly enough for these rules and keeps the tool a single dependency-free
// translation unit.
//
// Usage:
//   gradcheck [--conc|--det|--share] [--suppressions FILE] [--report FILE] DIR_OR_FILE...
//   gradcheck --locks ROOT... [--dot FILE] [--suppressions FILE] [--report FILE]
//   gradcheck --deps ROOT... --layers FILE [--dot FILE] [--report FILE]
//   gradcheck --fixtures DIR
//
// The scanning forms exit non-zero on unsuppressed findings — including
// suppression entries that no longer match anything (stale suppressions are
// errors, so the file can only shrink). A suppression rule of `*` suppresses
// every rule for the matching path (file-scoped); duplicate entries are a
// configuration error. Rule sets are per-directory: src/ gets the full
// battery; bench/, tools/, tests/, and examples/ the subsets that make sense
// for leaf executables, host-side tools, and test code. --fixtures is the
// self-test: every fixtures/<rule>__*.cpp must trigger exactly its named
// rule (token, conc, det, share, and blocking-under-lock alike), fixtures/clean*.cpp
// must trigger nothing, and the deps/locks/sup fixture trees are exercised
// by dedicated WILL_FAIL ctest entries.
#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Token {
  std::string text;
  int line = 0;
};

struct Finding {
  std::string rule;
  std::string path;
  int line = 0;
  std::string message;
};

// --- Tokenizer --------------------------------------------------------------

// Produces identifier/number/punctuation tokens with line numbers. Comments
// and the contents of string/char literals never produce tokens; full
// preprocessor lines (including line continuations) are skipped so macros
// and includes cannot trip the rules.
std::vector<Token> tokenize(const std::string& text) {
  std::vector<Token> tokens;
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = text.size();

  auto at_line_start = [&](std::size_t pos) {
    while (pos > 0) {
      const char c = text[pos - 1];
      if (c == '\n') return true;
      if (c != ' ' && c != '\t') return false;
      --pos;
    }
    return true;
  };

  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
    } else if (c == '#' && at_line_start(i)) {
      while (i < n && (text[i] != '\n' || text[i - 1] == '\\')) {
        if (text[i] == '\n') ++line;
        ++i;
      }
    } else if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      while (i < n && text[i] != '\n') ++i;
    } else if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(text[i] == '*' && text[i + 1] == '/')) {
        if (text[i] == '\n') ++line;
        ++i;
      }
      i = std::min(i + 2, n);
    } else if (c == '"' || c == '\'') {
      const char quote = c;
      ++i;
      while (i < n && text[i] != quote) {
        if (text[i] == '\\') ++i;
        if (i < n && text[i] == '\n') ++line;
        ++i;
      }
      ++i;
    } else if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
    } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(text[i])) || text[i] == '_')) ++i;
      tokens.push_back({text.substr(start, i - start), line});
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(text[i])) || text[i] == '.' ||
                       ((text[i] == '+' || text[i] == '-') &&
                        (text[i - 1] == 'e' || text[i - 1] == 'E'))))
        ++i;
      tokens.push_back({text.substr(start, i - start), line});
    } else if (c == ':' && i + 1 < n && text[i + 1] == ':') {
      tokens.push_back({"::", line});
      i += 2;
    } else if (c == '-' && i + 1 < n && text[i + 1] == '>') {
      tokens.push_back({"->", line});
      i += 2;
    } else {
      tokens.push_back({std::string(1, c), line});
      ++i;
    }
  }
  return tokens;
}

bool is_ident(const Token& t) {
  return !t.text.empty() &&
         (std::isalpha(static_cast<unsigned char>(t.text[0])) || t.text[0] == '_');
}

bool path_contains(const std::string& path, const std::string& fragment) {
  return path.find(fragment) != std::string::npos;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Index of the ')' matching toks[open] (which must be "("); toks.size() if
// unbalanced. Tracks all three bracket kinds so lambdas and subscripts
// inside an argument list do not desynchronize the scan.
std::size_t match_paren(const std::vector<Token>& toks, std::size_t open) {
  int paren = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t == "(") ++paren;
    else if (t == ")" && --paren == 0) return i;
  }
  return toks.size();
}

// Commas that separate the call's own arguments: depth-1 parens, not inside
// nested parens, braces (lambda bodies), or brackets (captures, subscripts).
int top_level_commas(const std::vector<Token>& toks, std::size_t open, std::size_t close) {
  int paren = 0;
  int brace = 0;
  int bracket = 0;
  int commas = 0;
  for (std::size_t i = open; i <= close && i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t == "(") ++paren;
    else if (t == ")") --paren;
    else if (t == "{") ++brace;
    else if (t == "}") --brace;
    else if (t == "[") ++bracket;
    else if (t == "]") --bracket;
    else if (t == "," && paren == 1 && brace == 0 && bracket == 0) ++commas;
  }
  return commas;
}

// True when toks[i] is a member-call name: preceded by '.' or '->' and
// followed by '('.
bool member_call(const std::vector<Token>& toks, std::size_t i) {
  if (i == 0 || i + 1 >= toks.size()) return false;
  const std::string& prev = toks[i - 1].text;
  return (prev == "." || prev == "->") && toks[i + 1].text == "(";
}

// --- Token-pass rules -------------------------------------------------------

// unseeded-rng: rand()/srand()/std::random_device produce run-to-run
// nondeterminism the replayable simulator and FaultPlan seeding exist to
// prevent. Use tensor::Rng (or any explicitly seeded engine) instead.
void rule_unseeded_rng(const std::string& path, const std::vector<Token>& toks,
                       std::vector<Finding>& out) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if ((t == "rand" || t == "srand") && i + 1 < toks.size() && toks[i + 1].text == "(" &&
        (i == 0 || toks[i - 1].text != "::" )) {
      out.push_back({"unseeded-rng", path, toks[i].line,
                     t + "() is unseeded process-global RNG; use an explicitly seeded engine "
                         "(tensor::Rng)"});
    }
    if (t == "random_device" && i >= 2 && toks[i - 1].text == "::" && toks[i - 2].text == "std") {
      out.push_back({"unseeded-rng", path, toks[i].line,
                     "std::random_device is nondeterministic; seed from options/FaultPlan "
                     "instead"});
    }
  }
}

// naked-thread: std::thread outside the communication fabric and the pool
// implementation bypasses core::parallel's deterministic dispatch.
void rule_naked_thread(const std::string& path, const std::vector<Token>& toks,
                       std::vector<Finding>& out) {
  if (path_contains(path, "src/comm/") || path_contains(path, "src/core/parallel")) return;
  for (std::size_t i = 2; i < toks.size(); ++i) {
    // `std::thread::hardware_concurrency()` and friends only query; the rule
    // targets thread *creation*, so a trailing `::` exempts the token.
    if (toks[i].text == "thread" && toks[i - 1].text == "::" && toks[i - 2].text == "std" &&
        (i + 1 >= toks.size() || toks[i + 1].text != "::")) {
      out.push_back({"naked-thread", path, toks[i].line,
                     "std::thread outside src/comm/ and core::parallel; use "
                     "core::global_pool()"});
    }
  }
}

// sleep-in-model: wall-clock sleeps inside simulated/modeled time conflate
// host scheduling with modeled seconds. Only the real fabric (src/comm/) and
// the pool implementation may block on real time.
void rule_sleep_in_model(const std::string& path, const std::vector<Token>& toks,
                         std::vector<Finding>& out) {
  if (path_contains(path, "src/comm/") || path_contains(path, "src/core/parallel")) return;
  for (const auto& t : toks) {
    if (t.text == "sleep_for" || t.text == "sleep_until") {
      out.push_back({"sleep-in-model", path, t.line,
                     t.text + " in model/sim code; modeled time must come from the cost "
                              "model, not the host clock"});
    }
  }
}

// unit-suffix: a raw `double` parameter at a header boundary must carry its
// unit (or be on the dimensionless allowlist). Typed quantities
// (core::units) need no suffix — that is the point of the types.
const std::set<std::string>& approved_suffixes() {
  static const std::set<std::string> kSuffixes = {
      "_s",     "_seconds", "_ms",    "_us",    "_bytes",  "_bits",    "_bps",
      "_gbps",  "_mib",     "_flops", "_frac",  "_factor", "_scale",   "_ratio",
      "_penalty", "_prob",  "_margin", "_rate", "_weight",  "_per_flop", "_per_sample",
      "_per_second", "_lr"};
  return kSuffixes;
}

const std::set<std::string>& bare_name_allowlist() {
  static const std::set<std::string> kBare = {
      // Dimensionless by construction or convention.
      "q", "gamma", "fraction", "stretch", "advantage", "ratio", "factor", "scale",
      "half_life", "lr", "momentum", "epsilon", "eps", "tol", "tolerance", "value",
      "sample", "x", "y", "a", "b", "lo", "hi", "alpha", "beta", "probability",
      // Unit-named quantities where the name IS the unit.
      "seconds", "bytes", "ms", "us", "gbps", "bps", "bits", "mib", "flops"};
  return kBare;
}

bool unit_suffixed(const std::string& name) {
  if (bare_name_allowlist().count(name) > 0) return true;
  for (const auto& suffix : approved_suffixes())
    if (ends_with(name, suffix)) return true;
  return false;
}

void rule_unit_suffix(const std::string& path, const std::vector<Token>& toks,
                      std::vector<Finding>& out) {
  if (!ends_with(path, ".hpp")) return;  // boundary rule: public signatures
  int paren_depth = 0;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t == "(") ++paren_depth;
    else if (t == ")") --paren_depth;
    if (t != "double" || paren_depth <= 0 || i + 1 >= toks.size()) continue;
    // `double name` directly inside a parameter list. Skip pointers,
    // references, and template arguments (vector<double>).
    if (i > 0 && (toks[i - 1].text == "<" || toks[i - 1].text == ",")
        && i > 1 && toks[i - 2].text == "<")
      continue;
    const Token& next = toks[i + 1];
    if (!is_ident(next)) continue;
    // Must be a parameter: followed by ',', ')', or '=' (default value).
    if (i + 2 < toks.size()) {
      const std::string& after = toks[i + 2].text;
      if (after != "," && after != ")" && after != "=") continue;
    }
    if (!unit_suffixed(next.text)) {
      out.push_back({"unit-suffix", path, next.line,
                     "double parameter '" + next.text +
                         "' has no unit suffix; name the unit (*_seconds, *_bytes, *_bps, "
                         "...) or use a core::units type"});
    }
  }
}

// nodiscard-cost: a function returning Seconds/Bytes/BitsPerSecond (or a
// double spelled *_seconds/*_bytes/*_bps) whose result is dropped is a cost
// computed and thrown away — require [[nodiscard]] at the declaration.
void rule_nodiscard_cost(const std::string& path, const std::vector<Token>& toks,
                         std::vector<Finding>& out) {
  if (!ends_with(path, ".hpp")) return;
  static const std::set<std::string> kCostTypes = {"Seconds", "Bytes", "BitsPerSecond"};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const bool cost_type = kCostTypes.count(toks[i].text) > 0;
    const bool cost_named_double =
        toks[i].text == "double" && i + 1 < toks.size() && is_ident(toks[i + 1]) &&
        (ends_with(toks[i + 1].text, "_seconds") || ends_with(toks[i + 1].text, "_bytes") ||
         ends_with(toks[i + 1].text, "_bps"));
    if (!cost_type && !cost_named_double) continue;
    if (i + 2 >= toks.size()) continue;
    // TYPE IDENT ( ...  -> a function declaration/definition returning the
    // cost type. (Constructors are TYPE followed directly by '('; member
    // variables lack the '('.)
    const Token& name = toks[i + 1];
    if (!is_ident(name)) continue;
    std::size_t open = i + 2;
    if (name.text == "operator") {
      // `Seconds operator+(...)`: skip the operator symbol tokens up to '('.
      while (open < toks.size() && toks[open].text != "(") ++open;
    }
    if (open >= toks.size() || toks[open].text != "(") continue;
    // Reject declarator contexts that are not declarations. A qualified
    // `units::Seconds name(...)` IS a declaration and must still be checked,
    // so `::` does not exempt; member access and new-expressions do.
    if (i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->" ||
                  toks[i - 1].text == "return" || toks[i - 1].text == "new" ||
                  toks[i - 1].text == "<"))
      continue;
    // Scan back to the start of the declaration for [[nodiscard]].
    bool has_nodiscard = false;
    for (std::size_t back = i; back > 0; --back) {
      const std::string& b = toks[back - 1].text;
      if (b == ";" || b == "{" || b == "}" || b == ")" || b == ",") break;
      if (b == "nodiscard") {
        has_nodiscard = true;
        break;
      }
    }
    if (!has_nodiscard) {
      out.push_back({"nodiscard-cost", path, name.line,
                     "'" + name.text + "' returns a cost (" + toks[i].text +
                         ") without [[nodiscard]]; dropped costs are silent model bugs"});
    }
  }
}

// raw-intrinsic: vector intrinsics (`_mm*` calls, `__m128/__m256/__m512`
// types) outside the dispatch module bypass the runtime CPU check — code
// that compiles everywhere but SIGILLs on hosts without the extension, and
// a second copy of a kernel the equivalence suite will never see. All
// intrinsics live in src/tensor/simd.cpp behind tensor::simd's dispatch.
bool raw_intrinsic_token(const std::string& t) {
  static const char* const kPrefixes[] = {"_mm_",    "_mm256_", "_mm512_",
                                          "__m128",  "__m256",  "__m512"};
  for (const char* prefix : kPrefixes)
    if (t.rfind(prefix, 0) == 0) return true;
  return false;
}

void rule_raw_intrinsic(const std::string& path, const std::vector<Token>& toks,
                        std::vector<Finding>& out) {
  if (path_contains(path, "tensor/simd.")) return;  // the one sanctioned home
  for (const auto& t : toks) {
    if (raw_intrinsic_token(t.text)) {
      out.push_back({"raw-intrinsic", path, t.line,
                     "raw vector intrinsic '" + t.text +
                         "' outside tensor/simd; route through the tensor::simd dispatch "
                         "layer so the scalar fallback and CPUID gate stay intact"});
    }
  }
}

// raw-sync: raw standard mutex/condvar declarations outside core/sync bypass
// the rank-ordered lock hierarchy — an OrderedMutex-free lock is invisible to
// the runtime deadlock checker AND to the --locks rank annotations. Mirrors
// raw-intrinsic: exactly one sanctioned home (core/sync wraps the one real
// std::mutex / condition_variable_any).
void rule_raw_sync(const std::string& path, const std::vector<Token>& toks,
                   std::vector<Finding>& out) {
  if (path_contains(path, "core/sync")) return;  // the one sanctioned home
  static const std::set<std::string> kRawSync = {
      "mutex",          "timed_mutex",        "recursive_mutex",
      "shared_mutex",   "recursive_timed_mutex",
      "condition_variable", "condition_variable_any"};
  for (std::size_t i = 2; i < toks.size(); ++i) {
    if (kRawSync.count(toks[i].text) == 0) continue;
    if (toks[i - 1].text != "::" || toks[i - 2].text != "std") continue;
    out.push_back({"raw-sync", path, toks[i].line,
                   "raw std::" + toks[i].text +
                       " outside core/sync; use core::sync::OrderedMutex / OrderedCondVar so "
                       "the lock carries a LockRank and the deadlock checker can see it"});
  }
}

// --- Concurrency-pass rules -------------------------------------------------

// cv-wait-no-predicate: a condition-variable wait without a predicate lets a
// spurious (or stolen) wakeup sail straight through the blocking point.
// `wait(lock)` needs a second (predicate) argument; `wait_for`/`wait_until`
// need a third.
void rule_cv_wait_no_predicate(const std::string& path, const std::vector<Token>& toks,
                               std::vector<Finding>& out) {
  for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t != "wait" && t != "wait_for" && t != "wait_until") continue;
    if (!member_call(toks, i)) continue;
    const std::size_t open = i + 1;
    const std::size_t close = match_paren(toks, open);
    if (close >= toks.size()) continue;  // unbalanced; not our problem
    const int commas = top_level_commas(toks, open, close);
    const int needed = t == "wait" ? 1 : 2;
    if (commas < needed) {
      out.push_back({"cv-wait-no-predicate", path, toks[i].line,
                     "." + t + " without a predicate argument; spurious wakeups bypass the "
                              "wait condition — use the predicate overload"});
    }
  }
}

// raii-lock: bare .lock()/.unlock() calls manage the mutex by hand; an early
// return or exception between them leaks the lock. Use std::lock_guard /
// std::unique_lock / std::scoped_lock.
void rule_raii_lock(const std::string& path, const std::vector<Token>& toks,
                    std::vector<Finding>& out) {
  // core/sync IS the RAII layer: OrderedMutex::lock()/unlock() necessarily
  // forward to the wrapped mutex's bare lock()/unlock().
  if (path_contains(path, "core/sync")) return;
  for (std::size_t i = 1; i + 2 < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t != "lock" && t != "unlock") continue;
    if (!member_call(toks, i)) continue;
    if (toks[i + 2].text != ")") continue;  // zero-argument member call only
    out.push_back({"raii-lock", path, toks[i].line,
                   "bare ." + t + "() manages the mutex by hand; use an RAII guard "
                                  "(std::lock_guard / std::unique_lock / std::scoped_lock)"});
  }
}

// thread-detach: a detached thread outlives every join point and any sane
// shutdown order; the pool and the rank harness always join.
void rule_thread_detach(const std::string& path, const std::vector<Token>& toks,
                        std::vector<Finding>& out) {
  for (std::size_t i = 1; i + 2 < toks.size(); ++i) {
    if (toks[i].text != "detach") continue;
    if (!member_call(toks, i)) continue;
    if (toks[i + 2].text != ")") continue;
    out.push_back({"thread-detach", path, toks[i].line,
                   ".detach() abandons the thread past every join point; keep the handle "
                   "and join (or use core::global_pool())"});
  }
}

// relaxed-atomic: std::memory_order_relaxed is reserved for the audited
// fabric/pool internals (pure counters, lock-protected mirrors). Everywhere
// else the default seq_cst is both correct and fast enough.
const std::set<std::string>& relaxed_atomic_allowlist() {
  static const std::set<std::string> kAllow = {
      // active_count_ mirrors state only mutated under the group mutex.
      "comm/thread_comm",
      // chunk-claim ticket counter; completion uses acq_rel.
      "core/parallel",
      // the checks_enabled flag is an independent on/off switch; no data is
      // published through it (the held-stack is thread_local).
      "core/sync",
  };
  return kAllow;
}

void rule_relaxed_atomic(const std::string& path, const std::vector<Token>& toks,
                         std::vector<Finding>& out) {
  for (const auto& fragment : relaxed_atomic_allowlist())
    if (path_contains(path, fragment)) return;
  for (const auto& t : toks) {
    if (t.text == "memory_order_relaxed") {
      out.push_back({"relaxed-atomic", path, t.line,
                     "memory_order_relaxed outside the audited fabric/pool allowlist; use "
                     "the default ordering unless the site is reviewed into the list"});
    }
  }
}

// deadlineless-wait: inside the communication fabric, the shared pool, the
// trainer's recovery/rejoin path, and the chaos soak driver, every blocking
// wait must thread a deadline (wait_for/wait_until) so a hung peer degrades
// to a timeout + RankFailure instead of a silent deadlock. A joiner parked
// in rejoin() forever because the survivors never called grow() is exactly
// the hang this rule exists to prevent.
void rule_deadlineless_wait(const std::string& path, const std::vector<Token>& toks,
                            std::vector<Finding>& out) {
  if (!path_contains(path, "comm/") && !path_contains(path, "core/parallel") &&
      !path_contains(path, "train/") && !path_contains(path, "tools/chaos"))
    return;
  for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
    if (toks[i].text != "wait") continue;
    if (!member_call(toks, i)) continue;
    out.push_back({"deadlineless-wait", path, toks[i].line,
                   "plain .wait() in the fabric/pool never times out; thread a deadline "
                   "(wait_until/wait_for with the group timeout)"});
  }
}

// --- Determinism-pass rules (--det) -----------------------------------------

// Matching '>' for toks[open] == "<", treating every '<'/'>' as an angle
// bracket (good enough inside a template argument list; the tokenizer never
// fuses ">>"). toks.size() when unbalanced — or when the '<' was really a
// comparison, which in practice fails to balance before the statement ends.
std::size_t match_angle(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t == "<") ++depth;
    else if (t == ">" && --depth == 0) return i;
    else if (t == ";") break;  // statement ended: not a template arg list
  }
  return toks.size();
}

// unordered-iteration: range-for over an unordered container visits elements
// in hash-seed- and allocation-address-dependent order; if that order feeds
// SimResult / Timeline / BENCH output, runs stop being bit-reproducible.
// Collect the keys, sort, then iterate — compress/state_io::sorted_keys is
// the sanctioned helper (and the one allowlisted home of a direct walk).
void rule_unordered_iteration(const std::string& path, const std::vector<Token>& toks,
                              std::vector<Finding>& out) {
  if (path_contains(path, "compress/state_io")) return;  // the sort-first helper
  static const std::set<std::string> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};

  // Pass 1: names declared with an unordered container type (members, locals,
  // and parameters alike — single-TU scan, so cross-file aliasing is out of
  // scope by design).
  std::set<std::string> names;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (kUnordered.count(toks[i].text) == 0 || toks[i + 1].text != "<") continue;
    const std::size_t close = match_angle(toks, i + 1);
    if (close >= toks.size()) continue;
    std::size_t j = close + 1;
    while (j < toks.size() && (toks[j].text == "&" || toks[j].text == "*")) ++j;
    if (j < toks.size() && is_ident(toks[j])) names.insert(toks[j].text);
  }
  if (names.empty()) return;

  // Pass 2: `for ( ... : NAME )` where NAME is one of those declarations.
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].text != "for" || toks[i + 1].text != "(") continue;
    const std::size_t open = i + 1;
    const std::size_t close = match_paren(toks, open);
    if (close >= toks.size()) continue;
    // The range-for ':' sits at paren depth 1 outside brackets/braces.
    std::size_t colon = 0;
    int paren = 0;
    int other = 0;
    for (std::size_t j = open; j < close; ++j) {
      const std::string& t = toks[j].text;
      if (t == "(") ++paren;
      else if (t == ")") --paren;
      else if (t == "[" || t == "{") ++other;
      else if (t == "]" || t == "}") --other;
      else if (t == ":" && paren == 1 && other == 0) {
        colon = j;
        break;
      }
    }
    if (colon == 0) continue;
    // Flag only when the range expression is a bare declared name: qualified
    // or transformed ranges (x.sorted(), sorted_keys(m)) are presumed fixed.
    if (colon + 2 == close && is_ident(toks[colon + 1]) && names.count(toks[colon + 1].text) > 0) {
      out.push_back({"unordered-iteration", path, toks[colon + 1].line,
                     "range-for over unordered container '" + toks[colon + 1].text +
                         "'; iteration order is hash/address-dependent — sort the keys first "
                         "(see compress/state_io::sorted_keys)"});
    }
  }
}

// wallclock-time: reading the wall clock inside modeled/simulated code makes
// output depend on when (and how loaded) the host is. steady_clock is fine —
// it prices real work (timers, deadlines); calendar time is not. The
// real-time fabric and the pool own their deadlines, so they are exempt.
void rule_wallclock_time(const std::string& path, const std::vector<Token>& toks,
                         std::vector<Finding>& out) {
  static const char* const kAllow[] = {"comm/", "core/parallel"};
  for (const char* fragment : kAllow)
    if (path_contains(path, fragment)) return;
  static const std::set<std::string> kClockIdents = {
      "system_clock", "high_resolution_clock", "gettimeofday", "localtime", "gmtime"};
  static const std::set<std::string> kClockCalls = {"time", "clock"};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (kClockIdents.count(t) > 0) {
      out.push_back({"wallclock-time", path, toks[i].line,
                     "'" + t + "' reads the wall clock; modeled time comes from the cost "
                               "model, measured time from steady_clock (stats/timer)"});
      continue;
    }
    // Free calls `time(...)` / `clock(...)`: C's process-global clocks.
    // Member/qualified spellings (x.time(), Clock::clock()) are someone
    // else's API and stay quiet. (rand() is the token pass's unseeded-rng.)
    if (kClockCalls.count(t) > 0 && i + 1 < toks.size() && toks[i + 1].text == "(" &&
        (i == 0 || (toks[i - 1].text != "." && toks[i - 1].text != "->" &&
                    toks[i - 1].text != "::"))) {
      out.push_back({"wallclock-time", path, toks[i].line,
                     t + "() reads the process wall clock; nondeterministic across runs"});
    }
  }
}

// address-ordering: an ordered container keyed on a pointer iterates in
// allocation-address order — stable within a run, different across runs.
// Key on a stable id (rank, LayerId, name) instead.
void rule_address_ordering(const std::string& path, const std::vector<Token>& toks,
                           std::vector<Finding>& out) {
  static const std::set<std::string> kOrdered = {"map", "set", "multimap", "multiset"};
  for (std::size_t i = 2; i + 1 < toks.size(); ++i) {
    if (kOrdered.count(toks[i].text) == 0) continue;
    if (toks[i - 1].text != "::" || toks[i - 2].text != "std") continue;
    if (toks[i + 1].text != "<") continue;
    const std::size_t close = match_angle(toks, i + 1);
    if (close >= toks.size()) continue;
    // Scan the FIRST template argument (the key / element type) for a '*'.
    int depth = 0;
    for (std::size_t j = i + 1; j < close; ++j) {
      const std::string& t = toks[j].text;
      if (t == "<") ++depth;
      else if (t == ">") --depth;
      else if (t == "," && depth == 1) break;  // past the key type
      else if (t == "*" && depth == 1) {
        out.push_back({"address-ordering", path, toks[j].line,
                       "std::" + toks[i].text +
                           " keyed on a pointer iterates in allocation-address order; key on "
                           "a stable id instead"});
        break;
      }
    }
  }
}

// --- Lexical scope tracking (shared by --locks and --share) -----------------

// Follows namespace and class nesting through a linear token scan so
// declarations and accesses can be keyed by qualified scope ("ns::Class")
// instead of bare name. feed(i) must be called once per token, in order,
// before any rule logic runs for that token. Anonymous namespaces are
// transparent (their contents belong to the enclosing scope, matching
// internal linkage); out-of-line member definitions (`void C::m(...) {`)
// push the class so member lookups resolve inside method bodies; ctor and
// dtor bodies (and init lists) are marked exempt — the object is not yet /
// no longer shared there, mirroring Clang's thread-safety analysis.
class ScopeTracker {
 public:
  explicit ScopeTracker(const std::vector<Token>& toks) : toks_(toks) {}

  void feed(std::size_t i) {
    const std::string& t = toks_[i].text;
    if (t == "{") {
      Entry e;
      if (pending_ != Pending::kNone) {
        e.kind = pending_ == Pending::kNamespace ? Entry::kNamespace : Entry::kClass;
        e.components = pending_components_;
        e.exempt = pending_exempt_;
        e.method = pending_method_;
        entered_method_ = pending_ == Pending::kMethod;
      } else {
        e.kind = Entry::kPlain;
        entered_method_ = false;
      }
      clear_pending();
      stack_.push_back(std::move(e));
      return;
    }
    entered_method_ = false;
    if (t == "}") {
      if (!stack_.empty()) stack_.pop_back();
      return;
    }
    if (t == ";") {  // a pending construct that never opened was a declaration
      clear_pending();
      return;
    }
    if (pending_ != Pending::kNone) return;  // waiting for '{' / ';'

    if (t == "namespace") {
      std::size_t j = i + 1;
      std::vector<std::string> comps;
      while (j < toks_.size() && (is_ident(toks_[j]) || toks_[j].text == "::")) {
        if (is_ident(toks_[j])) comps.push_back(toks_[j].text);
        ++j;
      }
      // `namespace {` (anonymous, comps empty) is transparent; an alias
      // (`namespace fs = ...`) never reaches '{' and is cleared at ';'.
      if (j < toks_.size() && toks_[j].text == "{") {
        pending_ = Pending::kNamespace;
        pending_components_ = std::move(comps);
      }
      return;
    }

    if ((t == "class" || t == "struct") &&
        (i == 0 || (toks_[i - 1].text != "enum" && toks_[i - 1].text != "friend"))) {
      std::size_t j = i + 1;
      std::string name;
      while (j < toks_.size()) {
        if (is_ident(toks_[j])) {
          name = toks_[j].text;
          // Attribute-style macros between `class` and the name (e.g.
          // GRADCOMP_CAPABILITY("mutex")) may carry an argument list.
          if (j + 1 < toks_.size() && toks_[j + 1].text == "(" &&
              name.rfind("GRADCOMP_", 0) == 0) {
            j = match_paren(toks_, j + 1);
            name.clear();
            if (j >= toks_.size()) return;
          }
          ++j;
          continue;
        }
        if (toks_[j].text == "::") {
          ++j;
          continue;
        }
        break;
      }
      if (name.empty() || j >= toks_.size()) return;
      const std::string& after = toks_[j].text;
      // '{' opens the body; ':' a base clause; anything else is a forward
      // declaration, template parameter, or elaborated type specifier.
      if (after == "{" || after == ":" || after == "final") {
        pending_ = Pending::kClass;
        pending_components_ = {name};
      }
      return;
    }

    // Out-of-line member definition at namespace level: `C::m(`, `C::C(`,
    // `C::~C(`. The class is pushed for the body so fields resolve; ctors
    // and dtors are exempt from guarded-field checking.
    if (namespaces_only() && is_ident(toks_[i]) && i + 3 < toks_.size() &&
        toks_[i + 1].text == "::" && (i == 0 || (toks_[i - 1].text != "::" &&
                                                 toks_[i - 1].text != "." &&
                                                 toks_[i - 1].text != "->"))) {
      const std::string& cls = toks_[i].text;
      if (toks_[i + 2].text == "~" && i + 4 < toks_.size() && toks_[i + 3].text == cls &&
          toks_[i + 4].text == "(") {
        pending_ = Pending::kMethod;
        pending_components_ = {cls};
        pending_method_ = "~" + cls;
        pending_exempt_ = true;
      } else if (is_ident(toks_[i + 2]) && toks_[i + 3].text == "(") {
        pending_ = Pending::kMethod;
        pending_components_ = {cls};
        pending_method_ = toks_[i + 2].text;
        pending_exempt_ = toks_[i + 2].text == cls;
      }
      return;
    }
  }

  // Qualified current scope, e.g. "gradcomp::comm::ThreadComm".
  [[nodiscard]] std::string qualified() const {
    std::string q;
    for (const auto& e : stack_)
      for (const auto& c : e.components) q += (q.empty() ? "" : "::") + c;
    return q;
  }

  // Enclosing scope prefixes, innermost first, ending with "" (global).
  [[nodiscard]] std::vector<std::string> chain() const {
    std::vector<std::string> out;
    std::string cur;
    out.push_back(cur);
    for (const auto& e : stack_)
      for (const auto& c : e.components) {
        cur += (cur.empty() ? "" : "::") + c;
        out.push_back(cur);
      }
    std::reverse(out.begin(), out.end());
    return out;
  }

  // True inside a ctor/dtor body or its init list (object not yet shared).
  [[nodiscard]] bool in_exempt() const {
    if (pending_exempt_) return true;
    for (const auto& e : stack_)
      if (e.exempt) return true;
    return false;
  }

  // Set right after feed() consumed a '{' that opened an out-of-line member
  // definition; method() then names it (REQUIRES seeding hook).
  [[nodiscard]] bool entered_method() const { return entered_method_; }
  [[nodiscard]] const std::string& method() const {
    return stack_.empty() ? pending_method_ : stack_.back().method;
  }

  [[nodiscard]] int depth() const { return static_cast<int>(stack_.size()); }

 private:
  struct Entry {
    enum Kind { kNamespace, kClass, kPlain } kind = kPlain;
    std::vector<std::string> components;  // scope names this entry adds
    std::string method;                   // out-of-line definitions only
    bool exempt = false;                  // ctor/dtor body
  };
  enum class Pending { kNone, kNamespace, kClass, kMethod };

  [[nodiscard]] bool namespaces_only() const {
    for (const auto& e : stack_)
      if (e.kind != Entry::kNamespace) return false;
    return true;
  }

  void clear_pending() {
    pending_ = Pending::kNone;
    pending_components_.clear();
    pending_method_.clear();
    pending_exempt_ = false;
  }

  const std::vector<Token>& toks_;
  std::vector<Entry> stack_;
  Pending pending_ = Pending::kNone;
  std::vector<std::string> pending_components_;
  std::string pending_method_;
  bool pending_exempt_ = false;
  bool entered_method_ = false;
};

// --- Lock-order pass (--locks) ----------------------------------------------

// A mutex declaration discovered in the scan: the graph node. Lock identity
// is the declaration's qualified scope plus its name ("ns::Class::mu_"), so
// two classes reusing a member name stay distinct nodes — merging by bare
// name used to fabricate phantom edges (and phantom cycles) between them.
struct LockDecl {
  std::string name;
  std::string scope;  // qualified enclosing scope ("" at global scope)
  std::string rank;   // LockRank enumerator when declared as OrderedMutex
  std::string site;   // file:line of the declaration

  [[nodiscard]] std::string id() const { return scope.empty() ? name : scope + "::" + name; }
};

// Cross-TU lock-identity table. Acquisition sites name locks by bare
// identifier; resolution walks the enclosing scopes innermost-out (member
// access from inside the class), then falls back to a unique bare-name match
// (an `obj.member_mutex` acquisition from outside the class, or a file-scope
// global shared across TUs via extern).
struct LockIndex {
  std::map<std::string, LockDecl> by_id;
  std::map<std::string, std::set<std::string>> by_name;

  void add(const LockDecl& d) {
    auto [it, inserted] = by_id.emplace(d.id(), d);
    if (!inserted && !d.rank.empty()) it->second = d;  // prefer the ranked decl
    by_name[d.name].insert(d.id());
  }

  [[nodiscard]] std::string resolve(const std::vector<std::string>& scope_chain,
                                    const std::string& bare) const {
    for (const auto& prefix : scope_chain) {
      const std::string id = prefix.empty() ? bare : prefix + "::" + bare;
      if (by_id.count(id) > 0) return id;
    }
    const auto it = by_name.find(bare);
    if (it != by_name.end() && it->second.size() == 1) return *it->second.begin();
    return bare;  // undeclared or ambiguous: keep the bare name
  }
};

struct LockEdge {
  std::string from;
  std::string to;
  std::string site;  // file:line of the first acquisition creating the edge
  int count = 0;
};

// Calls that can block indefinitely (or for real wall time) and therefore
// must never happen while a lock is held: a parked peer needing that lock to
// make progress is a deadlock, and fsync/sleep under a lock is a convoy.
// Condvar waits are deliberately absent — they RELEASE the lock while parked
// and have their own rules (cv-wait-no-predicate, deadlineless-wait).
const std::set<std::string>& blocking_calls() {
  static const std::set<std::string> kBlocking = {
      // ThreadComm collectives and membership operations
      "barrier", "allreduce_sum", "allgather", "broadcast_bytes", "shrink", "grow", "rejoin",
      // pool dispatch (the caller participates until every chunk completes)
      "parallel_for", "reduce_ordered", "submit",
      // thread joins and wall-clock sleeps
      "join", "sleep_for", "sleep_until",
      // checkpoint durability I/O
      "fsync", "fdatasync"};
  return kBlocking;
}

// Declarations: `OrderedMutex NAME {|(|;|=` (rank read from the
// initializer) and raw `std::mutex NAME ...`, each keyed by its qualified
// enclosing scope. core/sync's own internals are the wrapper, not lockable
// API — skip them.
void collect_lock_decls(const std::string& path, const std::vector<Token>& toks,
                        std::vector<LockDecl>& decls) {
  if (path_contains(path, "core/sync")) return;
  ScopeTracker scope(toks);
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    scope.feed(i);
    const bool ordered = toks[i].text == "OrderedMutex";
    const bool raw = toks[i].text == "mutex" && i >= 2 && toks[i - 1].text == "::" &&
                     toks[i - 2].text == "std";
    if (!ordered && !raw) continue;
    const Token& name = toks[i + 1];
    if (!is_ident(name)) continue;  // template arg, ctor, class decl, ...
    if (i + 2 < toks.size()) {
      const std::string& after = toks[i + 2].text;
      if (after != ";" && after != "{" && after != "=" && after != ",") continue;
    }
    LockDecl d;
    d.name = name.text;
    d.scope = scope.qualified();
    d.site = path + ":" + std::to_string(name.line);
    if (ordered) {
      // `... OrderedMutex name{LockRank::kFoo, "label"};` — the enumerator
      // names the hierarchy level in the DOT artifact.
      for (std::size_t j = i + 2; j < toks.size() && toks[j].text != ";"; ++j) {
        if (toks[j].text == "LockRank" && j + 2 < toks.size() && toks[j + 1].text == "::") {
          d.rank = toks[j + 2].text;
          break;
        }
      }
    }
    decls.push_back(std::move(d));
  }
}

// Scans one file for lock-acquisition-order edges (scope-aware: an RAII
// guard holds its lock until its enclosing brace closes) and
// blocking-under-lock findings. `index` resolves bare acquisition names to
// their scope-qualified identity; it (and edges) may be null when only the
// findings matter (the fixtures self-test), in which case bare names are
// kept.
void analyze_locks_file(const std::string& path, const std::vector<Token>& toks,
                        const LockIndex* index,
                        std::map<std::pair<std::string, std::string>, LockEdge>* edges,
                        std::vector<Finding>& findings) {
  const auto site = [&](int line) { return path + ":" + std::to_string(line); };

  // A guard declared at brace depth d holds its lock until depth drops
  // below d. Acquiring while others are held adds an edge from every held
  // lock to the new one.
  struct HeldGuard {
    int depth;
    std::string lock;
  };
  static const std::set<std::string> kGuards = {"lock_guard", "unique_lock", "scoped_lock",
                                                "LockGuard", "UniqueLock"};
  static const std::set<std::string> kTags = {"adopt_lock", "defer_lock", "try_to_lock",
                                              "adopt_lock_t", "defer_lock_t", "try_to_lock_t"};
  ScopeTracker scope(toks);
  std::vector<HeldGuard> held;
  int depth = 0;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    scope.feed(i);
    const std::string& t = toks[i].text;
    if (t == "{") {
      ++depth;
      continue;
    }
    if (t == "}") {
      --depth;
      while (!held.empty() && held.back().depth > depth) held.pop_back();
      continue;
    }

    // Blocking call while a lock is held?
    if (!held.empty() && blocking_calls().count(t) > 0 && i + 1 < toks.size() &&
        toks[i + 1].text == "(" && (i == 0 || toks[i - 1].text != "::")) {
      std::string held_names;
      for (const auto& h : held) held_names += (held_names.empty() ? "" : ", ") + h.lock;
      findings.push_back({"blocking-under-lock", path, toks[i].line,
                          "'" + t + "' can block while holding lock(s) [" + held_names +
                              "]; release before blocking (a parked peer needing the lock "
                              "deadlocks, and I/O under a lock convoys every waiter)"});
    }

    // RAII guard acquisition site?
    if (kGuards.count(t) == 0) continue;
    std::size_t j = i + 1;
    if (j < toks.size() && toks[j].text == "<") {
      const std::size_t close_angle = match_angle(toks, j);
      if (close_angle >= toks.size()) continue;
      j = close_angle + 1;
    }
    if (j >= toks.size() || !is_ident(toks[j])) continue;  // guard variable name
    if (j + 1 >= toks.size() || toks[j + 1].text != "(") continue;
    const std::size_t open = j + 1;
    const std::size_t close = match_paren(toks, open);
    if (close >= toks.size()) continue;

    // Each top-level argument names one lock (scoped_lock takes several);
    // the lock is the LAST identifier in the argument (`task.done_mutex` ->
    // done_mutex). std::defer_lock defers the acquisition entirely.
    std::vector<std::string> acquired;
    bool deferred = false;
    std::string current_last_ident;
    int paren = 0;
    int other = 0;
    for (std::size_t k = open; k <= close; ++k) {
      const std::string& a = toks[k].text;
      if (a == "(") ++paren;
      else if (a == ")") --paren;
      if (a == "[" || a == "{") ++other;
      else if (a == "]" || a == "}") --other;
      const bool arg_end = (a == "," && paren == 1 && other == 0) || (a == ")" && paren == 0);
      if (arg_end) {
        if (!current_last_ident.empty()) {
          if (kTags.count(current_last_ident) > 0) {
            if (current_last_ident.rfind("defer_lock", 0) == 0) deferred = true;
          } else {
            acquired.push_back(current_last_ident);
          }
        }
        current_last_ident.clear();
      } else if (is_ident(toks[k]) && k != open) {
        current_last_ident = a;
      }
    }
    if (deferred) continue;  // not acquired here; .lock() later is raii-lock's beat
    for (const auto& bare : acquired) {
      const std::string lock_name = index != nullptr ? index->resolve(scope.chain(), bare) : bare;
      if (edges != nullptr) {
        for (const auto& h : held) {
          auto& e = (*edges)[{h.lock, lock_name}];
          if (e.count == 0) {
            e.from = h.lock;
            e.to = lock_name;
            e.site = site(toks[i].line);
          }
          ++e.count;
        }
      }
      held.push_back({depth, lock_name});
    }
    // Keep the scope tracker in sync with the argument tokens the guard
    // parse consumed before jumping past them.
    for (std::size_t s = i + 1; s <= close && s < toks.size(); ++s) scope.feed(s);
    i = close;
  }
}

// --- Shared-state pass (--share) --------------------------------------------

// The race-surface analysis over core/sync_annotations.hpp. Clang's
// -Wthread-safety enforces the same annotations natively; this pass parses
// them dependency-free so GCC builds (the container default) are gated too.

// Field -> guard map and method -> required-capability map, accumulated
// across every scanned TU before any file is analyzed (annotations live in
// headers; accesses live in .cpp files).
struct ShareDB {
  // qualified class/namespace scope -> field name -> guarding mutex
  std::map<std::string, std::map<std::string, std::string>> guarded;
  // (qualified scope, method name) -> mutexes the method requires held
  std::map<std::pair<std::string, std::string>, std::set<std::string>> required;

  [[nodiscard]] std::size_t guarded_fields() const {
    std::size_t n = 0;
    for (const auto& [scope, fields] : guarded) n += fields.size();
    return n;
  }
};

void collect_share_file(const std::vector<Token>& toks, ShareDB& db) {
  ScopeTracker scope(toks);
  for (std::size_t i = 0; i < toks.size(); ++i) {
    scope.feed(i);
    const std::string& t = toks[i].text;
    if ((t == "GRADCOMP_GUARDED_BY" || t == "GRADCOMP_PT_GUARDED_BY") && i > 0 &&
        is_ident(toks[i - 1]) && i + 1 < toks.size() && toks[i + 1].text == "(") {
      // `TYPE field GRADCOMP_GUARDED_BY(mu)` — field is the preceding
      // identifier, the guard the last identifier in the argument.
      const std::size_t close = match_paren(toks, i + 1);
      if (close >= toks.size()) continue;
      std::string guard;
      for (std::size_t j = i + 2; j < close; ++j)
        if (is_ident(toks[j])) guard = toks[j].text;
      if (!guard.empty()) db.guarded[scope.qualified()][toks[i - 1].text] = guard;
    } else if (t == "GRADCOMP_REQUIRES" && i + 1 < toks.size() && toks[i + 1].text == "(") {
      // `ret name(params) [const noexcept] GRADCOMP_REQUIRES(mu)` — walk
      // back over the qualifiers and the parameter list to the method name.
      const std::size_t close = match_paren(toks, i + 1);
      if (close >= toks.size()) continue;
      std::size_t j = i;
      while (j > 0 && (toks[j - 1].text == "const" || toks[j - 1].text == "noexcept" ||
                       toks[j - 1].text == "override" || toks[j - 1].text == "final"))
        --j;
      if (j == 0 || toks[j - 1].text != ")") continue;
      int paren = 0;
      std::size_t k = j - 1;
      while (true) {
        if (toks[k].text == ")") ++paren;
        else if (toks[k].text == "(" && --paren == 0) break;
        if (k == 0) break;
        --k;
      }
      if (k == 0 || !is_ident(toks[k - 1])) continue;
      auto& req = db.required[{scope.qualified(), toks[k - 1].text}];
      for (std::size_t g = i + 2; g < close; ++g)
        if (is_ident(toks[g])) req.insert(toks[g].text);
    }
  }
}

// unannotated-shared-field: a class that owns an OrderedMutex is shared
// across threads by construction, so every mutable member must declare its
// synchronization: GRADCOMP_GUARDED_BY, std::atomic, or an explicit
// GRADCOMP_SYNC_EXTERNAL waiver naming the protocol (barrier-published,
// rank-sharded, main-thread-only). Scoped to the directories whose objects
// actually cross threads; tensor/compress value types stay unannotated.
bool share_field_scoped(const std::string& path) {
  return path_contains(path, "comm/") || path_contains(path, "core/parallel") ||
         path_contains(path, "train/") || path_contains(path, "fabric/");
}

void check_shared_fields(const std::string& path, const std::vector<Token>& toks,
                         std::vector<Finding>& findings) {
  if (!share_field_scoped(path)) return;
  for (std::size_t ci = 0; ci + 2 < toks.size(); ++ci) {
    if (toks[ci].text != "class" && toks[ci].text != "struct") continue;
    if (ci > 0 && (toks[ci - 1].text == "enum" || toks[ci - 1].text == "friend")) continue;
    std::size_t j = ci + 1;
    std::string cls;
    while (j < toks.size() && (is_ident(toks[j]) || toks[j].text == "::")) {
      if (is_ident(toks[j])) cls = toks[j].text;
      ++j;
    }
    if (cls.empty() || j >= toks.size()) continue;
    if (toks[j].text == ":")  // base clause
      while (j < toks.size() && toks[j].text != "{" && toks[j].text != ";") ++j;
    if (j >= toks.size() || toks[j].text != "{") continue;  // forward decl

    // Body extent, and the concurrency test: does the class own a mutex?
    std::size_t body_end = j;
    int d = 0;
    bool concurrent = false;
    for (std::size_t k = j; k < toks.size(); ++k) {
      if (toks[k].text == "{") ++d;
      else if (toks[k].text == "}" && --d == 0) {
        body_end = k;
        break;
      } else if (toks[k].text == "OrderedMutex") {
        concurrent = true;
      }
    }
    if (!concurrent || body_end == j) continue;

    // Member statements at body depth 1; method bodies and brace
    // initializers are skipped wholesale.
    static const std::set<std::string> kExemptKw = {
        "static", "constexpr", "constinit", "using", "friend", "typedef", "enum",
        "class", "struct", "template", "operator", "public", "private", "protected"};
    static const std::set<std::string> kSyncTypes = {
        "atomic", "atomic_flag", "OrderedMutex", "OrderedCondVar", "mutex",
        "shared_mutex", "condition_variable", "condition_variable_any"};
    std::vector<std::size_t> stmt;
    const auto flush = [&]() {
      if (stmt.empty()) return;
      bool has_const = false;
      bool has_ptr = false;
      bool deleted = false;
      for (std::size_t s = 0; s < stmt.size(); ++s) {
        const std::string& w = toks[stmt[s]].text;
        if (kExemptKw.count(w) > 0 || kSyncTypes.count(w) > 0) {
          stmt.clear();
          return;
        }
        if (w == "const") has_const = true;
        if (w == "*") has_ptr = true;
        if (w == "=" && s + 1 < stmt.size() &&
            (toks[stmt[s + 1]].text == "delete" || toks[stmt[s + 1]].text == "default"))
          deleted = true;
      }
      if (deleted || (has_const && !has_ptr)) {
        stmt.clear();
        return;
      }
      for (const std::size_t idx : stmt) {
        if (!is_ident(toks[idx]) || idx + 1 >= toks.size()) continue;
        const std::string& next = toks[idx + 1].text;
        if (next == "(") break;  // function / ctor declaration
        if (next == "GRADCOMP_GUARDED_BY" || next == "GRADCOMP_PT_GUARDED_BY" ||
            next == "GRADCOMP_SYNC_EXTERNAL")
          break;  // annotated
        if (next == ";" || next == "=" || next == "{" || next == "[") {
          findings.push_back(
              {"unannotated-shared-field", path, toks[idx].line,
               "mutable member '" + toks[idx].text + "' of concurrent class '" + cls +
                   "' (owns an OrderedMutex) has no GRADCOMP_GUARDED_BY, is not atomic, "
                   "and carries no GRADCOMP_SYNC_EXTERNAL waiver — declare who "
                   "synchronizes it"});
          break;
        }
      }
      stmt.clear();
    };
    std::size_t k = j + 1;
    while (k < body_end) {
      const std::string& t = toks[k].text;
      if (t == "{") {  // method body or brace initializer
        int dd = 0;
        while (k < body_end) {
          if (toks[k].text == "{") ++dd;
          else if (toks[k].text == "}" && --dd == 0) break;
          ++k;
        }
        ++k;
        // A brace initializer is followed by ';' (collect it into the
        // statement); a method body ends its member declaration outright.
        if (k < body_end && toks[k].text == ";") {
          flush();
          ++k;
        } else {
          stmt.clear();
        }
        continue;
      }
      if (t == ";") {
        flush();
        ++k;
        continue;
      }
      if (t == ":" && stmt.size() == 1 &&
          (toks[stmt[0]].text == "public" || toks[stmt[0]].text == "private" ||
           toks[stmt[0]].text == "protected")) {
        stmt.clear();
        ++k;
        continue;
      }
      stmt.push_back(k);
      ++k;
    }
    flush();
  }
}

// Thread / pool / comm submission points whose callable escapes the current
// thread: a by-reference capture mutated inside one is written concurrently
// from several workers.
const std::set<std::string>& submission_calls() {
  static const std::set<std::string> kSubmit = {"parallel_for", "reduce_ordered", "submit",
                                                "run_ranks"};
  return kSubmit;
}

// unguarded-capture: scan every lambda inside the submission call's argument
// list for by-ref captured locals mutated in the body. Indexed writes
// (`out[i] = ...`) are the sanctioned per-chunk output pattern and stay
// quiet; so do locals declared inside the lambda, members (trailing '_',
// covered by the field rules), guarded fields, and writes made while a
// lock is held inside the lambda.
void scan_submission_lambdas(const std::string& path, const std::vector<Token>& toks,
                             std::size_t open, std::size_t close, const ShareDB& db,
                             const std::vector<std::string>& scope_chain,
                             const std::string& call_name, std::vector<Finding>& findings) {
  static const std::set<std::string> kGuards = {"lock_guard", "unique_lock", "scoped_lock",
                                                "LockGuard", "UniqueLock"};
  const auto guarded_anywhere = [&](const std::string& name) {
    for (const auto& prefix : scope_chain) {
      const auto s = db.guarded.find(prefix);
      if (s != db.guarded.end() && s->second.count(name) > 0) return true;
    }
    return false;
  };

  for (std::size_t i = open + 1; i < close; ++i) {
    if (toks[i].text != "[") continue;
    const std::string& before = toks[i - 1].text;
    if (before != "(" && before != ",") continue;  // subscript, not a lambda intro
    std::size_t cend = i;
    int br = 0;
    for (std::size_t k = i; k <= close; ++k) {
      if (toks[k].text == "[") ++br;
      else if (toks[k].text == "]" && --br == 0) {
        cend = k;
        break;
      }
    }
    if (cend == i) break;
    bool byref_default = false;
    std::set<std::string> byref;
    for (std::size_t k = i + 1; k < cend; ++k) {
      if (toks[k].text != "&") continue;
      if (k + 1 < cend && is_ident(toks[k + 1])) {
        byref.insert(toks[k + 1].text);
        ++k;
      } else {
        byref_default = true;
      }
    }
    if (!byref_default && byref.empty()) {
      i = cend;
      continue;
    }
    std::size_t j = cend + 1;
    std::size_t popen = 0;
    std::size_t pclose = 0;
    if (j < close && toks[j].text == "(") {
      popen = j;
      pclose = match_paren(toks, j);
      j = pclose + 1;
    }
    while (j < close && toks[j].text != "{") ++j;  // skip mutable / -> ret
    if (j >= close) {
      i = cend;
      continue;
    }
    std::size_t bend = j;
    int bd = 0;
    for (std::size_t k = j; k < toks.size(); ++k) {
      if (toks[k].text == "{") ++bd;
      else if (toks[k].text == "}" && --bd == 0) {
        bend = k;
        break;
      }
    }

    // Lambda parameters are locals, never captures.
    std::set<std::string> locals;
    if (popen != 0)
      for (std::size_t k = popen + 1; k < pclose; ++k)
        if (is_ident(toks[k]) && (toks[k + 1].text == "," || toks[k + 1].text == ")"))
          locals.insert(toks[k].text);

    const auto first_use_is_decl = [&](const std::string& name) {
      for (std::size_t k = j + 1; k < bend; ++k) {
        if (toks[k].text != name) continue;
        const std::string& p = toks[k - 1].text;
        return is_ident(toks[k - 1]) || p == "*" || p == "&" || p == ">";
      }
      return false;
    };

    static const std::set<std::string> kCompound = {"+", "-", "*", "/", "%", "|", "&", "^"};
    std::vector<int> guard_depths;  // locks taken inside the lambda body
    std::set<std::string> reported;
    int ldepth = 0;
    for (std::size_t k = j; k < bend; ++k) {
      const std::string& t = toks[k].text;
      if (t == "{") {
        ++ldepth;
        continue;
      }
      if (t == "}") {
        --ldepth;
        while (!guard_depths.empty() && guard_depths.back() > ldepth) guard_depths.pop_back();
        continue;
      }
      if (kGuards.count(t) > 0 || t == "assert_held") {
        guard_depths.push_back(ldepth);
        continue;
      }
      if (!is_ident(toks[k]) || k + 2 >= toks.size() || k == 0) continue;
      const std::string& prev = toks[k - 1].text;
      if (prev == "." || prev == "->" || prev == "::") continue;
      const std::string& n1 = toks[k + 1].text;
      const std::string& n2 = toks[k + 2].text;
      const bool assigned = n1 == "=" && n2 != "=" && prev != "=" && prev != "!" &&
                            prev != "<" && prev != ">";
      const bool compound = kCompound.count(n1) > 0 && n2 == "=";
      const bool incdec = (n1 == "+" && n2 == "+") || (n1 == "-" && n2 == "-") ||
                          (k >= 2 && ((prev == "+" && toks[k - 2].text == "+") ||
                                      (prev == "-" && toks[k - 2].text == "-")));
      if (!assigned && !compound && !incdec) continue;
      const std::string& name = t;
      if (reported.count(name) > 0 || locals.count(name) > 0) continue;
      if (!name.empty() && name.back() == '_') continue;  // member: field rules own it
      if (!byref_default && byref.count(name) == 0) continue;
      if (byref_default && byref.count(name) == 0 && first_use_is_decl(name)) continue;
      if (!guard_depths.empty()) continue;  // mutated under a lock taken in the lambda
      if (guarded_anywhere(name)) continue;  // unguarded-access owns that diagnosis
      reported.insert(name);
      findings.push_back(
          {"unguarded-capture", path, toks[k].line,
           "by-ref capture '" + name + "' is mutated inside a lambda handed to '" + call_name +
               "'; concurrent workers race on it — write per-chunk slots (out[i] = ...), "
               "guard it, or make it atomic"});
    }
    i = bend;
  }
}

// Per-file analysis against the cross-TU guard map: unguarded-access,
// unguarded-capture, and (dir-scoped) unannotated-shared-field.
void analyze_share_file(const std::string& path, const std::vector<Token>& toks,
                        const ShareDB& db, std::vector<Finding>& findings) {
  if (path_contains(path, "core/sync")) return;  // the wrapper itself
  check_shared_fields(path, toks, findings);

  static const std::set<std::string> kGuards = {"lock_guard", "unique_lock", "scoped_lock",
                                                "LockGuard", "UniqueLock"};
  static const std::set<std::string> kAnnotations = {
      "GRADCOMP_GUARDED_BY", "GRADCOMP_PT_GUARDED_BY", "GRADCOMP_SYNC_EXTERNAL"};
  struct HeldGuard {
    int depth;
    std::string lock;
  };
  ScopeTracker scope(toks);
  std::vector<HeldGuard> held;
  std::vector<std::string> seed_next_brace;  // inline GRADCOMP_REQUIRES bodies
  int depth = 0;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    scope.feed(i);
    const std::string& t = toks[i].text;
    if (t == "{") {
      ++depth;
      if (scope.entered_method()) {
        // Out-of-line member definition: seed the held set with the
        // declaration's GRADCOMP_REQUIRES capabilities.
        const auto req = db.required.find({scope.qualified(), scope.method()});
        if (req != db.required.end())
          for (const auto& mu : req->second) held.push_back({depth, mu});
      }
      for (const auto& mu : seed_next_brace) held.push_back({depth, mu});
      seed_next_brace.clear();
      continue;
    }
    if (t == "}") {
      --depth;
      while (!held.empty() && held.back().depth > depth) held.pop_back();
      continue;
    }

    // RAII guard acquisition: `LockGuard lock(mu_)` and the std guards.
    if (kGuards.count(t) > 0) {
      std::size_t j = i + 1;
      if (j < toks.size() && toks[j].text == "<") {
        const std::size_t close_angle = match_angle(toks, j);
        if (close_angle >= toks.size()) continue;
        j = close_angle + 1;
      }
      if (j + 1 < toks.size() && is_ident(toks[j]) && toks[j + 1].text == "(") {
        const std::size_t close = match_paren(toks, j + 1);
        std::string lock_name;
        for (std::size_t k = j + 2; k < close && k < toks.size(); ++k)
          if (is_ident(toks[k])) lock_name = toks[k].text;
        if (!lock_name.empty()) held.push_back({depth, lock_name});
      }
      continue;
    }
    // `mu_.assert_held()` pins the capability for the enclosing scope — the
    // cv-predicate idiom (predicates only ever run with the lock held).
    if (t == "assert_held" && i >= 2 &&
        (toks[i - 1].text == "." || toks[i - 1].text == "->") && is_ident(toks[i - 2])) {
      held.push_back({depth, toks[i - 2].text});
      continue;
    }
    // Inline method declaration with REQUIRES and a body in the class.
    if (t == "GRADCOMP_REQUIRES" && i + 1 < toks.size() && toks[i + 1].text == "(") {
      const std::size_t close = match_paren(toks, i + 1);
      if (close >= toks.size()) continue;
      std::size_t j = close + 1;
      while (j < toks.size() &&
             (toks[j].text == "const" || toks[j].text == "noexcept" ||
              toks[j].text == "override" || toks[j].text == "final"))
        ++j;
      if (j < toks.size() && toks[j].text == "{")
        for (std::size_t g = i + 2; g < close; ++g)
          if (is_ident(toks[g])) seed_next_brace.push_back(toks[g].text);
      continue;
    }

    // Submission sites: lambdas whose captures escape to other threads.
    const bool submit_site = submission_calls().count(t) > 0 && i + 1 < toks.size() &&
                             toks[i + 1].text == "(";
    bool thread_site = false;
    std::size_t thread_open = 0;
    if (t == "thread" && i >= 2 && toks[i - 1].text == "::" && toks[i - 2].text == "std") {
      std::size_t j = i + 1;
      if (j < toks.size() && is_ident(toks[j])) ++j;  // `std::thread name(...)`
      if (j < toks.size() && toks[j].text == "(") {
        thread_site = true;
        thread_open = j;
      }
    }
    if (submit_site || thread_site) {
      const std::size_t open = submit_site ? i + 1 : thread_open;
      const std::size_t close = match_paren(toks, open);
      if (close < toks.size())
        scan_submission_lambdas(path, toks, open, close, db, scope.chain(),
                                submit_site ? t : "std::thread", findings);
      continue;
    }

    // unguarded-access: a guarded field of the current scope touched while
    // its guard is not lexically held. Declaration sites (the annotation
    // follows the name), ctor/dtor bodies, and member access through
    // another object (`obj.field`) are exempt.
    if (!is_ident(toks[i])) continue;
    if (scope.in_exempt()) continue;
    if (i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->" ||
                  toks[i - 1].text == "::"))
      continue;
    if (i + 1 < toks.size() && kAnnotations.count(toks[i + 1].text) > 0) continue;
    for (const auto& prefix : scope.chain()) {
      const auto s = db.guarded.find(prefix);
      if (s == db.guarded.end()) continue;
      const auto f = s->second.find(t);
      if (f == s->second.end()) continue;
      bool ok = false;
      for (const auto& h : held)
        if (h.lock == f->second) ok = true;
      if (!ok)
        findings.push_back(
            {"unguarded-access", path, toks[i].line,
             "field '" + t + "' is GRADCOMP_GUARDED_BY(" + f->second +
                 ") but is touched without holding it; take core::sync::LockGuard lock(" +
                 f->second + ") or mark the enclosing method GRADCOMP_REQUIRES(" + f->second +
                 ")"});
      break;  // innermost declaring scope governs
    }
  }
}

using RuleFn = void (*)(const std::string&, const std::vector<Token>&, std::vector<Finding>&);

const std::map<std::string, RuleFn>& token_rules() {
  static const std::map<std::string, RuleFn> kRules = {
      {"unseeded-rng", rule_unseeded_rng},   {"naked-thread", rule_naked_thread},
      {"sleep-in-model", rule_sleep_in_model}, {"unit-suffix", rule_unit_suffix},
      {"nodiscard-cost", rule_nodiscard_cost}, {"raw-intrinsic", rule_raw_intrinsic},
      {"raw-sync", rule_raw_sync}};
  return kRules;
}

const std::map<std::string, RuleFn>& det_rules() {
  static const std::map<std::string, RuleFn> kRules = {
      {"unordered-iteration", rule_unordered_iteration},
      {"wallclock-time", rule_wallclock_time},
      {"address-ordering", rule_address_ordering}};
  return kRules;
}

const std::map<std::string, RuleFn>& conc_rules() {
  static const std::map<std::string, RuleFn> kRules = {
      {"cv-wait-no-predicate", rule_cv_wait_no_predicate},
      {"raii-lock", rule_raii_lock},
      {"thread-detach", rule_thread_detach},
      {"relaxed-atomic", rule_relaxed_atomic},
      {"deadlineless-wait", rule_deadlineless_wait}};
  return kRules;
}

// Per-directory rule sets for the token pass. src/ carries the public API
// and the modeled-time code, so everything applies; bench/ is leaf
// executable code whose headers are not API boundaries (signature rules
// off); tools/ are host-side programs where wall-clock time is legitimate;
// tests/ and examples/ are exercised like bench/ (their headers are not API
// boundaries either, but the determinism and sync-confinement rules apply
// in full — a nondeterministic test is a flaky test).
std::set<std::string> token_rules_for(const std::string& path) {
  if (path_contains(path, "bench/"))
    return {"unseeded-rng", "naked-thread", "sleep-in-model", "raw-intrinsic", "raw-sync"};
  if (path_contains(path, "tools/"))
    return {"unseeded-rng", "naked-thread", "raw-intrinsic", "raw-sync"};
  if (path_contains(path, "tests/") || path_contains(path, "examples/"))
    return {"unseeded-rng", "naked-thread", "sleep-in-model", "raw-intrinsic", "raw-sync"};
  std::set<std::string> all;
  for (const auto& [name, fn] : token_rules()) all.insert(name);
  return all;
}

std::set<std::string> conc_rules_for(const std::string&) {
  // The conc rules carry their own path scoping (allowlists, fabric-only
  // rules); every scanned directory gets the full set.
  std::set<std::string> all;
  for (const auto& [name, fn] : conc_rules()) all.insert(name);
  return all;
}

// Per-directory rule sets for the determinism pass. Host-side tools and
// leaf benches may read the wall clock (that is their job: measuring);
// unordered iteration and pointer-keyed ordering are banned everywhere.
std::set<std::string> det_rules_for(const std::string& path) {
  if (path_contains(path, "bench/") || path_contains(path, "tools/"))
    return {"unordered-iteration", "address-ordering"};
  std::set<std::string> all;
  for (const auto& [name, fn] : det_rules()) all.insert(name);
  return all;
}

std::vector<Finding> check_file(const fs::path& path, const std::map<std::string, RuleFn>& rules,
                                const std::set<std::string>& enabled) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::vector<Token> toks = tokenize(buffer.str());
  const std::string p = path.generic_string();
  std::vector<Finding> out;
  for (const auto& [name, fn] : rules)
    if (enabled.count(name) > 0) fn(p, toks, out);
  std::stable_sort(out.begin(), out.end(),
                   [](const Finding& a, const Finding& b) { return a.line < b.line; });
  return out;
}

// --- Suppressions -----------------------------------------------------------

struct Suppression {
  std::string rule;
  std::string path_fragment;
  int line = 0;     // line in the suppressions file, for stale reporting
  int matched = 0;  // findings this entry absorbed in the current scan
};

std::vector<Suppression> load_suppressions(const std::string& file) {
  std::vector<Suppression> out;
  std::ifstream in(file);
  if (!in) {
    std::cerr << "gradcheck: cannot read suppressions file: " << file << "\n";
    std::exit(2);
  }
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream ls(line);
    Suppression s;
    if (ls >> s.rule >> s.path_fragment) {
      s.line = lineno;
      // Exact duplicates are a configuration error, not a harmless repeat:
      // one of them will ALWAYS be stale-by-construction (the first match
      // wins), which would poison the stale-entry ratchet.
      for (const auto& prev : out) {
        if (prev.rule == s.rule && prev.path_fragment == s.path_fragment) {
          std::cerr << file << ":" << lineno << ": duplicate suppression '" << s.rule << " "
                    << s.path_fragment << "' (first at line " << prev.line << ")\n";
          std::exit(2);
        }
      }
      out.push_back(s);
    }
  }
  return out;
}

// Every rule name a suppression entry may reference, across all passes, plus
// the file-scoped wildcard.
const std::set<std::string>& all_suppressible_rules() {
  static const std::set<std::string> kAll = [] {
    std::set<std::string> names{"*",
                                "potential-deadlock",
                                "blocking-under-lock",
                                "unguarded-access",
                                "unguarded-capture",
                                "unannotated-shared-field"};
    for (const auto& [name, fn] : token_rules()) names.insert(name);
    for (const auto& [name, fn] : conc_rules()) names.insert(name);
    for (const auto& [name, fn] : det_rules()) names.insert(name);
    return names;
  }();
  return kAll;
}

void validate_suppressions(const std::string& file, const std::vector<Suppression>& sups) {
  for (const auto& s : sups) {
    if (all_suppressible_rules().count(s.rule) == 0) {
      std::cerr << file << ":" << s.line << ": unknown rule '" << s.rule
                << "' in suppression entry\n";
      std::exit(2);
    }
  }
}

bool suppressed(const Finding& f, std::vector<Suppression>& sups) {
  for (auto& s : sups) {
    // `*` is the file-scoped form: any rule, matching paths only.
    if ((s.rule == f.rule || s.rule == "*") && path_contains(f.path, s.path_fragment)) {
      ++s.matched;
      return true;
    }
  }
  return false;
}

// Stale-suppression findings for entries this pass was responsible for and
// that absorbed nothing. Entries naming another pass's rules are left to
// that pass; `*` entries span passes — no single invocation can prove one
// stale, so they are exempt from the ratchet (the cost of the convenience:
// prefer named rules).
void append_stale(std::vector<Finding>& reported, const std::string& suppressions_file,
                  const std::vector<Suppression>& sups,
                  const std::set<std::string>& rule_universe) {
  for (const auto& s : sups) {
    if (s.rule == "*" || rule_universe.count(s.rule) == 0) continue;
    if (s.matched == 0)
      reported.push_back({"stale-suppression", suppressions_file, s.line,
                          "suppression '" + s.rule + " " + s.path_fragment +
                              "' matches no finding; delete the entry"});
  }
}

// --- Source collection ------------------------------------------------------

// Recursively collects .hpp/.cpp files. Directories named "fixtures" are
// skipped unless the root itself points into one — the fixture corpus is
// deliberately full of violations and must only be scanned by --fixtures or
// an explicit root.
std::vector<fs::path> collect_sources(const std::vector<std::string>& roots) {
  std::vector<fs::path> files;
  for (const auto& root : roots) {
    if (fs::is_regular_file(root)) {
      files.emplace_back(root);
      continue;
    }
    const bool root_is_fixtures = path_contains(fs::path(root).generic_string(), "fixtures");
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (!entry.is_regular_file()) continue;
      if (!root_is_fixtures &&
          path_contains(entry.path().generic_string(), "/fixtures/"))
        continue;
      const auto ext = entry.path().extension();
      if (ext == ".hpp" || ext == ".cpp") files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

// --- Dependency / layering pass (--deps) ------------------------------------

struct LayersConfig {
  struct Module {
    std::string name;
    std::string prefix;  // path prefix relative to the scan root
  };
  std::vector<Module> modules;
  std::vector<std::pair<std::string, std::string>> allow;  // declaration order
  std::set<std::pair<std::string, std::string>> allow_set;
};

LayersConfig load_layers(const std::string& file) {
  std::ifstream in(file);
  if (!in) {
    std::cerr << "gradcheck: cannot read layers config: " << file << "\n";
    std::exit(2);
  }
  LayersConfig cfg;
  std::set<std::string> names;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind)) continue;
    if (kind == "module") {
      LayersConfig::Module m;
      if (!(ls >> m.name >> m.prefix)) {
        std::cerr << file << ":" << lineno << ": expected 'module NAME PATH-PREFIX'\n";
        std::exit(2);
      }
      cfg.modules.push_back(m);
      names.insert(m.name);
    } else if (kind == "allow") {
      std::string from;
      std::string to;
      if (!(ls >> from >> to)) {
        std::cerr << file << ":" << lineno << ": expected 'allow FROM TO'\n";
        std::exit(2);
      }
      cfg.allow.emplace_back(from, to);
      cfg.allow_set.emplace(from, to);
    } else {
      std::cerr << file << ":" << lineno << ": unknown directive '" << kind << "'\n";
      std::exit(2);
    }
  }
  for (const auto& [from, to] : cfg.allow) {
    if (names.count(from) == 0 || names.count(to) == 0) {
      std::cerr << file << ": allow " << from << " " << to
                << " references an undeclared module\n";
      std::exit(2);
    }
  }
  return cfg;
}

// Longest-prefix module match; empty string when nothing matches.
std::string module_of(const LayersConfig& cfg, const std::string& rel_path) {
  std::string best;
  std::size_t best_len = 0;
  for (const auto& m : cfg.modules) {
    if (rel_path.rfind(m.prefix, 0) == 0 && m.prefix.size() >= best_len) {
      best = m.name;
      best_len = m.prefix.size();
    }
  }
  return best;
}

// First cycle found in the graph, as [a, b, ..., a]; empty when acyclic.
std::vector<std::string> find_cycle(const std::map<std::string, std::set<std::string>>& graph) {
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  std::vector<std::string> stack;
  std::vector<std::string> cycle;

  std::function<bool(const std::string&)> dfs = [&](const std::string& node) {
    color[node] = 1;
    stack.push_back(node);
    const auto it = graph.find(node);
    if (it != graph.end()) {
      for (const auto& next : it->second) {
        if (color[next] == 1) {
          const auto at = std::find(stack.begin(), stack.end(), next);
          cycle.assign(at, stack.end());
          cycle.push_back(next);
          return true;
        }
        if (color[next] == 0 && dfs(next)) return true;
      }
    }
    color[node] = 2;
    stack.pop_back();
    return false;
  };

  for (const auto& [node, targets] : graph)
    if (color[node] == 0 && dfs(node)) return cycle;
  return {};
}

std::string join_cycle(const std::vector<std::string>& cycle) {
  std::string out;
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    if (i > 0) out += " -> ";
    out += cycle[i];
  }
  return out;
}

struct DepEdge {
  std::string from;
  std::string to;
  std::string site;  // file:line of the first include creating the edge
  int count = 0;     // number of includes mapping onto this edge
};

// Extracts `#include "..."` targets with line numbers. Works on raw lines —
// the tokenizer deliberately strips preprocessor directives.
std::vector<std::pair<std::string, int>> parse_includes(const fs::path& file) {
  std::vector<std::pair<std::string, int>> out;
  std::ifstream in(file);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::size_t i = line.find_first_not_of(" \t");
    if (i == std::string::npos || line[i] != '#') continue;
    i = line.find_first_not_of(" \t", i + 1);
    if (i == std::string::npos || line.compare(i, 7, "include") != 0) continue;
    const auto open = line.find('"', i + 7);
    if (open == std::string::npos) continue;  // <system> include
    const auto close = line.find('"', open + 1);
    if (close == std::string::npos) continue;
    out.emplace_back(line.substr(open + 1, close - open - 1), lineno);
  }
  return out;
}

int run_deps(const std::vector<std::string>& roots, const std::string& layers_file,
             const std::string& dot_file, const std::string& report_file) {
  const LayersConfig cfg = load_layers(layers_file);
  std::vector<Finding> findings;

  // The allow table itself must describe a layering, i.e. be acyclic —
  // otherwise "no cycles" below is unenforceable by construction.
  {
    std::map<std::string, std::set<std::string>> allow_graph;
    for (const auto& [from, to] : cfg.allow) allow_graph[from].insert(to);
    const auto cycle = find_cycle(allow_graph);
    if (!cycle.empty())
      findings.push_back({"allow-cycle", layers_file, 0,
                          "the allow table permits a dependency cycle: " + join_cycle(cycle)});
  }

  // Observed module-level edges.
  std::map<std::pair<std::string, std::string>, DepEdge> edges;
  int files_scanned = 0;
  for (const auto& root : roots) {
    for (const auto& file : collect_sources({root})) {
      ++files_scanned;
      const std::string rel =
          fs::relative(file, root).generic_string();
      const std::string from = module_of(cfg, rel);
      if (from.empty()) {
        findings.push_back({"unmapped-file", file.generic_string(), 0,
                            "no module in " + layers_file + " matches '" + rel + "'"});
        continue;
      }
      for (const auto& [target, lineno] : parse_includes(file)) {
        const std::string to = module_of(cfg, target);
        if (to.empty()) {
          findings.push_back({"unmapped-include", file.generic_string(), lineno,
                              "include \"" + target + "\" matches no module in " + layers_file});
          continue;
        }
        if (to == from) continue;
        auto& e = edges[{from, to}];
        if (e.count == 0) {
          e.from = from;
          e.to = to;
          e.site = file.generic_string() + ":" + std::to_string(lineno);
        }
        ++e.count;
      }
    }
  }

  // Layer inversions: observed edges the table does not allow.
  for (const auto& [key, e] : edges) {
    if (cfg.allow_set.count(key) == 0)
      findings.push_back({"layer-violation", e.site, 0,
                          "module '" + e.from + "' must not depend on '" + e.to +
                              "' (edge not in " + layers_file + ", " +
                              std::to_string(e.count) + " include(s))"});
  }

  // Cycles in the observed graph (reported even if every edge is allowed —
  // belt and suspenders with the allow-cycle check above).
  {
    std::map<std::string, std::set<std::string>> observed;
    for (const auto& [key, e] : edges) observed[e.from].insert(e.to);
    const auto cycle = find_cycle(observed);
    if (!cycle.empty())
      findings.push_back({"layer-cycle", layers_file, 0,
                          "observed include cycle: " + join_cycle(cycle)});
  }

  // DOT artifact: the architecture as checked, violations in red, allowed-
  // but-unused edges dashed.
  if (!dot_file.empty()) {
    std::ofstream dot(dot_file);
    if (!dot) {
      std::cerr << "gradcheck: cannot write DOT file: " << dot_file << "\n";
      return 2;
    }
    dot << "// generated by gradcheck --deps from " << layers_file << "\n";
    dot << "digraph gradcomp_layers {\n";
    dot << "  rankdir=BT;\n";
    dot << "  node [shape=box, style=rounded, fontname=\"Helvetica\"];\n";
    for (const auto& m : cfg.modules) dot << "  \"" << m.name << "\";\n";
    for (const auto& [key, e] : edges) {
      dot << "  \"" << e.from << "\" -> \"" << e.to << "\"";
      if (cfg.allow_set.count(key) == 0)
        dot << " [color=red, penwidth=2.0, label=\"VIOLATION\"]";
      dot << ";\n";
    }
    for (const auto& [from, to] : cfg.allow)
      if (edges.count({from, to}) == 0)
        dot << "  \"" << from << "\" -> \"" << to << "\" [style=dashed, color=gray60];\n";
    dot << "}\n";
  }

  std::ostringstream report;
  for (const auto& f : findings) {
    report << f.path;
    if (f.line > 0) report << ":" << f.line;
    report << ": [" << f.rule << "] " << f.message << "\n";
  }
  report << "gradcheck --deps: " << files_scanned << " files, " << edges.size()
         << " module edge(s), " << findings.size() << " finding(s)\n";
  std::cout << report.str();
  if (!report_file.empty()) {
    std::ofstream out(report_file);
    out << report.str();
  }
  return findings.empty() ? 0 : 1;
}

// --- Lock-order driver (--locks) --------------------------------------------

int run_locks(const std::vector<std::string>& roots, const std::string& dot_file,
              const std::string& suppressions_file, const std::string& report_file) {
  // Phase 1: tokenize every file once and collect scope-qualified mutex
  // declarations; phase 2 re-walks the token streams resolving acquisition
  // sites against the full cross-TU table (a lock declared in a header is
  // acquired from the .cpp, so resolution needs every declaration first).
  std::vector<std::pair<std::string, std::vector<Token>>> sources;
  std::vector<LockDecl> decls;
  int files_scanned = 0;
  for (const auto& file : collect_sources(roots)) {
    ++files_scanned;
    std::ifstream in(file);
    std::stringstream buffer;
    buffer << in.rdbuf();
    sources.emplace_back(file.generic_string(), tokenize(buffer.str()));
    collect_lock_decls(sources.back().first, sources.back().second, decls);
  }

  LockIndex index;
  for (const auto& d : decls) index.add(d);

  std::map<std::pair<std::string, std::string>, LockEdge> edges;
  std::vector<Finding> findings;
  for (const auto& [path, toks] : sources)
    analyze_locks_file(path, toks, &index, &edges, findings);

  const std::map<std::string, LockDecl>& locks = index.by_id;

  // Any cycle in the acquisition-order graph is a potential AB/BA deadlock:
  // two threads walking the cycle from different entry points block each
  // other forever on some interleaving.
  std::set<std::pair<std::string, std::string>> cycle_edges;
  {
    std::map<std::string, std::set<std::string>> graph;
    for (const auto& [key, e] : edges) graph[e.from].insert(e.to);
    const auto cycle = find_cycle(graph);
    if (!cycle.empty()) {
      for (std::size_t i = 0; i + 1 < cycle.size(); ++i)
        cycle_edges.emplace(cycle[i], cycle[i + 1]);
      const auto first = edges.find({cycle[0], cycle[1]});
      findings.push_back({"potential-deadlock",
                          first != edges.end() ? first->second.site : roots.front(), 0,
                          "lock-acquisition-order cycle: " + join_cycle(cycle) +
                              " — two threads entering at different points deadlock; impose "
                              "one order (core::sync::LockRank) and acquire ascending"});
    }
  }

  std::vector<Suppression> sups;
  if (!suppressions_file.empty()) {
    sups = load_suppressions(suppressions_file);
    validate_suppressions(suppressions_file, sups);
  }
  std::vector<Finding> reported;
  int suppressed_count = 0;
  for (auto& f : findings) {
    if (suppressed(f, sups)) {
      ++suppressed_count;
    } else {
      reported.push_back(std::move(f));
    }
  }
  append_stale(reported, suppressions_file, sups, {"potential-deadlock", "blocking-under-lock"});

  // DOT artifact: the lock hierarchy as observed. Nodes are declared locks
  // (rank-annotated when OrderedMutex declares one), solid edges are
  // observed nested acquisitions, cycle edges red. Isolated nodes are locks
  // never held together with another — the healthy steady state.
  if (!dot_file.empty()) {
    std::ofstream dot(dot_file);
    if (!dot) {
      std::cerr << "gradcheck: cannot write DOT file: " << dot_file << "\n";
      return 2;
    }
    dot << "// generated by gradcheck --locks\n";
    dot << "digraph gradcomp_locks {\n";
    dot << "  rankdir=BT;\n";
    dot << "  node [shape=box, style=rounded, fontname=\"Helvetica\"];\n";
    for (const auto& [name, d] : locks) {
      dot << "  \"" << name << "\"";
      if (!d.rank.empty()) dot << " [label=\"" << name << "\\n" << d.rank << "\"]";
      dot << ";\n";
    }
    for (const auto& [key, e] : edges) {
      dot << "  \"" << e.from << "\" -> \"" << e.to << "\"";
      if (cycle_edges.count(key) > 0) dot << " [color=red, penwidth=2.0, label=\"CYCLE\"]";
      dot << ";\n";
    }
    dot << "}\n";
  }

  std::ostringstream report;
  for (const auto& f : reported) {
    report << f.path;
    if (f.line > 0) report << ":" << f.line;
    report << ": [" << f.rule << "] " << f.message << "\n";
  }
  report << "gradcheck --locks: " << files_scanned << " files, " << locks.size() << " lock(s), "
         << edges.size() << " order edge(s), " << reported.size() << " finding(s), "
         << suppressed_count << " suppressed\n";
  std::cout << report.str();
  if (!report_file.empty()) {
    std::ofstream out(report_file);
    out << report.str();
  }
  return reported.empty() ? 0 : 1;
}

int run_share(const std::vector<std::string>& roots, const std::string& suppressions_file,
              const std::string& report_file) {
  // Same two-phase shape as --locks: annotations live in headers, accesses
  // in .cpp files, so the guard map must be complete before any file is
  // judged.
  std::vector<std::pair<std::string, std::vector<Token>>> sources;
  ShareDB db;
  int files_scanned = 0;
  for (const auto& file : collect_sources(roots)) {
    ++files_scanned;
    std::ifstream in(file);
    std::stringstream buffer;
    buffer << in.rdbuf();
    sources.emplace_back(file.generic_string(), tokenize(buffer.str()));
    collect_share_file(sources.back().second, db);
  }

  std::vector<Finding> findings;
  for (const auto& [path, toks] : sources) analyze_share_file(path, toks, db, findings);

  std::vector<Suppression> sups;
  if (!suppressions_file.empty()) {
    sups = load_suppressions(suppressions_file);
    validate_suppressions(suppressions_file, sups);
  }
  std::vector<Finding> reported;
  int suppressed_count = 0;
  for (auto& f : findings) {
    if (suppressed(f, sups)) {
      ++suppressed_count;
    } else {
      reported.push_back(std::move(f));
    }
  }
  append_stale(reported, suppressions_file, sups,
               {"unguarded-access", "unguarded-capture", "unannotated-shared-field"});

  std::ostringstream report;
  for (const auto& f : reported) {
    report << f.path;
    if (f.line > 0) report << ":" << f.line;
    report << ": [" << f.rule << "] " << f.message << "\n";
  }
  report << "gradcheck --share: " << files_scanned << " files, " << db.guarded_fields()
         << " guarded field(s), " << reported.size() << " finding(s), " << suppressed_count
         << " suppressed\n";
  std::cout << report.str();
  if (!report_file.empty()) {
    std::ofstream out(report_file);
    out << report.str();
  }
  return reported.empty() ? 0 : 1;
}

// --- Fixtures self-test -----------------------------------------------------

int run_fixtures(const std::string& dir) {
  // Fixture files get every token, conc, AND det rule plus the per-file
  // blocking-under-lock analysis: each must trip exactly its named rule and
  // nothing else, which doubles as a cross-rule independence check. The
  // deps/locks/sup fixture trees follow different protocols — whole-tree
  // scans and suppressions files driven by WILL_FAIL ctest entries — so
  // they are skipped here.
  std::map<std::string, RuleFn> all_rules = token_rules();
  for (const auto& [name, fn] : conc_rules()) all_rules.emplace(name, fn);
  for (const auto& [name, fn] : det_rules()) all_rules.emplace(name, fn);
  std::set<std::string> all_names;
  for (const auto& [name, fn] : all_rules) all_names.insert(name);

  int failures = 0;
  int checked = 0;
  for (const auto& file : collect_sources({dir})) {
    const std::string gp = file.generic_string();
    if (path_contains(gp, "/deps/") || path_contains(gp, "/locks/") ||
        path_contains(gp, "/sup/"))
      continue;
    ++checked;
    const std::string stem = file.stem().string();
    auto findings = check_file(file, all_rules, all_names);
    {
      std::ifstream in(file);
      std::stringstream buffer;
      buffer << in.rdbuf();
      const std::vector<Token> toks = tokenize(buffer.str());
      analyze_locks_file(gp, toks, nullptr, nullptr, findings);
      // Share rules run per-fixture with a guard map built from the file
      // itself — a fixture is a self-contained TU.
      ShareDB db;
      collect_share_file(toks, db);
      analyze_share_file(gp, toks, db, findings);
    }
    std::set<std::string> rules_hit;
    for (const auto& f : findings) rules_hit.insert(f.rule);
    if (stem.rfind("clean", 0) == 0) {
      if (!findings.empty()) {
        std::cerr << "FAIL " << file << ": expected no findings, got:\n";
        for (const auto& f : findings)
          std::cerr << "  " << f.rule << " at line " << f.line << ": " << f.message << "\n";
        ++failures;
      } else {
        std::cout << "ok   " << file.filename().string() << " (no findings)\n";
      }
      continue;
    }
    // <rule>_*.cpp must trigger exactly <rule>.
    const auto cut = stem.find("__");
    const std::string expect =
        cut == std::string::npos ? stem : stem.substr(0, cut);
    std::string expected_rule = expect;
    std::replace(expected_rule.begin(), expected_rule.end(), '_', '-');
    if (rules_hit.count(expected_rule) == 0) {
      std::cerr << "FAIL " << file << ": expected rule '" << expected_rule
                << "' to fire, it did not\n";
      ++failures;
    } else if (rules_hit.size() > 1) {
      std::cerr << "FAIL " << file << ": expected only '" << expected_rule << "', got:";
      for (const auto& r : rules_hit) std::cerr << " " << r;
      std::cerr << "\n";
      ++failures;
    } else {
      std::cout << "ok   " << file.filename().string() << " (" << expected_rule << " fired)\n";
    }
  }
  if (failures > 0) {
    std::cerr << "gradcheck self-test: " << failures << " fixture(s) failed\n";
    return 1;
  }
  std::cout << "gradcheck self-test: all " << checked << " fixtures behaved\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  std::string suppressions_file;
  std::string report_file;
  std::string fixtures_dir;
  std::string layers_file;
  std::string dot_file;
  bool conc_mode = false;
  bool deps_mode = false;
  bool locks_mode = false;
  bool det_mode = false;
  bool share_mode = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--suppressions" && i + 1 < argc) {
      suppressions_file = argv[++i];
    } else if (arg == "--report" && i + 1 < argc) {
      report_file = argv[++i];
    } else if (arg == "--fixtures" && i + 1 < argc) {
      fixtures_dir = argv[++i];
    } else if (arg == "--layers" && i + 1 < argc) {
      layers_file = argv[++i];
    } else if (arg == "--dot" && i + 1 < argc) {
      dot_file = argv[++i];
    } else if (arg == "--conc") {
      conc_mode = true;
    } else if (arg == "--deps") {
      deps_mode = true;
    } else if (arg == "--locks") {
      locks_mode = true;
    } else if (arg == "--det") {
      det_mode = true;
    } else if (arg == "--share") {
      share_mode = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: gradcheck [--conc|--det] [--suppressions FILE] [--report FILE] DIR...\n"
                   "       gradcheck --locks DIR... [--dot FILE] [--suppressions FILE] "
                   "[--report FILE]\n"
                   "       gradcheck --share DIR... [--suppressions FILE] [--report FILE]\n"
                   "       gradcheck --deps DIR... --layers FILE [--dot FILE] [--report FILE]\n"
                   "       gradcheck --fixtures DIR\n";
      return 0;
    } else {
      roots.push_back(arg);
    }
  }

  if (!fixtures_dir.empty()) return run_fixtures(fixtures_dir);
  if (roots.empty()) {
    std::cerr << "gradcheck: no inputs (try --help)\n";
    return 2;
  }
  if (deps_mode) {
    if (layers_file.empty()) {
      std::cerr << "gradcheck: --deps requires --layers FILE\n";
      return 2;
    }
    return run_deps(roots, layers_file, dot_file, report_file);
  }
  if (locks_mode) return run_locks(roots, dot_file, suppressions_file, report_file);
  if (share_mode) return run_share(roots, suppressions_file, report_file);

  const auto& rules = det_mode ? det_rules() : conc_mode ? conc_rules() : token_rules();
  std::set<std::string> rule_universe;
  for (const auto& [name, fn] : rules) rule_universe.insert(name);

  std::vector<Suppression> sups;
  if (!suppressions_file.empty()) {
    sups = load_suppressions(suppressions_file);
    validate_suppressions(suppressions_file, sups);
  }

  std::vector<Finding> reported;
  int suppressed_count = 0;
  int files_scanned = 0;
  for (const auto& file : collect_sources(roots)) {
    ++files_scanned;
    const std::string p = file.generic_string();
    const auto enabled =
        det_mode ? det_rules_for(p) : conc_mode ? conc_rules_for(p) : token_rules_for(p);
    for (auto& f : check_file(file, rules, enabled)) {
      if (suppressed(f, sups)) {
        ++suppressed_count;
      } else {
        reported.push_back(std::move(f));
      }
    }
  }

  // Stale suppressions are findings: an entry that absorbs nothing is a
  // reviewed exception whose reason has evaporated, and the file may only
  // shrink. Entries for the other passes' rules are left to those passes.
  append_stale(reported, suppressions_file, sups, rule_universe);

  const char* mode_label = det_mode ? " --det" : conc_mode ? " --conc" : "";
  std::ostringstream report;
  for (const auto& f : reported)
    report << f.path << ":" << f.line << ": [" << f.rule << "] " << f.message << "\n";
  report << "gradcheck" << mode_label << ": " << files_scanned << " files, "
         << reported.size() << " finding(s), " << suppressed_count << " suppressed\n";
  std::cout << report.str();
  if (!report_file.empty()) {
    std::ofstream out(report_file);
    out << report.str();
  }
  return reported.empty() ? 0 : 1;
}
