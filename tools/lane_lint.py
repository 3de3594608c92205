#!/usr/bin/env python3
"""lane_lint: lane-confinement analyzer for the agile-migration tree.

The lane runtime (src/sim/lanes.*) gives parallel windows determinism by
contract, not by locks: lane events may only touch their own channel's state,
cross-lane work goes through LaneCoordinator::post, and the thread-local
sim/log/trace registries are only rebound by the coordinator's thread hooks.
Clang -Wthread-safety (tools/check_thread_safety.sh) enforces the *locked*
structures; this tool enforces the *unlocked* contract — the part no compiler
flag covers — by building a call graph from every lambda handed to a lane or
pool entry point and walking what it can reach.

Rules (each finding carries its rule id):

  LL001 cross-lane-schedule    Simulation::schedule_at / schedule_after /
                               schedule_periodic / cancel reachable from lane
                               or pool-task context. Lane code must use
                               LaneCoordinator::post (cross-lane) or
                               LaneCoordinator::schedule (lane-local): raw
                               Simulation mutation from a lane thread races
                               the coordinator's heap.
  LL002 raw-sim-capture        A raw Simulation* / TraceRecorder* (or a
                               default [&]/[=] capture, which can smuggle one
                               invisibly) captured into a ThreadPool::submit
                               lambda. Pool tasks outlive scopes and run on
                               foreign threads; they must receive explicitly
                               owned or lane-confined state.
  LL003 thread-local-in-task   A read/write of a registered thread_local
                               (t_lane_ctx, g_active_sim, g_saved_sim)
                               reachable from task/lane context outside the
                               sanctioned accessors. Worker threads see
                               different instances than the coordinator; only
                               the lane runtime itself and the thread hooks
                               may touch these.
  LL004 plain-shared-counter   A registered cross-lane counter whose member
                               declaration is not its registered type:
                               util::LaneSums (lane-sharded rows) for the
                               per-page network and VMD sums,
                               util::RelaxedCell for the stats cells. The
                               registry lives in REGISTRY below and is
                               documented at each member (network.hpp,
                               vmd.hpp, stats.hpp, lane_sums.hpp).

Frontends (--frontend=auto|tokens|libclang):

  tokens    Self-contained deterministic token-level C++ frontend (comments,
            strings, raw strings, preprocessor lines stripped; function
            definitions, lambdas with capture lists and host-call context,
            calls with receiver chains, thread_local declarations, member
            declarations). Always available; the reference implementation.
  libclang  Adds a clang.cindex AST pass over the CMake compilation database
            that cross-validates the token model (function definitions,
            thread_local variables, registry member types) against the real
            AST and augments it with anything the tokens missed. Requires the
            python clang bindings; `--frontend=libclang` exits 77 (SKIP)
            without them, `auto` silently runs tokens-only.

Known limits (accepted, documented): calls through std::function values and
function pointers (e.g. &active_sim_now installed as a log time source by the
cluster's thread hooks) are invisible to the graph — those sites are covered
by the hook sanctioning and by TSan (tools/analyze.sh tsan).

Output: human-readable findings plus --json for machine consumption. The
allowlist (tools/lane_lint_allow.txt) suppresses individual findings; every
entry MUST carry a justification comment and every entry MUST still match a
finding — unjustified or stale entries are hard errors (exit 2), so the list
can only shrink unless someone writes down a reason.

Exit codes: 0 clean, 1 unallowlisted findings, 2 configuration error
(bad/stale allowlist, registry member not found), 77 requested frontend
unavailable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

TOOL_VERSION = "1.0"

# Directories whose code is lane-rule-scoped (LL001-LL003). bench/ is
# deliberately outside: each sweep task owns its entire Simulation, so the
# lane rules (which police tasks *sharing* one simulation) do not apply —
# see bench/parallel_sweep.hpp. src/stats is in scope because the cluster's
# periodic scrape fans per-host metric collection across the lanes: stats
# cells are written from lane context, so the module is subject to the same
# confinement contract as the lane runtime itself. src/net is in scope
# because lane events feed the shared topology model concurrently (client
# traffic, demand-RPC accounting): its per-link accumulators must stay
# commutative LaneSums (LL004) and its code is lane-confined like the
# rest of the quantum loop.
SCAN_DIRS = ("src/sim", "src/host", "src/core", "src/stats", "src/net")

# Entry points whose directly-passed lambdas become call-graph roots, with
# the execution context the lambda runs in. `schedule` is only an entry
# point on a lane-coordinator receiver (the bare name is too generic).
ENTRY_POINTS = {
    "submit": "task",            # util::ThreadPool::submit
    "post": "lane",              # sim::LaneCoordinator::post
    "schedule": "lane",          # sim::LaneCoordinator::schedule (see below)
    "schedule_on_host": "lane",  # host::Cluster::schedule_on_host
    "parallel_phase": "lane",    # host::Cluster::parallel_phase
    "set_thread_hooks": "hook",  # sim::LaneCoordinator::set_thread_hooks
}
SCHEDULE_RECEIVER_HINTS = ("lanes", "coordinator")

# LL001: Simulation event-queue mutators banned outside the coordinator.
BANNED_SCHEDULERS = {"schedule_at", "schedule_after", "schedule_periodic"}
# `cancel` is only banned on a simulation-ish receiver (PeriodicTask handles
# also have cancel(), and those are coordinator-owned).
BANNED_CANCEL_RECEIVER_HINT = "sim"

# LL003: the lane runtime's own accessors may touch the thread-local
# registry; everything else reachable from task/lane context may not.
SANCTIONED_TL_USERS = {
    "LaneCoordinator::run_lane",
    "LaneCoordinator::schedule",
    "LaneCoordinator::post",
    "LaneCoordinator::thread_event_time",
    "LaneCoordinator::thread_lane",
}

# LL002: pointer/reference types that must never ride raw into a pool task.
FORBIDDEN_CAPTURE_TYPES = ("Simulation", "TraceRecorder")

# LL004 registry: (file, class, member, type) entries documented as
# cross-lane commutative counters, each of which MUST be declared with its
# registered type. Keep in sync with the "lane_lint LL004 registry" comments
# at each member.
REGISTRY = (
    # The per-page shared paths (every eviction is a VMD page write whose
    # bytes cross the fabric): per-link background bytes, debited on every
    # link of a path from parallel lanes, and a VMD server's page counts.
    # Lane-sharded rows keep locked RMWs on shared lines off that path;
    # a RelaxedCell here would compile and stay correct but bring the
    # contention back, so it fails the rule like a plain integer does
    # (network.hpp and vmd.hpp document the contract at the member).
    ("src/net/network.hpp", "Network", "background_", "LaneSums"),
    ("src/vmd/vmd.hpp", "VmdServer", "pages_", "LaneSums"),
    # The stats registry's value cells: lane events bump them concurrently
    # during the scrape fan-out, so golden stats snapshots are only
    # lane-count-independent while every cell stays a commutative
    # RelaxedCell (stats.hpp documents the contract at each member).
    ("src/stats/stats.hpp", "Counter", "v_", "RelaxedCell"),
    ("src/stats/stats.hpp", "Gauge", "v_", "RelaxedCell"),
    ("src/stats/stats.hpp", "Histogram", "buckets_", "RelaxedCell"),
    ("src/stats/stats.hpp", "Histogram", "count_", "RelaxedCell"),
    ("src/stats/stats.hpp", "Histogram", "sum_", "RelaxedCell"),
)

RULE_TITLES = {
    "LL001": "cross-lane-schedule",
    "LL002": "raw-sim-capture",
    "LL003": "thread-local-in-task",
    "LL004": "plain-shared-counter",
}

CPP_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "do", "else", "try", "new", "delete", "throw", "case", "default",
    "static_assert", "co_return", "co_await", "co_yield",
}

# ">>" appears when nested templates close without a space, e.g.
# std::vector<util::RelaxedCell<std::uint64_t>> (stats.hpp's bucket array).
TYPE_CHAIN_TOKENS = {"::", "<", ">", ">>", ",", "*", "&", "(", ")"}


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

class Tok:
    __slots__ = ("kind", "value", "line")

    def __init__(self, kind, value, line):
        self.kind = kind      # 'id' | 'num' | 'str' | 'punct'
        self.value = value
        self.line = line

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Tok({self.kind},{self.value!r},{self.line})"


PUNCT3 = ("<<=", ">>=", "...", "->*")
PUNCT2 = ("::", "->", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
          "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--")


def tokenize(text):
    """C++-aware token stream: comments, preprocessor lines, and string
    contents stripped; line numbers preserved."""
    toks = []
    i, n, line = 0, len(text), 1
    at_line_start = True
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "#" and at_line_start:
            # Preprocessor logical line (with backslash continuations).
            while i < n:
                j = text.find("\n", i)
                if j < 0:
                    i = n
                    break
                # Count the continuation before the newline, ignoring CR.
                k = j - 1
                while k >= 0 and text[k] in " \t\r":
                    k -= 1
                line += 1
                i = j + 1
                if k < 0 or text[k] != "\\":
                    break
            at_line_start = True
            continue
        at_line_start = False
        if c == "/" and i + 1 < n:
            if text[i + 1] == "/":
                j = text.find("\n", i)
                i = n if j < 0 else j
                continue
            if text[i + 1] == "*":
                j = text.find("*/", i + 2)
                if j < 0:
                    break
                line += text.count("\n", i, j + 2)
                i = j + 2
                continue
        if c == "R" and text[i:i + 2] == 'R"':
            # Raw string literal R"delim( ... )delim"
            j = text.find("(", i + 2)
            if j > 0:
                delim = text[i + 2:j]
                end = text.find(")" + delim + '"', j + 1)
                if end > 0:
                    line += text.count("\n", i, end)
                    toks.append(Tok("str", "<rawstr>", line))
                    i = end + len(delim) + 2
                    continue
        if c == '"' or c == "'":
            q = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == q:
                    break
                if text[j] == "\n":  # unterminated; bail at line end
                    break
                j += 1
            toks.append(Tok("str", "<str>" if q == '"' else "<chr>", line))
            i = min(j + 1, n)
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Tok("id", text[i:j], line))
            i = j
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "._'" or
                             (text[j] in "+-" and text[j - 1] in "eEpP")):
                j += 1
            toks.append(Tok("num", text[i:j], line))
            i = j
            continue
        three, two = text[i:i + 3], text[i:i + 2]
        if three in PUNCT3:
            toks.append(Tok("punct", three, line))
            i += 3
        elif two in PUNCT2:
            toks.append(Tok("punct", two, line))
            i += 2
        else:
            toks.append(Tok("punct", c, line))
            i += 1
    return toks


# ---------------------------------------------------------------------------
# Per-file structural model
# ---------------------------------------------------------------------------

class FuncDef:
    __slots__ = ("qualname", "name", "file", "line", "body", "calls",
                 "tl_refs")

    def __init__(self, qualname, file, line, body):
        self.qualname = qualname
        self.name = qualname.split("::")[-1]
        self.file = file
        self.line = line
        self.body = body          # (open_brace_idx, close_brace_idx)
        self.calls = []           # [(name, receiver, line)]
        self.tl_refs = []         # [(tl_name, line)]


class LambdaExpr:
    __slots__ = ("file", "line", "captures", "body", "host_call",
                 "host_receiver", "calls", "tl_refs")

    def __init__(self, file, line, captures, body, host_call, host_receiver):
        self.file = file
        self.line = line
        self.captures = captures        # list of capture token lists
        self.body = body                # (open_brace_idx, close_brace_idx)
        self.host_call = host_call      # callee name the lambda is an arg of
        self.host_receiver = host_receiver
        self.calls = []
        self.tl_refs = []


class FileModel:
    def __init__(self, path, relpath, toks):
        self.path = path
        self.relpath = relpath
        self.toks = toks
        self.defs = []          # FuncDef
        self.lambdas = []       # LambdaExpr
        self.tl_names = []      # thread_local variable names declared here
        self.match = {}         # open-bracket idx -> close idx (and reverse)


def _match_brackets(toks, match):
    stacks = {"(": [], "{": [], "[": []}
    closer = {")": "(", "}": "{", "]": "["}
    for i, t in enumerate(toks):
        if t.kind != "punct":
            continue
        if t.value in stacks:
            stacks[t.value].append(i)
        elif t.value in closer:
            st = stacks[closer[t.value]]
            if st:
                o = st.pop()
                match[o] = i
                match[i] = o


def _walk_name_chain(toks, k):
    """Given index k of an identifier, walk back over `A::B::` qualifiers.
    Returns (chain_string, index_of_first_chain_token)."""
    parts = [toks[k].value]
    start = k
    while start >= 2 and toks[start - 1].value == "::" and \
            toks[start - 2].kind == "id":
        parts.insert(0, toks[start - 2].value)
        start -= 2
    return "::".join(parts), start


def _receiver_chain(toks, name_start, limit=16):
    """Token text immediately preceding a call name — `lanes_->`,
    `bed->cluster().`, `trace::` — used for receiver-hint matching."""
    parts = []
    j = name_start - 1
    while j >= 0 and len(parts) < limit:
        v = toks[j].value
        if v in (".", "->", "::"):
            parts.append(v)
            j -= 1
        elif toks[j].kind == "id" and parts and parts[-1] in (".", "->", "::"):
            parts.append(v)
            j -= 1
        elif v == ")" and parts and parts[-1] in (".", "->"):
            parts.append(v)
            j -= 1
        else:
            break
    return "".join(reversed(parts))


def _skip_trailing_specifiers(toks, j, match):
    """From index j (just before a `{`), walk back over `const noexcept
    override final mutable`, AGILE_*(...) attribute macros, and a trailing
    `-> type` return. Returns the index expected to hold the parameter
    list's `)`."""
    while j >= 0:
        t = toks[j]
        if t.kind == "id" and t.value in ("const", "noexcept", "override",
                                          "final", "mutable"):
            j -= 1
            continue
        if t.value == ")" and j in match:
            o = match[j]
            if o >= 1 and toks[o - 1].kind == "id" and \
                    toks[o - 1].value.startswith("AGILE_"):
                j = o - 2
                continue
            # `noexcept(...)`
            if o >= 1 and toks[o - 1].value == "noexcept":
                j = o - 2
                continue
            return j
        if t.kind == "id" or t.value in ("::", "<", ">", "*", "&", ","):
            # Possibly a trailing return type; scan back for `->`.
            k = j
            while k >= 0 and (toks[k].kind == "id" or
                              toks[k].value in ("::", "<", ">", "*", "&",
                                                ",", "(", ")")):
                k -= 1
            if k >= 0 and toks[k].value == "->":
                j = k - 1
                continue
            return j
        return j
    return j


def _ctor_initlist_walkback(toks, j, match):
    """From index j holding a `)` just before `{`, walk back over a possible
    constructor init list `: a_(x), b_{y}` and return the index of the real
    parameter-list `)` (or j itself when there is no init list)."""
    cur = j
    for _ in range(64):  # bounded: init lists are short
        if toks[cur].value not in (")", "}") or cur not in match:
            return j
        o = match[cur]
        k = o - 1
        if k < 0 or toks[k].kind != "id":
            return j
        _, start = _walk_name_chain(toks, k)
        p = start - 1
        if p < 0:
            return j
        if toks[p].value == ",":
            cur = p - 1
            continue
        if toks[p].value == ":" and p >= 1 and toks[p - 1].value == ")":
            return p - 1
        return j
    return j


def build_file_model(path, relpath, text):
    toks = tokenize(text)
    fm = FileModel(path, relpath, toks)
    _match_brackets(toks, fm.match)
    n = len(toks)

    # thread_local declarations (file scope in this tree).
    i = 0
    while i < n:
        if toks[i].kind == "id" and toks[i].value == "thread_local":
            j = i + 1
            last_id = None
            while j < n and toks[j].value not in (";", "="):
                if toks[j].kind == "id":
                    last_id = toks[j].value
                j += 1
            if last_id:
                fm.tl_names.append(last_id)
            i = j
        i += 1

    # Structural pass: classes, function definitions, lambdas.
    class_stack = []   # (name, close_brace_idx)
    lambda_bodies = set()
    paren_callees = {}  # open-paren idx -> (callee name, receiver)

    i = 0
    while i < n:
        t = toks[i]
        # Maintain class stack.
        while class_stack and i > class_stack[-1][1]:
            class_stack.pop()

        if t.kind == "id" and i + 1 < n and toks[i + 1].value == "(" and \
                t.value not in CPP_KEYWORDS:
            chain, start = _walk_name_chain(toks, i)
            paren_callees[i + 1] = (t.value, _receiver_chain(toks, start))

        if t.value == "[" and t.kind == "punct":
            lam = _try_lambda(fm, i, paren_callees, lambda_bodies)
            if lam is not None:
                fm.lambdas.append(lam)

        if t.value == "{" and t.kind == "punct" and i in fm.match:
            close = fm.match[i]
            if i in lambda_bodies:
                pass  # already recorded as a lambda body
            else:
                kind, name = _classify_brace(fm, i, class_stack)
                if kind == "class":
                    class_stack.append((name, close))
                elif kind == "func":
                    qual = name
                    if "::" not in qual and class_stack:
                        qual = class_stack[-1][0] + "::" + qual
                    fm.defs.append(FuncDef(qual, relpath, toks[i].line,
                                           (i, close)))
        i += 1

    for d in fm.defs:
        _scan_body(fm, d.body, d.calls, d.tl_refs)
    for lam in fm.lambdas:
        _scan_body(fm, lam.body, lam.calls, lam.tl_refs)
    return fm


def _try_lambda(fm, i, paren_callees, lambda_bodies):
    toks, match = fm.toks, fm.match
    n = len(toks)
    prev = toks[i - 1] if i > 0 else None
    if prev is not None:
        if prev.kind in ("id", "num", "str") or prev.value in (")", "]"):
            return None  # subscript / array declarator / attribute tail
    if i + 1 < n and toks[i + 1].value == "[":
        return None  # [[attribute]]
    if i not in match:
        return None
    cap_close = match[i]
    captures = _split_captures(toks, i + 1, cap_close)
    j = cap_close + 1
    if j < n and toks[j].value == "(" and j in match:
        j = match[j] + 1
    # Specifiers / trailing return before the body.
    guard = 0
    while j < n and toks[j].value != "{" and guard < 32:
        if toks[j].kind == "id" and toks[j].value in ("mutable", "noexcept",
                                                      "constexpr"):
            j += 1
        elif toks[j].value == "->":
            j += 1
            while j < n and (toks[j].kind == "id" or
                             toks[j].value in ("::", "<", ">", "*", "&")):
                j += 1
        elif toks[j].value == "(" and j in match:
            j = match[j] + 1  # noexcept(...)
        else:
            return None
        guard += 1
    if j >= n or toks[j].value != "{" or j not in match:
        return None
    lambda_bodies.add(j)
    # Host call: the innermost unclosed call paren enclosing the `[`.
    host_call, host_receiver = None, ""
    depth_opens = [o for o in paren_callees
                   if o < i and match.get(o, -1) > i]
    if depth_opens:
        o = max(depth_opens)
        host_call, host_receiver = paren_callees[o]
    return LambdaExpr(fm.relpath, toks[i].line, captures, (j, match[j]),
                      host_call, host_receiver)


def _split_captures(toks, start, end):
    """Split a capture list's tokens on top-level commas."""
    entries, cur, depth = [], [], 0
    for k in range(start, end):
        v = toks[k].value
        if v in ("(", "[", "{", "<"):
            depth += 1
        elif v in (")", "]", "}", ">"):
            depth = max(0, depth - 1)
        if v == "," and depth == 0:
            if cur:
                entries.append(cur)
            cur = []
        else:
            cur.append(toks[k])
    if cur:
        entries.append(cur)
    return entries


def _classify_brace(fm, i, class_stack):
    toks, match = fm.toks, fm.match
    j = i - 1
    if j < 0:
        return "block", None
    t = toks[j]
    if t.kind == "id":
        if t.value == "namespace":
            return "ns", ""
        if j >= 1 and toks[j - 1].value == "namespace":
            return "ns", t.value
        # class/struct (possibly with bases or attribute macros).
        k = j
        guard = 0
        while k >= 0 and guard < 48:
            v = toks[k].value
            if toks[k].kind == "id" and v in ("class", "struct", "union"):
                m = k + 1
                while m < len(toks) and toks[m].kind == "id" and \
                        toks[m].value.startswith("AGILE_"):
                    m += 1
                    if m < len(toks) and toks[m].value == "(":
                        m = match.get(m, m) + 1
                if m < len(toks) and toks[m].kind == "id":
                    return "class", toks[m].value
                return "block", None
            if toks[k].kind == "id" or v in (":", ",", "::", "<", ">",
                                             "final"):
                k -= 1
                guard += 1
                continue
            break
        return "block", None
    if t.value == ")":
        j = _skip_trailing_specifiers(toks, i - 1, match)
        if j < 0 or toks[j].value != ")":
            return "block", None
        j = _ctor_initlist_walkback(toks, j, match)
        if toks[j].value != ")" or j not in match:
            return "block", None
        o = match[j]
        k = o - 1
        if k < 0:
            return "block", None
        if toks[k].kind == "id":
            if toks[k].value in ("if", "for", "while", "switch", "catch"):
                return "block", None
            chain, start = _walk_name_chain(toks, k)
            p = start - 1
            if p >= 0 and toks[p].value in (".", "->"):
                return "block", None
            return "func", chain
        if toks[k].value == ")" and k >= 2 and toks[k - 1].value == "(" and \
                toks[k - 2].value == "operator":
            return "func", "operator()"
        return "block", None
    return "block", None


def _scan_body(fm, body, calls, tl_refs):
    toks = fm.toks
    s, e = body
    tl_set = set(fm.tl_names) | set(GLOBAL_TL_NAMES)
    for k in range(s + 1, e):
        t = toks[k]
        if t.kind != "id":
            continue
        nxt = toks[k + 1] if k + 1 < len(toks) else None
        if nxt is not None and nxt.value == "(" and \
                t.value not in CPP_KEYWORDS:
            _, start = _walk_name_chain(toks, k)
            calls.append((t.value, _receiver_chain(toks, start), t.line))
        if t.value in tl_set and (nxt is None or nxt.value != "("):
            tl_refs.append((t.value, t.line))


# Populated before body scans run: thread_local names across all scanned
# files, so a TL declared in lanes.cpp is recognized in cluster.cpp bodies.
GLOBAL_TL_NAMES = set()


# ---------------------------------------------------------------------------
# Whole-tree model + rules
# ---------------------------------------------------------------------------

class Finding:
    def __init__(self, rule, file, line, message):
        self.rule = rule
        self.file = file
        self.line = line
        self.message = message
        self.allowlisted = False
        self.justification = None

    def key(self):
        return (self.file, self.line, self.rule, self.message)

    def as_json(self):
        d = {
            "rule": self.rule,
            "title": RULE_TITLES.get(self.rule, ""),
            "file": self.file,
            "line": self.line,
            "message": self.message,
            "allowlisted": self.allowlisted,
        }
        if self.justification:
            d["justification"] = self.justification
        return d


class Model:
    def __init__(self):
        self.files = []          # FileModel
        self.defs_by_name = {}   # last segment -> [FuncDef]
        self.defs_by_qual = {}   # qualname -> FuncDef

    def add(self, fm):
        self.files.append(fm)
        for d in fm.defs:
            self.defs_by_name.setdefault(d.name, []).append(d)
            self.defs_by_qual.setdefault(d.qualname, d)

    def resolve(self, call_name):
        return self.defs_by_name.get(call_name, ())


def load_model(root, scan_files, extra_tl_names=()):
    GLOBAL_TL_NAMES.clear()
    GLOBAL_TL_NAMES.update(extra_tl_names)
    pre = []
    for rel in scan_files:
        path = os.path.join(root, rel)
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
        pre.append((rel, path, text))
        # First pass: just harvest thread_local names.
        toks = tokenize(text)
        i = 0
        while i < len(toks):
            if toks[i].kind == "id" and toks[i].value == "thread_local":
                j = i + 1
                last_id = None
                while j < len(toks) and toks[j].value not in (";", "="):
                    if toks[j].kind == "id":
                        last_id = toks[j].value
                    j += 1
                if last_id:
                    GLOBAL_TL_NAMES.add(last_id)
                i = j
            i += 1
    model = Model()
    for rel, path, text in pre:
        model.add(build_file_model(path, rel, text))
    return model


def entry_context(lam):
    """Context a lambda runs in, or None when it is not an entry-point arg."""
    if lam.host_call is None:
        return None
    ctx = ENTRY_POINTS.get(lam.host_call)
    if ctx is None:
        return None
    if lam.host_call == "schedule":
        recv = lam.host_receiver.lower()
        if not any(h in recv for h in SCHEDULE_RECEIVER_HINTS):
            return None
    return ctx


def _check_calls_ll001(findings, calls, file, via):
    for name, receiver, line in calls:
        if name in BANNED_SCHEDULERS:
            findings.append(Finding(
                "LL001", file, line,
                f"Simulation::{name} reachable from {via}; lane code must "
                f"go through LaneCoordinator::post/schedule"))
        elif name == "cancel" and \
                BANNED_CANCEL_RECEIVER_HINT in receiver.lower():
            findings.append(Finding(
                "LL001", file, line,
                f"Simulation::cancel (receiver `{receiver}`) reachable from "
                f"{via}; cancellation belongs to the coordinator"))


def _capture_is_forbidden(fm, lam, entry_toks):
    """Does this capture entry name a raw Simulation*/TraceRecorder*?"""
    ids = [t for t in entry_toks if t.kind == "id" and t.value != "this"]
    if not ids:
        return None
    name = ids[0].value
    # Init-captures: `x = expr` — check the init expression's type names.
    for t in entry_toks:
        if t.kind == "id" and t.value in FORBIDDEN_CAPTURE_TYPES:
            return name
    # Find the nearest preceding declaration-ish occurrence of `name` and
    # look a few tokens back for a forbidden type name.
    toks = fm.toks
    lam_start = None
    for k in range(len(toks)):
        if toks[k].line >= lam.line and toks[k].value == "[":
            lam_start = k
            break
    if lam_start is None:
        return None
    for k in range(lam_start - 1, -1, -1):
        if toks[k].kind == "id" and toks[k].value == name:
            lo = max(0, k - 6)
            window = [toks[m].value for m in range(lo, k)]
            if any(w in FORBIDDEN_CAPTURE_TYPES for w in window):
                return name
            return None  # nearest declaration looks benign
    return None


def run_lane_rules(model):
    findings = []
    # --- Per-root reachability ----------------------------------------
    for fm in model.files:
        for lam in fm.lambdas:
            ctx = entry_context(lam)
            if ctx is None:
                continue
            root_desc = (f"lambda at {lam.file}:{lam.line} passed to "
                         f"{lam.host_call}()")
            # LL002: capture audit for pool tasks.
            if ctx == "task":
                for entry in lam.captures:
                    vals = [t.value for t in entry]
                    if vals == ["&"] or vals == ["="]:
                        findings.append(Finding(
                            "LL002", lam.file, lam.line,
                            f"default capture [{vals[0]}] in ThreadPool task "
                            f"({root_desc}); captures must be explicit so "
                            f"raw Simulation*/TraceRecorder* cannot ride "
                            f"along invisibly"))
                        continue
                    bad = _capture_is_forbidden(fm, lam, entry)
                    if bad is not None:
                        findings.append(Finding(
                            "LL002", lam.file, lam.line,
                            f"raw Simulation*/TraceRecorder* `{bad}` "
                            f"captured into ThreadPool task ({root_desc})"))
            if ctx == "hook":
                continue  # hooks are the sanctioned TL rebinding point
            # Direct body checks.
            _check_calls_ll001(findings, lam.calls, lam.file, root_desc)
            for tl_name, line in lam.tl_refs:
                findings.append(Finding(
                    "LL003", lam.file, line,
                    f"thread_local `{tl_name}` touched directly inside "
                    f"{root_desc}"))
            # BFS through named callees.
            seen = set()
            work = [(name, root_desc) for name, _, _ in lam.calls]
            while work:
                name, path = work.pop(0)
                for d in model.resolve(name):
                    if d.qualname in seen:
                        continue
                    seen.add(d.qualname)
                    via = f"{path} -> {d.qualname}"
                    _check_calls_ll001(findings, d.calls, d.file, via)
                    if d.qualname not in SANCTIONED_TL_USERS:
                        for tl_name, line in d.tl_refs:
                            findings.append(Finding(
                                "LL003", d.file, line,
                                f"thread_local `{tl_name}` read in "
                                f"{d.qualname} ({via}); only the lane "
                                f"runtime and thread hooks may touch the "
                                f"registry"))
                    for cname, _, _ in d.calls:
                        work.append((cname, via))
    # Dedupe (a def reachable from several roots reports once).
    out, seen_keys = [], set()
    for f in findings:
        k = f.key()
        if k not in seen_keys:
            seen_keys.add(k)
            out.append(f)
    return out


def run_registry_rule(root, registry, config_errors):
    """LL004: every registered counter member must have its registered
    type (util::LaneSums or util::RelaxedCell)."""
    findings = []
    by_file = {}
    for file, cls, member, want in registry:
        by_file.setdefault(file, []).append((cls, member, want))
    for rel in sorted(by_file):
        path = os.path.join(root, rel)
        if not os.path.exists(path):
            config_errors.append(f"LL004 registry file missing: {rel}")
            continue
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            toks = tokenize(f.read())
        match = {}
        _match_brackets(toks, match)
        # Track class extents.
        class_spans = []  # (name, open_idx, close_idx)
        for i, t in enumerate(toks):
            if t.kind == "id" and t.value in ("class", "struct") and \
                    i + 1 < len(toks) and toks[i + 1].kind == "id":
                j = i + 1
                while j < len(toks) and toks[j].value not in ("{", ";"):
                    j += 1
                if j < len(toks) and toks[j].value == "{" and j in match:
                    class_spans.append((toks[i + 1].value, j, match[j]))
        for cls, member, want in by_file[rel]:
            spans = [s for s in class_spans if s[0] == cls]
            if not spans:
                config_errors.append(
                    f"LL004 registry: class `{cls}` not found in {rel}")
                continue
            found_decl = False
            for _, o, c in spans:
                for k in range(o + 1, c):
                    t = toks[k]
                    if t.kind != "id" or t.value != member:
                        continue
                    nxt = toks[k + 1] if k + 1 < len(toks) else None
                    if nxt is None or nxt.value not in (";", "=", "{"):
                        continue
                    # Walk the declaration's type tokens backwards.
                    type_toks, j, ok = [], k - 1, True
                    while j > o:
                        v = toks[j].value
                        if v in (";", "{", "}") or \
                                (v == ":" and toks[j - 1].kind == "id" and
                                 toks[j - 1].value in ("public", "private",
                                                       "protected")):
                            break
                        if (toks[j].kind == "id" and
                                v not in CPP_KEYWORDS) or \
                                v in TYPE_CHAIN_TOKENS:
                            type_toks.append(v)
                            j -= 1
                            continue
                        ok = False
                        break
                    if not ok or not type_toks:
                        continue
                    found_decl = True
                    if want not in type_toks:
                        findings.append(Finding(
                            "LL004", rel, t.line,
                            f"{cls}::{member} is in the cross-lane counter "
                            f"registry but is not declared as "
                            f"util::{want} (declared type: "
                            f"`{' '.join(reversed(type_toks))}`)"))
            if not found_decl:
                config_errors.append(
                    f"LL004 registry: member `{cls}::{member}` not found "
                    f"in {rel} — fix the registry or the header comment")
    return findings


# ---------------------------------------------------------------------------
# Allowlist
# ---------------------------------------------------------------------------

def parse_allowlist(path, errors):
    """Format per entry line:
        RULE :: file-suffix :: message-substring  # justification
    The justification is mandatory; entries without one are hard errors."""
    entries = []
    if not os.path.exists(path):
        return entries
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.rstrip("\n")
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "#" in line:
                body, justification = line.split("#", 1)
                justification = justification.strip()
            else:
                body, justification = line, ""
            parts = [p.strip() for p in body.split("::")]
            if len(parts) != 3 or not all(parts):
                errors.append(
                    f"{path}:{lineno}: malformed allowlist entry "
                    f"(want `RULE :: file-suffix :: match  # justification`)")
                continue
            if not justification:
                errors.append(
                    f"{path}:{lineno}: allowlist entry for {parts[0]} has no "
                    f"justification comment — every suppression must say why")
                continue
            entries.append({
                "rule": parts[0], "file_suffix": parts[1],
                "match": parts[2], "justification": justification,
                "line": lineno, "used": False,
            })
    return entries


def apply_allowlist(findings, entries, errors, path):
    for f in findings:
        for e in entries:
            if e["rule"] != f.rule:
                continue
            if not f.file.endswith(e["file_suffix"]):
                continue
            if e["match"] not in f.message:
                continue
            f.allowlisted = True
            f.justification = e["justification"]
            e["used"] = True
            break
    for e in entries:
        if not e["used"]:
            errors.append(
                f"{path}:{e['line']}: stale allowlist entry ({e['rule']} :: "
                f"{e['file_suffix']} :: {e['match']}) matches no finding — "
                f"delete it")


# ---------------------------------------------------------------------------
# Compilation database + libclang cross-check
# ---------------------------------------------------------------------------

def find_compdb(root, explicit):
    if explicit:
        return explicit if os.path.exists(explicit) else None
    for d in sorted(os.listdir(root)):
        cand = os.path.join(root, d, "compile_commands.json")
        if d.startswith("build") and os.path.exists(cand):
            return cand
    return None


def scan_file_list(root, compdb_path):
    """Deterministic scan set: headers+sources under SCAN_DIRS, TU list
    cross-checked against the compilation database when one exists."""
    files = set()
    for d in SCAN_DIRS:
        base = os.path.join(root, d)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for fn in sorted(filenames):
                if fn.endswith((".cpp", ".hpp", ".h", ".cc")):
                    files.add(os.path.relpath(os.path.join(dirpath, fn),
                                              root))
    if compdb_path:
        try:
            with open(compdb_path, "r", encoding="utf-8") as f:
                for entry in json.load(f):
                    rel = os.path.relpath(
                        os.path.join(entry.get("directory", root),
                                     entry["file"]), root)
                    if any(rel.startswith(d + os.sep) or rel.startswith(d + "/")
                           for d in SCAN_DIRS):
                        files.add(rel)
        except (OSError, ValueError, KeyError):
            pass
    return sorted(files)


def libclang_crosscheck(root, scan_files, compdb_path, model, notes):
    """Optional clang.cindex AST pass. Cross-validates the token model
    (function definitions, thread_locals, registry member types) against the
    real AST and augments it with anything the tokens missed. Returns True
    when the pass actually ran."""
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return False
    try:
        index = cindex.Index.create()
    except Exception as e:  # library present but unusable
        notes.append(f"libclang unusable: {e}")
        return False

    args_for = {}
    if compdb_path:
        try:
            db = cindex.CompilationDatabase.fromDirectory(
                os.path.dirname(compdb_path))
            for rel in scan_files:
                cmds = db.getCompileCommands(os.path.join(root, rel))
                if cmds:
                    args = [a for a in list(cmds[0].arguments)[1:-1]
                            if a not in ("-c", "-o")]
                    args_for[rel] = args
        except Exception:
            pass

    ast_defs, ast_tls = set(), set()
    for rel in scan_files:
        if not rel.endswith((".cpp", ".cc")):
            continue
        args = args_for.get(rel, ["-std=c++20", "-I" + os.path.join(root,
                                                                    "src")])
        try:
            tu = index.parse(os.path.join(root, rel), args=args)
        except Exception as e:
            notes.append(f"libclang parse failed for {rel}: {e}")
            continue
        for cur in tu.cursor.walk_preorder():
            try:
                loc_file = cur.location.file
                if loc_file is None or \
                        os.path.relpath(loc_file.name, root) != rel:
                    continue
                if cur.kind in (cindex.CursorKind.FUNCTION_DECL,
                                cindex.CursorKind.CXX_METHOD,
                                cindex.CursorKind.CONSTRUCTOR) and \
                        cur.is_definition():
                    ast_defs.add((rel, cur.spelling))
                if cur.kind == cindex.CursorKind.VAR_DECL and \
                        "thread_local" in [t.spelling for t in
                                           cur.get_tokens()][:3]:
                    ast_tls.add(cur.spelling)
            except Exception:
                continue

    tok_defs = {(d.file, d.name) for fm in model.files for d in fm.defs}
    missed = sorted(ast_defs - tok_defs)
    for rel, name in missed:
        notes.append(f"libclang: token frontend missed definition "
                     f"`{name}` in {rel}")
    for name in sorted(ast_tls - GLOBAL_TL_NAMES):
        GLOBAL_TL_NAMES.add(name)
        notes.append(f"libclang: added thread_local `{name}` missed by the "
                     f"token frontend")
    return True


# ---------------------------------------------------------------------------
# Self-test over the fixtures (negative ones expect exactly one finding of
# their rule; `lane-lint-expect: none` marks a fixture that must pass clean)
# ---------------------------------------------------------------------------

def parse_fixture_directives(path):
    expect, registry = None, []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line.startswith("// lane-lint-expect:"):
                expect = line.split(":", 1)[1].strip()
            elif line.startswith("// lane-lint-registry:"):
                # Cls::member [Type]; the type defaults to RelaxedCell.
                spec = line.split("lane-lint-registry:", 1)[1].split()
                cls, member = spec[0].split("::")
                want = spec[1] if len(spec) > 1 else "RelaxedCell"
                registry.append((cls, member, want))
    return expect, registry


def analyze_fixture(root, rel):
    model = load_model(root, [rel])
    findings = run_lane_rules(model)
    expect, registry = parse_fixture_directives(os.path.join(root, rel))
    config_errors = []
    reg = tuple((rel, cls, member, want) for cls, member, want in registry)
    findings += run_registry_rule(root, reg, config_errors)
    return expect, findings, config_errors


def self_test(root):
    fixture_dir = os.path.join(root, "tools", "lane_lint_fixtures")
    fixtures = sorted(
        os.path.join("tools", "lane_lint_fixtures", f)
        for f in os.listdir(fixture_dir) if f.endswith(".cpp"))
    ok = True
    for rel in fixtures:
        expect, findings, config_errors = analyze_fixture(root, rel)
        rules = sorted(f.rule for f in findings)
        if expect is None:
            print(f"FAIL {rel}: missing `// lane-lint-expect:` directive")
            ok = False
        elif config_errors:
            print(f"FAIL {rel}: config errors: {config_errors}")
            ok = False
        elif expect == "none" and rules:
            print(f"FAIL {rel}: expected no finding, got {rules}")
            for f in findings:
                print(f"       {f.rule} {f.file}:{f.line} {f.message}")
            ok = False
        elif expect != "none" and rules != [expect]:
            print(f"FAIL {rel}: expected exactly one {expect} finding, "
                  f"got {rules or 'none'}")
            for f in findings:
                print(f"       {f.rule} {f.file}:{f.line} {f.message}")
            ok = False
        elif expect == "none":
            print(f"PASS {rel}: no finding")
        else:
            print(f"PASS {rel}: exactly one {expect}")

    # Allowlist validation: unjustified and malformed entries must be hard
    # errors, justified ones must parse.
    import tempfile
    with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as tf:
        tf.write("LL001 :: foo.cpp :: schedule_at\n")          # no reason
        tf.write("LL001 :: foo.cpp\n")                          # malformed
        tf.write("LL002 :: bar.cpp :: raw  # pool task owns a copy\n")
        bad_path = tf.name
    try:
        errors = []
        entries = parse_allowlist(bad_path, errors)
        if len(errors) == 2 and len(entries) == 1:
            print("PASS allowlist validation: unjustified + malformed "
                  "entries rejected, justified entry parsed")
        else:
            print(f"FAIL allowlist validation: {len(errors)} errors "
                  f"(want 2), {len(entries)} entries (want 1)")
            for e in errors:
                print(f"       {e}")
            ok = False
    finally:
        os.unlink(bad_path)

    # The real tree must be clean modulo the checked-in allowlist.
    rc, payload = analyze_tree(root, frontend="auto", compdb=None,
                               json_out=None, quiet=True)
    unallow = payload["unallowlisted"]
    if rc in (0,) and unallow == 0:
        print(f"PASS real tree: {payload['scanned_files']} files, "
              f"{len(payload['findings'])} finding(s), 0 unallowlisted")
    else:
        print(f"FAIL real tree: exit {rc}, {unallow} unallowlisted "
              f"finding(s)")
        for f in payload["findings"]:
            if not f["allowlisted"]:
                print(f"       {f['rule']} {f['file']}:{f['line']} "
                      f"{f['message']}")
        ok = False
    print("lane_lint self-test:", "OK" if ok else "FAILED")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def analyze_tree(root, frontend, compdb, json_out, quiet=False):
    notes = []
    compdb_path = find_compdb(root, compdb)
    scan_files = scan_file_list(root, compdb_path)
    model = load_model(root, scan_files)

    used_frontend = "tokens"
    if frontend in ("auto", "libclang"):
        ran = libclang_crosscheck(root, scan_files, compdb_path, model,
                                  notes)
        if ran:
            used_frontend = "tokens+libclang"
        elif frontend == "libclang":
            print("SKIP: --frontend=libclang requested but the python clang "
                  "bindings (clang.cindex) are not importable")
            sys.exit(77)

    config_errors = []
    findings = run_lane_rules(model)
    findings += run_registry_rule(root, REGISTRY, config_errors)
    findings.sort(key=lambda f: (f.file, f.line, f.rule, f.message))

    allow_path = os.path.join(root, "tools", "lane_lint_allow.txt")
    entries = parse_allowlist(allow_path, config_errors)
    apply_allowlist(findings, entries, config_errors,
                    os.path.relpath(allow_path, root))

    unallow = [f for f in findings if not f.allowlisted]
    payload = {
        "tool": "lane_lint",
        "version": TOOL_VERSION,
        "frontend": used_frontend,
        "compdb": (os.path.relpath(compdb_path, root)
                   if compdb_path else None),
        "scanned_files": len(scan_files),
        "rules": {r: RULE_TITLES[r] for r in sorted(RULE_TITLES)},
        "findings": [f.as_json() for f in findings],
        "allowlisted": sum(1 for f in findings if f.allowlisted),
        "unallowlisted": len(unallow),
        "config_errors": config_errors,
        "notes": notes,
    }
    if json_out:
        with open(json_out, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=False)
            f.write("\n")

    if not quiet:
        for note in notes:
            print(f"note: {note}")
        for f in findings:
            status = " [allowlisted: " + f.justification + "]" \
                if f.allowlisted else ""
            print(f"{f.file}:{f.line}: {f.rule} "
                  f"({RULE_TITLES.get(f.rule, '')}): {f.message}{status}")
        for e in config_errors:
            print(f"config error: {e}")
        print(f"lane_lint: {len(scan_files)} files scanned "
              f"({used_frontend}), {len(findings)} finding(s), "
              f"{len(unallow)} unallowlisted, "
              f"{len(config_errors)} config error(s)")

    if config_errors:
        return 2, payload
    return (1 if unallow else 0), payload


def main(argv):
    ap = argparse.ArgumentParser(
        prog="lane_lint.py",
        description="Lane-confinement analyzer (see module docstring).")
    ap.add_argument("--repo", default=None,
                    help="repository root (default: parent of this script)")
    ap.add_argument("--frontend", choices=("auto", "tokens", "libclang"),
                    default="auto")
    ap.add_argument("--compdb", default=None,
                    help="compile_commands.json path (default: build*/)")
    ap.add_argument("--json", dest="json_out", default=None,
                    help="write machine-readable findings JSON here")
    ap.add_argument("--self-test", action="store_true",
                    help="run the negative fixtures + real-tree check")
    args = ap.parse_args(argv)

    root = args.repo or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if args.self_test:
        return self_test(root)
    rc, _ = analyze_tree(root, args.frontend, args.compdb, args.json_out)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
