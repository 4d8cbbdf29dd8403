#!/usr/bin/env python3
"""kmu_analyze: semantic determinism & concurrency checker for kmu.

A compile-database-driven analysis pass over the model and runtime
code. It subsumes the old kmu_lint rule set and adds semantic rules
that need (light) parsing rather than per-line pattern matching:
token streams, template-argument balancing, declaration tracking and
function-extent scanning.

Frontends
---------
  lexical (default)  self-contained tokenizer + lightweight parser;
                     no dependencies beyond the standard library.
                     This is the gate of record: CI and ctest run it.
  clang              opt-in (--frontend=clang): drives libclang via
                     python clang.cindex over compile_commands.json
                     for call-graph-accurate versions of the call
                     rules (wall-clock, unseeded-rng) and
                     declaration-accurate capability checks. The
                     remaining rules always run lexically. Exits 2
                     with a clear message when clang.cindex is not
                     installed, so environments without libclang
                     never silently skip analysis.

Rules
-----
  wall-clock     deterministic code (src/sim, src/mem, src/queue,
                 src/core, src/check) must not read wall-clock time:
                 simulated time comes only from the EventQueue.
  unseeded-rng   std::rand/srand/std::random_device anywhere breaks
                 run-to-run determinism; use common/random.hh.
  raw-new        raw new/delete escapes the unique_ptr/container
                 ownership audit.
  include-guards headers use KMU_<SUBDIR>_<FILE>_HH guards.
  unordered-iter range-for over a std::unordered_{map,set} whose body
                 feeds CSV/stat/trace output: iteration order is
                 unspecified, so the output is not reproducible.
                 Sort first (or collect into a vector).
  float-accum    floating-point accumulation (+=/-=) in deterministic
                 code outside the sanctioned stats paths
                 (common/stats, common/table): summation order
                 changes results; accumulate integers or use a
                 Histogram/Table.
  fiber-escape   fiber-lifetime hazards in the fiber runtime
                 (src/ult, src/access) and its drivers: a spawn()
                 with a by-reference lambda capture and no run() in
                 the same function (the fiber outlives the captured
                 frame), or a reference obtained from a container
                 element that is used again after a yield()/block()
                 (the element may move while the fiber is switched
                 out).
  hostaddr-bits  the hostAddr tag layout (generation tag bits 48..55,
                 shard tag bits 56..61) is owned by the blessed
                 helpers in queue/descriptor.hh and topo/topology.hh;
                 raw shifts/masks of those bits anywhere else
                 duplicate the layout and rot silently.
  capability     every std::atomic member/global in src/ must carry a
                 KMU_ATOMIC_ROLE(...) or KMU_GUARDED_BY(...)
                 annotation (common/thread_annotations.hh) naming its
                 ordering contract.

Suppression
-----------
A finding is waived by a comment on its line or the line above:

    // kmu-analyze: allow(<rule>)

Usage
-----
    kmu_analyze.py [options] PATH...

    --compile-db FILE   compile_commands.json; .cc files under the
                        scan paths that are not in the database are
                        skipped (generated/experimental code).
    --frontend NAME     lexical (default) or clang.
    --rules a,b,...     run only the named rules.
    --list-rules        print the rule table and exit.
    --root DIR          directory include guards are relative to
                        (default: each scanned directory itself).

Exit codes: 0 clean, 1 findings, 2 usage/environment error.
"""

import argparse
import json
import pathlib
import re
import sys

SOURCE_SUFFIXES = {".hh", ".cc", ".h", ".cpp", ".hpp"}

# Path fragments that mark generated or vendored code: never scanned,
# even when a directory walk reaches them.
SKIP_PATH_PARTS = {"build", "build-asan", "build-ubsan", "build-tsan",
                   "CMakeFiles", "_deps", ".git", "third_party"}

# Directories (relative to the scan root) whose simulated time must
# be fully deterministic. Real-time layers (src/ult, src/access,
# src/device, src/ubench, src/sweep) legitimately read the OS clock.
DETERMINISTIC_DIRS = ("sim", "mem", "queue", "core", "check")

# Directories hosting fiber-entry code: the fiber runtime itself and
# the access engines whose wait loops yield/block.
FIBER_DIRS = ("ult", "access")

# Files allowed to manipulate raw hostAddr tag bits: the descriptor
# (generation tag, bits 48..55) and the topology helpers (shard tag,
# bits 56..61). Everything else goes through their helpers.
HOSTADDR_BLESSED = ("queue/descriptor", "topo/topology")

# Files providing the sanctioned deterministic float paths (Table /
# Histogram / StatGroup): accumulation order there is fixed by the
# implementation and covered by golden tests.
FLOAT_SANCTIONED = ("common/stats", "common/table")

SUPPRESS_RE = re.compile(
    r"//\s*kmu-analyze:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

# ---------------------------------------------------------------------------
# Lexical frontend: line-preserving comment/string stripping plus a
# token stream with line numbers.
# ---------------------------------------------------------------------------


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line
    structure, so token rules never fire on prose or messages.
    Handles //, /* */, "...", '...', and raw string literals."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif c == "R" and text[i:i + 2] == 'R"':
            # Raw string literal: R"delim( ... )delim"
            close = text.find("(", i + 2)
            if close < 0:
                out.append(c)
                i += 1
                continue
            delim = text[i + 2:close]
            end = text.find(")" + delim + '"', close + 1)
            end = n if end < 0 else end + len(delim) + 2
            out.append("\n" * text.count("\n", i, end))
            i = end
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


TOKEN_RE = re.compile(r"""
    (?P<ident>[A-Za-z_]\w*)
  | (?P<number>0[xX][0-9a-fA-F']+\w*|\d[\d.']*\w*)
  | (?P<punct><<=|>>=|->\*|\.\.\.|::|->|\+\+|--|<<|>>|<=|>=|==|!=
              |&&|\|\||\+=|-=|\*=|/=|%=|&=|\|=|\^=|[{}()\[\];,<>=+\-*/%&|^~!?.:#])
""", re.VERBOSE)


class Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self):
        return f"Token({self.kind},{self.text!r},{self.line})"


def tokenize(clean_text):
    """Token stream over comment/string-stripped text."""
    tokens = []
    line = 1
    pos = 0
    for m in TOKEN_RE.finditer(clean_text):
        line += clean_text.count("\n", pos, m.start())
        pos = m.start()
        tokens.append(Token(m.lastgroup, m.group(), line))
    return tokens


def match_angle(tokens, i):
    """Given tokens[i] == '<', return the index just past the
    balanced closing '>', treating << and >> as two angles. Returns
    None when the template argument list never closes (expression
    context)."""
    depth = 0
    while i < len(tokens):
        t = tokens[i].text
        if t == "<":
            depth += 1
        elif t == "<<":
            depth += 2
        elif t == ">":
            depth -= 1
        elif t == ">>":
            depth -= 2
        elif t in (";", "{"):
            return None  # statement ended: was a comparison
        if depth <= 0:
            return i + 1
        i += 1
    return None


def match_paren(tokens, i, open_t="(", close_t=")"):
    """Given tokens[i] == open_t, return index just past the matching
    close_t (len(tokens) if unbalanced)."""
    depth = 0
    while i < len(tokens):
        t = tokens[i].text
        if t == open_t:
            depth += 1
        elif t == close_t:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return len(tokens)


class SourceFile:
    """One analyzed file: raw text, stripped text, tokens, domains,
    and the per-line suppression table."""

    def __init__(self, path, rel, root_name=""):
        self.path = path
        self.rel = rel  # pathlib.PurePath, relative to the scan root
        self.root_name = root_name  # scan root's own directory name
        self.text = path.read_text(encoding="utf-8")
        self.raw_lines = self.text.splitlines()
        self.clean = strip_comments_and_strings(self.text)
        self.clean_lines = self.clean.splitlines()
        self._tokens = None
        self.suppressions = self._collect_suppressions()

    @property
    def tokens(self):
        if self._tokens is None:
            self._tokens = tokenize(self.clean)
        return self._tokens

    def _collect_suppressions(self):
        table = {}
        for idx, raw in enumerate(self.raw_lines):
            m = SUPPRESS_RE.search(raw)
            if m:
                rules = {r.strip() for r in m.group(1).split(",")}
                table.setdefault(idx + 1, set()).update(rules)
        return table

    def suppressed(self, line_no, rule):
        """A waiver counts on the finding's line or the line above
        (for findings on lines too dense to carry a comment)."""
        for ln in (line_no, line_no - 1):
            if rule in self.suppressions.get(ln, ()):
                return True
        return False

    # Domain predicates ---------------------------------------------------

    def top_dir(self):
        return self.rel.parts[0] if self.rel.parts else ""

    def is_deterministic(self):
        return self.top_dir() in DETERMINISTIC_DIRS

    def is_fiber_code(self):
        return self.top_dir() in FIBER_DIRS

    def is_header(self):
        return self.path.suffix in {".hh", ".h", ".hpp"}

    def rel_stem(self):
        """'queue/descriptor' for src/queue/descriptor.hh."""
        return str(self.rel.with_suffix("")).replace("\\", "/")


class Finding:
    def __init__(self, rel, line, rule, message):
        self.rel = rel
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.rel}:{self.line}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


class Rule:
    """One analysis rule. check() yields Finding objects; the driver
    applies suppressions afterwards so every rule shares the same
    waiver mechanics."""

    name = ""
    description = ""

    def check(self, src):
        raise NotImplementedError


class WallClockRule(Rule):
    name = "wall-clock"
    description = ("no wall-clock reads in the deterministic core "
                   "(simulated time comes from the EventQueue)")

    CLOCK_RE = re.compile(
        r"steady_clock|system_clock|high_resolution_clock"
        r"|\bgettimeofday\b|\bclock_gettime\b"
        r"|\btime\s*\(\s*(NULL|nullptr|0)?\s*\)"
        r"|__rdtsc|\basm\b.*\brdtsc\b")

    def check(self, src):
        if not src.is_deterministic():
            return
        for idx, clean in enumerate(src.clean_lines):
            if self.CLOCK_RE.search(clean):
                yield Finding(src.rel, idx + 1, self.name,
                              "wall-clock time in the deterministic "
                              "core; simulated time comes from the "
                              "EventQueue")


class UnseededRngRule(Rule):
    name = "unseeded-rng"
    description = ("no std::rand/srand/std::random_device; use "
                   "common/random.hh (mix64/Rng) with an explicit "
                   "seed")

    RAND_RE = re.compile(
        r"\bstd::rand\b|\bsrand\s*\(|[^.\w]rand\s*\(\s*\)"
        r"|\brandom_device\b")

    def check(self, src):
        for idx, clean in enumerate(src.clean_lines):
            if self.RAND_RE.search(clean):
                yield Finding(src.rel, idx + 1, self.name,
                              "non-seeded randomness breaks "
                              "run-to-run determinism; use "
                              "common/random.hh")


class RawNewRule(Rule):
    name = "raw-new"
    description = ("no raw new/delete; ownership is audited around "
                   "unique_ptr and containers")

    NEW_RE = re.compile(r"\bnew\s+[A-Za-z_(]|\bnew\s*\[|\bdelete\b")
    DELETED_FN_RE = re.compile(r"=\s*delete\b")

    def check(self, src):
        for idx, clean in enumerate(src.clean_lines):
            if self.NEW_RE.search(self.DELETED_FN_RE.sub("", clean)):
                yield Finding(src.rel, idx + 1, self.name,
                              "raw new/delete in model code; use "
                              "std::make_unique or a container")


class IncludeGuardRule(Rule):
    name = "include-guards"
    description = "headers use KMU_<SUBDIR>_<FILE>_HH include guards"

    IFNDEF_RE = re.compile(r"^#ifndef\s+(\w+)\s*$", re.M)

    @staticmethod
    def expected_guard(rel):
        parts = list(rel.parts[:-1]) + [rel.stem, rel.suffix[1:]]
        return "KMU_" + "_".join(
            p.upper().replace("-", "_") for p in parts)

    def check(self, src):
        if not src.is_header():
            return
        want = self.expected_guard(src.rel)
        # Guards prefixed with the scan root's own name are accepted
        # too (src/ headers omit SRC_, tools/ headers carry TOOLS_).
        accepted = {want}
        if src.root_name:
            accepted.add(self.expected_guard(
                pathlib.PurePath(src.root_name) / src.rel))
        m = self.IFNDEF_RE.search(src.text)
        if not m:
            yield Finding(src.rel, 1, self.name,
                          f"missing include guard (expected {want})")
            return
        got = m.group(1)
        if got not in accepted:
            line_no = src.text[:m.start()].count("\n") + 1
            yield Finding(src.rel, line_no, self.name,
                          f"include guard {got}, expected {want}")
        if f"#define {got}" not in src.text:
            yield Finding(src.rel, 1, self.name,
                          f"guard {got} is never defined")


class UnorderedIterRule(Rule):
    name = "unordered-iter"
    description = ("no range-for over unordered containers feeding "
                   "CSV/stat/trace output (iteration order is "
                   "unspecified)")

    OUTPUT_IDENT_RE = re.compile(
        r"csv|Csv|CSV|print|record|report|dump|write|emit|log")

    def _unordered_names(self, src):
        """Names declared with std::unordered_{map,set}<...> type,
        members included (declaration = balanced template args
        followed by an identifier)."""
        names = set()
        toks = src.tokens
        for i, t in enumerate(toks):
            if t.kind != "ident" or not t.text.startswith("unordered_"):
                continue
            if i + 1 >= len(toks) or toks[i + 1].text != "<":
                continue
            end = match_angle(toks, i + 1)
            if end is None:
                continue
            while end < len(toks) and toks[end].text in \
                    ("&", "*", "const", "&&"):
                end += 1
            if end < len(toks) and toks[end].kind == "ident":
                names.add(toks[end].text)
        return names

    def check(self, src):
        names = self._unordered_names(src)
        if not names:
            return
        toks = src.tokens
        for i, t in enumerate(toks):
            if t.text != "for" or i + 1 >= len(toks) \
                    or toks[i + 1].text != "(":
                continue
            close = match_paren(toks, i + 1)
            head = toks[i + 2:close - 1]
            colon = [k for k, h in enumerate(head) if h.text == ":"]
            if not colon:
                continue  # classic for loop
            range_expr = head[colon[-1] + 1:]
            if not any(h.kind == "ident" and h.text in names
                       for h in range_expr):
                continue
            # Body: the statement or block after the closing paren.
            if close < len(toks) and toks[close].text == "{":
                body_end = match_paren(toks, close, "{", "}")
                body = toks[close:body_end]
            else:
                body = toks[close:close + 64]
                stop = [k for k, b in enumerate(body) if b.text == ";"]
                body = body[:stop[0] + 1] if stop else body
            if self._feeds_output(body):
                yield Finding(
                    src.rel, t.line, self.name,
                    "range-for over an unordered container feeding "
                    "output; iteration order is unspecified -- sort "
                    "into a vector first")

    def _feeds_output(self, body):
        for k, b in enumerate(body):
            if b.text == "<<":
                return True
            if b.kind == "ident":
                if b.text in ("printf", "fprintf", "fputs", "fwrite",
                              "puts"):
                    return True
                if b.text == "trace" and k + 1 < len(body) \
                        and body[k + 1].text == "::":
                    return True
                if self.OUTPUT_IDENT_RE.search(b.text):
                    return True
        return False


class FloatAccumRule(Rule):
    name = "float-accum"
    description = ("no float/double accumulation in deterministic "
                   "code outside common/stats and common/table")

    DECL_RE = re.compile(r"\b(?:double|float)\s+(\w+)\s*[;={,]")
    ACCUM_RE = re.compile(r"\b(\w+)\s*[+\-]=")

    def check(self, src):
        if not src.is_deterministic():
            return
        if any(src.rel_stem().startswith(p) for p in FLOAT_SANCTIONED):
            return
        float_names = set()
        for clean in src.clean_lines:
            float_names.update(self.DECL_RE.findall(clean))
        if not float_names:
            return
        for idx, clean in enumerate(src.clean_lines):
            for m in self.ACCUM_RE.finditer(clean):
                if m.group(1) in float_names:
                    yield Finding(
                        src.rel, idx + 1, self.name,
                        f"float accumulation into '{m.group(1)}' in "
                        "deterministic code; summation order changes "
                        "results -- accumulate integers or use a "
                        "stats Histogram")


class FiberEscapeRule(Rule):
    name = "fiber-escape"
    description = ("no by-ref captures escaping into unjoined fibers "
                   "and no container-element references held across "
                   "yield/block")

    SPAWN_RE = re.compile(r"\b(?:spawn|spawnWorker)\s*\(")
    REF_CAPTURE_RE = re.compile(r"\[\s*&")
    RUN_RE = re.compile(r"\b(?:run|join)\s*\(")
    YIELD_RE = re.compile(
        r"\byield\s*\(|\bblock\s*\(|\bblockCurrent\b|\bsuspend\s*\(")
    ELEM_REF_RE = re.compile(
        r"&\s*(\w+)\s*=\s*[^;=]*(?:\[|\.front\s*\(|\.back\s*\(|"
        r"\.data\s*\(|\.at\s*\()")

    def _function_extent(self, src, start_idx):
        """Lines [start, end) of the enclosing function, approximated
        by the kmu style rule that function/test bodies close with a
        brace in column 0."""
        end = start_idx
        while end < len(src.clean_lines):
            if src.clean_lines[end].startswith("}"):
                break
            end += 1
        return end

    def check(self, src):
        if not (src.is_fiber_code() or src.top_dir() in
                ("bench", "examples", "apps")):
            return
        yield from self._check_spawn_escapes(src)
        yield from self._check_refs_across_yield(src)

    def _check_spawn_escapes(self, src):
        for idx, clean in enumerate(src.clean_lines):
            m = self.SPAWN_RE.search(clean)
            if not m:
                continue
            # The capture list may start on this or the next line.
            window = clean[m.end():] + " " + \
                "".join(src.clean_lines[idx + 1:idx + 2])
            if not self.REF_CAPTURE_RE.search(window):
                continue
            end = self._function_extent(src, idx)
            tail = "\n".join(src.clean_lines[idx + 1:end])
            if not self.RUN_RE.search(tail):
                yield Finding(
                    src.rel, idx + 1, self.name,
                    "spawn with a by-reference capture and no "
                    "run()/join() before the enclosing function "
                    "returns: the fiber outlives the captured frame")

    def _check_refs_across_yield(self, src):
        for idx, clean in enumerate(src.clean_lines):
            m = self.ELEM_REF_RE.search(clean)
            if not m:
                continue
            name = m.group(1)
            end = self._function_extent(src, idx)
            yield_line = None
            for j in range(idx + 1, end):
                if self.YIELD_RE.search(src.clean_lines[j]):
                    yield_line = j
                    break
            if yield_line is None:
                continue
            use_re = re.compile(r"\b" + re.escape(name) + r"\b")
            for j in range(yield_line + 1, end):
                if use_re.search(src.clean_lines[j]):
                    yield Finding(
                        src.rel, idx + 1, self.name,
                        f"reference '{name}' into a container element "
                        "is used after a yield/block (line "
                        f"{j + 1}); the element may move while the "
                        "fiber is switched out -- re-look it up "
                        "after resuming")
                    break


class HostAddrBitsRule(Rule):
    name = "hostaddr-bits"
    description = ("hostAddr tag bits (gen 48..55, shard 56..61) are "
                   "manipulated only via queue/descriptor.hh and "
                   "topo/topology.hh helpers")

    SHIFT_RE = re.compile(r"(?:<<|>>)\s*(48|49|5[0-9]|6[01])\b")
    MASK_RE = re.compile(
        r"0[xX](?:00)?(?:[fF]{2}|3[fF])0{12}\b"  # 0xff<<48 / 0x3f<<56
        r"|0[xX][fF]{2}0{14}\b")                 # 0xff00000000000000
    ADDRISH_RE = re.compile(r"[aA]ddr|host|shard|[gG]en|[tT]ag")
    SETW_RE = re.compile(r"\bsetw\s*\(")

    def check(self, src):
        if any(src.rel_stem().startswith(p) for p in HOSTADDR_BLESSED):
            return
        for idx, clean in enumerate(src.clean_lines):
            if self.SETW_RE.search(clean):
                continue  # stream formatting, not address math
            shift = self.SHIFT_RE.search(clean)
            mask = self.MASK_RE.search(clean)
            if not shift and not mask:
                continue
            # Require address-ish context on the statement (this line
            # joined with the previous, for wrapped expressions) so
            # stream << 48 etc. never fire.
            stmt = (src.clean_lines[idx - 1] if idx else "") + clean
            if not self.ADDRISH_RE.search(stmt):
                continue
            what = "shift of bit " + shift.group(1) if shift \
                else "mask " + mask.group(0)
            yield Finding(
                src.rel, idx + 1, self.name,
                f"raw {what} touches the hostAddr tag bits; use the "
                "taggedHost/hostPtr/hostTag (descriptor.hh) or "
                "taggedShard/shardTag/stripShard (topology.hh) "
                "helpers")


class CapabilityRule(Rule):
    name = "capability"
    description = ("every std::atomic member/global carries "
                   "KMU_ATOMIC_ROLE(...) or KMU_GUARDED_BY(...)")

    ANNOTATIONS = ("KMU_ATOMIC_ROLE", "KMU_GUARDED_BY",
                   "KMU_PT_GUARDED_BY")

    def check(self, src):
        toks = src.tokens
        i = 0
        while i < len(toks):
            t = toks[i]
            if not (t.kind == "ident" and t.text == "atomic"
                    and i >= 2 and toks[i - 1].text == "::"
                    and toks[i - 2].text == "std"):
                i += 1
                continue
            if i + 1 >= len(toks) or toks[i + 1].text != "<":
                i += 1
                continue
            # `using` aliases and function parameters are exempt: the
            # annotation belongs on the owning declaration.
            stmt_start = i
            while stmt_start > 0 and toks[stmt_start - 1].text not in \
                    (";", "{", "}", "(", ","):
                stmt_start -= 1
            if any(tok.text in ("using", "typedef")
                   for tok in toks[stmt_start:i]):
                i += 1
                continue
            end = match_angle(toks, i + 1)
            if end is None or end >= len(toks):
                i += 1
                continue
            if toks[end].text in ("*", "&"):
                i = end  # pointer/ref to atomic: owner is elsewhere
                continue
            if toks[end].kind != "ident":
                i = end
                continue
            decl_line = toks[end].line
            j = end + 1
            annotated = False
            while j < len(toks) and toks[j].text not in (";", ","):
                if toks[j].text == "{":  # brace init ends the decl
                    break
                if toks[j].text == "(":
                    j = match_paren(toks, j)
                    continue
                if toks[j].kind == "ident" and \
                        toks[j].text in self.ANNOTATIONS:
                    annotated = True
                j += 1
            if not annotated:
                yield Finding(
                    src.rel, decl_line, self.name,
                    f"std::atomic '{toks[end].text}' lacks a "
                    "KMU_ATOMIC_ROLE(...)/KMU_GUARDED_BY(...) "
                    "annotation (common/thread_annotations.hh) "
                    "naming its ordering contract")
            i = end


ALL_RULES = [WallClockRule(), UnseededRngRule(), RawNewRule(),
             IncludeGuardRule(), UnorderedIterRule(), FloatAccumRule(),
             FiberEscapeRule(), HostAddrBitsRule(), CapabilityRule()]

RULES_BY_NAME = {r.name: r for r in ALL_RULES}


# ---------------------------------------------------------------------------
# Optional clang frontend (libclang via clang.cindex)
# ---------------------------------------------------------------------------

# Call-level spellings checked AST-accurately under --frontend=clang.
CLANG_WALLCLOCK_CALLS = {
    "now", "time", "gettimeofday", "clock_gettime", "__rdtsc"}
CLANG_WALLCLOCK_SCOPES = (
    "std::chrono::steady_clock", "std::chrono::system_clock",
    "std::chrono::high_resolution_clock")
CLANG_RNG_NAMES = {"rand", "srand", "random_device"}


class ClangFrontend:
    """AST-accurate versions of the call rules. The lexical rules
    still run for everything else; this class only *adds* precision
    where the AST genuinely helps (qualified call targets, atomic
    field declarations located through the record layout)."""

    def __init__(self, compile_db_path):
        try:
            from clang import cindex  # noqa: deferred, optional
        except ImportError as exc:
            raise RuntimeError(
                "frontend 'clang' needs the python clang bindings "
                "(clang.cindex) and libclang; install the 'clang' "
                "python package and libclang, or use the default "
                "lexical frontend") from exc
        self.cindex = cindex
        if compile_db_path is None:
            raise RuntimeError(
                "frontend 'clang' requires --compile-db")
        self.db = cindex.CompilationDatabase.fromDirectory(
            str(compile_db_path.parent))
        self.index = cindex.Index.create()

    def check_tu(self, src):
        cindex = self.cindex
        cmds = self.db.getCompileCommands(str(src.path))
        if not cmds:
            return
        args = [a for a in list(cmds[0].arguments)[1:-1]
                if a not in ("-c", "-o")]
        tu = self.index.parse(str(src.path), args=args)
        for cursor in tu.cursor.walk_preorder():
            if cursor.location.file is None or \
                    str(cursor.location.file) != str(src.path):
                continue
            if cursor.kind == cindex.CursorKind.CALL_EXPR:
                yield from self._check_call(src, cursor)

    def _check_call(self, src, cursor):
        name = cursor.spelling
        ref = cursor.referenced
        qual = ""
        if ref is not None and ref.semantic_parent is not None:
            qual = ref.semantic_parent.spelling or ""
        line = cursor.location.line
        if src.is_deterministic() and name in CLANG_WALLCLOCK_CALLS:
            if name != "now" or any(
                    s.endswith(qual) for s in CLANG_WALLCLOCK_SCOPES):
                yield Finding(src.rel, line, "wall-clock",
                              f"call to {qual}::{name} reads "
                              "wall-clock time in the deterministic "
                              "core")
        if name in CLANG_RNG_NAMES:
            yield Finding(src.rel, line, "unseeded-rng",
                          f"call to {name} is not seeded "
                          "deterministically; use common/random.hh")


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def load_compile_db(path):
    """Set of absolute source paths named by compile_commands.json."""
    with open(path, encoding="utf-8") as fh:
        entries = json.load(fh)
    files = set()
    for e in entries:
        f = pathlib.Path(e["file"])
        if not f.is_absolute():
            f = pathlib.Path(e["directory"]) / f
        files.add(f.resolve())
    return files


def skip_path(path):
    return any(part in SKIP_PATH_PARTS for part in path.parts)


def collect_files(top, db_files):
    """Source files under `top`, honoring the skip list and (for
    translation units) the compile database when one was given."""
    if top.is_file():
        candidates = [top.resolve()]
    else:
        candidates = sorted(
            p.resolve() for p in top.rglob("*")
            if p.suffix in SOURCE_SUFFIXES and p.is_file())
    out = []
    for p in candidates:
        if skip_path(p.relative_to(top.resolve().parent)
                     if top.is_dir() else p):
            continue
        if db_files is not None and p.suffix in (".cc", ".cpp") \
                and p not in db_files:
            continue  # not built: generated or experimental
        out.append(p)
    return out


def run(argv):
    ap = argparse.ArgumentParser(
        prog="kmu_analyze",
        description="semantic determinism & concurrency checker",
        epilog="exit codes: 0 clean, 1 findings, 2 usage error")
    ap.add_argument("paths", nargs="*", type=pathlib.Path,
                    help="files or directories to analyze")
    ap.add_argument("--compile-db", type=pathlib.Path, default=None,
                    metavar="FILE",
                    help="compile_commands.json; unbuilt .cc files "
                         "are skipped")
    ap.add_argument("--frontend", choices=("lexical", "clang"),
                    default="lexical")
    ap.add_argument("--rules", default=None, metavar="a,b,...",
                    help="run only the named rules")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--root", type=pathlib.Path, default=None,
                    help="directory include guards are relative to "
                         "(default: each scanned directory itself)")
    args = ap.parse_args(argv)

    if not args.paths and not args.list_rules:
        ap.error("the following arguments are required: paths")

    if args.list_rules:
        width = max(len(r.name) for r in ALL_RULES)
        for r in ALL_RULES:
            print(f"  {r.name:<{width}}  {r.description}")
        return 0

    if args.rules is not None:
        wanted = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = [w for w in wanted if w not in RULES_BY_NAME]
        if unknown:
            print(f"kmu_analyze: unknown rule(s): {', '.join(unknown)}"
                  f" (see --list-rules)", file=sys.stderr)
            return 2
        rules = [RULES_BY_NAME[w] for w in wanted]
    else:
        rules = ALL_RULES

    db_files = None
    if args.compile_db is not None:
        if not args.compile_db.exists():
            print(f"kmu_analyze: no such compile database: "
                  f"{args.compile_db}", file=sys.stderr)
            return 2
        db_files = load_compile_db(args.compile_db)

    clang_fe = None
    if args.frontend == "clang":
        try:
            clang_fe = ClangFrontend(args.compile_db)
        except RuntimeError as exc:
            print(f"kmu_analyze: {exc}", file=sys.stderr)
            return 2

    findings = []
    scanned = 0
    for top in args.paths:
        if not top.exists():
            print(f"kmu_analyze: no such path: {top}", file=sys.stderr)
            return 2
        root = (args.root or
                (top if top.is_dir() else top.parent)).resolve()
        for path in collect_files(top, db_files):
            try:
                rel = path.relative_to(root)
            except ValueError:
                rel = pathlib.Path(path.name)
            src = SourceFile(path, rel, root_name=root.name)
            scanned += 1
            for rule in rules:
                for f in rule.check(src):
                    if not src.suppressed(f.line, f.rule):
                        findings.append(f)
            if clang_fe is not None and path.suffix in (".cc", ".cpp"):
                for f in clang_fe.check_tu(src):
                    if not src.suppressed(f.line, f.rule):
                        findings.append(f)

    findings.sort(key=lambda f: (str(f.rel), f.line, f.rule))
    for f in findings:
        print(f)
    if findings:
        print(f"kmu_analyze: {len(findings)} finding(s) in "
              f"{scanned} file(s)", file=sys.stderr)
        return 1
    print(f"kmu_analyze: clean ({scanned} files)")
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
