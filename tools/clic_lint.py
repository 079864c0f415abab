#!/usr/bin/env python3
"""Repo-specific invariant linter for the CLIC codebase.

Enforces concurrency and determinism rules the compiler cannot express
(DESIGN.md "Static analysis" documents the catalog and rationale):

  no-mutex-data-path
      Mutex/lock/condition-variable tokens are forbidden in server/
      outside explicitly annotated control-path regions, and forbidden
      unconditionally (allow pragmas ignored) in common/spsc_ring.h —
      the lock-free data path must stay lock-free.
  no-wallclock-deterministic
      No wall-clock or ambient-randomness sources (steady_clock,
      system_clock, time(), rand(), random_device, ...) in core/, sim/,
      workload/, policies/, or the fault-injection trigger logic
      (server/fault_injection.*): deterministic replay code must be a
      pure function of the trace and the seed.
  no-bare-atomic-order
      Every atomic load/store/exchange/fetch_*/compare_exchange in
      common/spsc_ring.h and server/ must name an explicit
      std::memory_order — the default seq_cst hides the actual
      ordering contract the code depends on.
  no-alloc-hot-path
      No new/make_unique/container-growth calls lexically inside a
      function marked `// clic-lint: hot-path` (the one batch loop,
      PipelinedBatch in policies/common.h, each policy's AccessBatch
      and per-request step, ClientTally::Record, and the SPSC ring
      push/pop).

Pragmas (parsed from comments, so they never collide with code):

  // clic-lint: allow(<rule>) reason=<text>          same-line suppression
  // clic-lint: begin-allow(<rule>) reason=<text>    region start
  // clic-lint: end-allow(<rule>)                    region end
  // clic-lint: hot-path                             marks the next function
  // clic-lint-fixture: <path>    (first line)       pretend repo path,
                                                     used by the test fixtures

Every allow must carry a non-empty reason; a missing reason, an unknown
rule name, or an unclosed region is a usage error (exit 2).

Usage:
  clic_lint.py [--root DIR] [--list-suppressions] [files...]

With no files, scans every .h/.cc under the repo root (skipping build
dirs and tests/lint_fixtures/). Exit codes: 0 clean, 1 violations
found, 2 usage or pragma error.
"""

import argparse
import os
import re
import sys

RULES = (
    "no-mutex-data-path",
    "no-wallclock-deterministic",
    "no-bare-atomic-order",
    "no-alloc-hot-path",
)

# no-mutex-data-path: identifier tokens that mean "a mutex or a lock".
MUTEX_TOKENS = {
    "mutex",
    "Mutex",
    "MutexLock",
    "shared_mutex",
    "recursive_mutex",
    "timed_mutex",
    "lock_guard",
    "unique_lock",
    "shared_lock",
    "scoped_lock",
    "condition_variable",
    "condition_variable_any",
}

# no-wallclock-deterministic: clock types and randomness sources are
# plain identifier tokens; the C functions are only flagged when called.
WALLCLOCK_TOKENS = {
    "steady_clock",
    "system_clock",
    "high_resolution_clock",
    "random_device",
    "gettimeofday",
    "clock_gettime",
}
WALLCLOCK_CALLS = {"time", "rand", "srand", "clock"}

# no-bare-atomic-order: member calls that take a memory_order argument.
ATOMIC_METHODS = (
    "load",
    "store",
    "exchange",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "compare_exchange_weak",
    "compare_exchange_strong",
)
ATOMIC_CALL_RE = re.compile(r"\.(%s)\s*\(" % "|".join(ATOMIC_METHODS))

# no-alloc-hot-path: allocation and container-growth calls.
ALLOC_CALLS = {
    "make_unique",
    "make_shared",
    "push_back",
    "emplace_back",
    "emplace_front",
    "emplace",
    "resize",
    "reserve",
    "insert",
    "assign",
}
NEW_RE = re.compile(r"\bnew\b")

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
PRAGMA_RE = re.compile(
    r"clic-lint:\s*(allow|begin-allow|end-allow)\(([a-z-]+)\)(.*)")
HOTPATH_RE = re.compile(r"clic-lint:\s*hot-path\s*$")
FIXTURE_RE = re.compile(r"//\s*clic-lint-fixture:\s*(\S+)")
SKIP_DIRS = {".git", "build", "clic_trace_cache", "lint_fixtures"}


class PragmaError(Exception):
    """Malformed clic-lint pragma — a usage error, not a finding."""


def strip_code(lines):
    """Splits each physical line into (code, comment) with string and
    character literals blanked out of the code part. Tracks /* */ blocks
    across lines. Comment text is preserved so pragmas stay parseable.
    """
    out = []
    in_block = False
    for raw in lines:
        code = []
        comment = []
        i = 0
        n = len(raw)
        while i < n:
            if in_block:
                end = raw.find("*/", i)
                if end < 0:
                    comment.append(raw[i:])
                    i = n
                else:
                    comment.append(raw[i:end])
                    in_block = False
                    i = end + 2
                continue
            ch = raw[i]
            nxt = raw[i + 1] if i + 1 < n else ""
            if ch == "/" and nxt == "/":
                comment.append(raw[i + 2:])
                i = n
            elif ch == "/" and nxt == "*":
                in_block = True
                i += 2
            elif ch == '"' or ch == "'":
                quote = ch
                i += 1
                while i < n:
                    if raw[i] == "\\":
                        i += 2
                        continue
                    if raw[i] == quote:
                        i += 1
                        break
                    i += 1
                code.append(" ")  # blank the whole literal
            else:
                code.append(ch)
                i += 1
        out.append(("".join(code), "".join(comment)))
    return out


def parse_pragma(comment, path, lineno):
    """Returns (kind, rule, reason) for an allow pragma in `comment`,
    ('hot-path', None, None) for a hot-path marker, or None."""
    if HOTPATH_RE.search(comment):
        return ("hot-path", None, None)
    m = PRAGMA_RE.search(comment)
    if m is None:
        if "clic-lint:" in comment and "clic-lint-fixture" not in comment:
            raise PragmaError(
                "%s:%d: unparseable clic-lint pragma: %s"
                % (path, lineno, comment.strip()))
        return None
    kind, rule, rest = m.group(1), m.group(2), m.group(3)
    if rule not in RULES:
        raise PragmaError(
            "%s:%d: unknown rule '%s' (known: %s)"
            % (path, lineno, rule, ", ".join(RULES)))
    reason = None
    if kind in ("allow", "begin-allow"):
        rm = re.search(r"reason=(.+)$", rest)
        if rm is None or not rm.group(1).strip():
            raise PragmaError(
                "%s:%d: %s(%s) needs a non-empty reason=..."
                % (path, lineno, kind, rule))
        reason = rm.group(1).strip()
    return (kind, rule, reason)


def hot_path_ranges(stripped, markers):
    """Maps each hot-path marker to the (start, end) line range of the
    function body that follows it: the first '{' at or after the marker
    through its matching '}'."""
    ranges = []
    for marker_line in markers:
        depth = 0
        started = False
        start = None
        for idx in range(marker_line, len(stripped)):
            code = stripped[idx][0]
            for ch in code:
                if ch == "{":
                    if not started:
                        started = True
                        start = idx
                    depth += 1
                elif ch == "}":
                    if started:
                        depth -= 1
            if started and depth == 0:
                ranges.append((start, idx))
                break
        else:
            if started:
                ranges.append((start, len(stripped) - 1))
    return ranges


def atomic_call_has_order(stripped, lineno, col):
    """True when the atomic call opening at (lineno, col) names an
    explicit std::memory_order inside its argument list."""
    depth = 0
    idx = lineno
    pos = col
    text = []
    while idx < len(stripped):
        code = stripped[idx][0]
        while pos < len(code):
            ch = code[pos]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    return "memory_order" in "".join(text)
            if depth >= 1:
                text.append(ch)
            pos += 1
        idx += 1
        pos = 0
    return "memory_order" in "".join(text)


class FileLinter:
    def __init__(self, path, effective_path, lines):
        self.path = path  # real path, used in messages
        self.scope = effective_path  # rule-scoping path (fixture override)
        self.lines = lines
        self.stripped = strip_code(lines)
        self.violations = []
        self.suppressions = []  # (path, lineno, rule, reason)

    # ---- scoping ----------------------------------------------------------

    def in_server(self):
        return self.scope.startswith("server/")

    def is_ring(self):
        return self.scope == "common/spsc_ring.h"

    def in_deterministic_scope(self):
        for prefix in ("core/", "sim/", "workload/", "policies/"):
            if self.scope.startswith(prefix):
                return True
        return self.scope in ("server/fault_injection.h",
                              "server/fault_injection.cc")

    # ---- driver -----------------------------------------------------------

    def run(self):
        allow_regions = {rule: 0 for rule in RULES}  # open region depth
        line_allows = []  # per-line set of allowed rules
        hot_markers = []
        for idx, (_, comment) in enumerate(self.stripped):
            allowed = set()
            pragma = parse_pragma(comment, self.path, idx + 1)
            if pragma is not None:
                kind, rule, reason = pragma
                if kind == "hot-path":
                    hot_markers.append(idx)
                elif kind == "allow":
                    allowed.add(rule)
                    self.suppressions.append(
                        (self.path, idx + 1, rule, reason))
                elif kind == "begin-allow":
                    allow_regions[rule] += 1
                    self.suppressions.append(
                        (self.path, idx + 1, rule, reason))
                elif kind == "end-allow":
                    if allow_regions[rule] <= 0:
                        raise PragmaError(
                            "%s:%d: end-allow(%s) without a matching "
                            "begin-allow" % (self.path, idx + 1, rule))
                    allow_regions[rule] -= 1
            for rule, depth in allow_regions.items():
                if depth > 0:
                    allowed.add(rule)
            line_allows.append(allowed)
        for rule, depth in allow_regions.items():
            if depth > 0:
                raise PragmaError(
                    "%s: begin-allow(%s) never closed by end-allow"
                    % (self.path, rule))

        self.check_mutex(line_allows)
        self.check_wallclock(line_allows)
        self.check_atomic_order(line_allows)
        self.check_alloc(line_allows, hot_markers)
        return self.violations

    def report(self, lineno, rule, message):
        self.violations.append(
            "%s:%d: [%s] %s" % (self.path, lineno, rule, message))

    # ---- rules ------------------------------------------------------------

    def check_mutex(self, line_allows):
        rule = "no-mutex-data-path"
        hard = self.is_ring()
        if not (hard or (self.in_server()
                         and self.scope.endswith((".h", ".cc")))):
            return
        for idx, (code, _) in enumerate(self.stripped):
            if code.lstrip().startswith("#"):
                continue  # includes may name <mutex> etc.
            # Allow pragmas are honored in server/ but ignored in the
            # ring: its data path must stay lock-free unconditionally.
            if not hard and rule in line_allows[idx]:
                continue
            for token in IDENT_RE.findall(code):
                if token in MUTEX_TOKENS:
                    where = ("forbidden in the lock-free ring"
                             if hard else
                             "outside an annotated control-path region")
                    self.report(idx + 1, rule,
                                "'%s' %s" % (token, where))

    def check_wallclock(self, line_allows):
        rule = "no-wallclock-deterministic"
        if not self.in_deterministic_scope():
            return
        for idx, (code, _) in enumerate(self.stripped):
            if rule in line_allows[idx]:
                continue
            for m in IDENT_RE.finditer(code):
                token = m.group(0)
                if token in WALLCLOCK_TOKENS:
                    self.report(idx + 1, rule,
                                "'%s' in deterministic code" % token)
                elif token in WALLCLOCK_CALLS:
                    rest = code[m.end():].lstrip()
                    if rest.startswith("("):
                        self.report(
                            idx + 1, rule,
                            "call to '%s()' in deterministic code" % token)

    def check_atomic_order(self, line_allows):
        rule = "no-bare-atomic-order"
        if not (self.is_ring() or self.in_server()):
            return
        for idx, (code, _) in enumerate(self.stripped):
            if rule in line_allows[idx]:
                continue
            for m in ATOMIC_CALL_RE.finditer(code):
                open_paren = m.end() - 1
                if not atomic_call_has_order(self.stripped, idx, open_paren):
                    self.report(
                        idx + 1, rule,
                        "atomic .%s() without an explicit std::memory_order"
                        % m.group(1))

    def check_alloc(self, line_allows, hot_markers):
        rule = "no-alloc-hot-path"
        if not hot_markers:
            return
        for start, end in hot_path_ranges(self.stripped, hot_markers):
            for idx in range(start, end + 1):
                if rule in line_allows[idx]:
                    continue
                code = self.stripped[idx][0]
                if NEW_RE.search(code):
                    self.report(idx + 1, rule,
                                "'new' inside a hot-path function")
                for m in IDENT_RE.finditer(code):
                    token = m.group(0)
                    if token in ALLOC_CALLS:
                        rest = code[m.end():].lstrip()
                        if rest.startswith("("):
                            self.report(
                                idx + 1, rule,
                                "'%s(' (allocation/growth) inside a "
                                "hot-path function" % token)


def effective_path(real_path, root, first_line):
    m = FIXTURE_RE.match(first_line.strip())
    if m:
        return m.group(1)
    rel = os.path.relpath(real_path, root)
    return rel.replace(os.sep, "/")


def collect_files(root):
    found = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames
            if d not in SKIP_DIRS and not d.startswith("build"))
        for name in sorted(filenames):
            if name.endswith((".h", ".cc")):
                found.append(os.path.join(dirpath, name))
    return found


def main(argv):
    parser = argparse.ArgumentParser(
        description="CLIC repo invariant linter (see DESIGN.md)")
    parser.add_argument("files", nargs="*",
                        help="files to lint (default: whole repo)")
    parser.add_argument("--root", default=None,
                        help="repo root for scoping (default: the "
                             "directory containing tools/)")
    parser.add_argument("--list-suppressions", action="store_true",
                        help="print every allow pragma with its reason")
    args = parser.parse_args(argv)

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    files = args.files or collect_files(root)
    if not files:
        print("clic_lint: no files to lint under %s" % root,
              file=sys.stderr)
        return 2

    violations = []
    suppressions = []
    for path in files:
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as err:
            print("clic_lint: cannot read %s: %s" % (path, err),
                  file=sys.stderr)
            return 2
        scope = effective_path(path, root, lines[0] if lines else "")
        linter = FileLinter(path, scope, lines)
        try:
            violations.extend(linter.run())
        except PragmaError as err:
            print("clic_lint: %s" % err, file=sys.stderr)
            return 2
        suppressions.extend(linter.suppressions)

    for v in violations:
        print(v)
    if args.list_suppressions:
        for path, lineno, rule, reason in suppressions:
            print("suppression %s:%d [%s] %s" % (path, lineno, rule, reason))
    print("clic_lint: %d violation(s), %d suppression(s), %d file(s)"
          % (len(violations), len(suppressions), len(files)))
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
