#!/usr/bin/env python3
"""Check that the repo's markdown docs only reference things that exist.

Usage: check_docs_links.py README.md DESIGN.md bench/README.md ...

Three classes of reference are verified, all relative to the repo root
(the parent directory of this script):

1. Markdown links `[text](path)` whose target is not a URL or anchor —
   the path must exist (resolved against the doc's directory first,
   then the repo root).
2. Backticked source paths — tokens ending in .h/.cc/.md/.py/.sh/.yml.
   With a '/' they must exist as given; bare filenames must match some
   file in the tree (so `wire_format.h` works without its directory).
   Runtime artifacts (.json/.csv/.trc logs) are deliberately excluded.
3. Backticked `./binary` invocations — the binary name must be a build
   target: clic_sweep, clic_serve, or a bench_*/test_* source basename.
4. Backticked GoogleTest references — `Suite.Name` must be a
   TEST(Suite, Name) or TEST_F(Suite, Name) in a .cc file under tests/,
   and a bare `...Test` token must name a suite of one. A deleted or
   renamed test therefore cannot stay cited in the docs.

Exit 1 on any missing reference, 2 on usage errors. Stdlib only; CI
runs this so a README quickstart can never name a file or target that
a fresh checkout does not have.
"""
import os
import re
import sys

SOURCE_EXTS = (".h", ".cc", ".md", ".py", ".sh", ".yml")
# Extensionless dotfiles the docs are allowed to reference by name; they
# fall outside SOURCE_EXTS so each one is opted in explicitly.
DOTFILE_REFS = {".clang-tidy"}
SKIP_DIRS = {".git", "build", "build-asan", "clic_trace_cache", ".claude"}
# `./name` tokens that are runtime artifacts (created by running the
# binaries), not build targets.
RUNTIME_DIRS = {"clic_trace_cache"}


def repo_files(root):
    found = set()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames
                       if d not in SKIP_DIRS and not d.startswith("build")]
        for name in filenames:
            rel = os.path.relpath(os.path.join(dirpath, name), root)
            found.add(rel.replace(os.sep, "/"))
    return found


def known_targets(files):
    targets = {"clic_sweep", "clic_serve"}
    for path in files:
        base = os.path.basename(path)
        if base.endswith(".cc") and (base.startswith("bench_") or
                                     base.startswith("test_")):
            targets.add(base[:-3])
    return targets


def known_tests(root, files):
    """Returns ({(suite, name)}, {suite}) for every test under tests/."""
    tests = set()
    for path in files:
        if not (path.startswith("tests/") and path.endswith(".cc")):
            continue
        with open(os.path.join(root, path), encoding="utf-8") as f:
            text = f.read()
        tests.update(re.findall(
            r"\bTEST(?:_F)?\(\s*([A-Za-z_]\w*)\s*,\s*([A-Za-z_]\w*)\s*\)",
            text))
    return tests, {suite for suite, _ in tests}


def check_doc(doc, root, files, basenames, targets, tests, suites):
    problems = []
    try:
        with open(os.path.join(root, doc), encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        return [f"{doc}: cannot read: {e}"]
    doc_dir = os.path.dirname(doc)

    # 1. Markdown links.
    for match in re.finditer(r"\[[^\]]+\]\(([^)\s]+)\)", text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "#", "mailto:")):
            continue
        target = target.split("#")[0]
        if not target:
            continue
        rel_to_doc = os.path.normpath(os.path.join(doc_dir, target))
        if rel_to_doc.replace(os.sep, "/") in files or target in files:
            continue
        problems.append(f"{doc}: broken link target '{match.group(1)}'")

    # 2 + 3. Backticked references. Fenced ``` blocks contain no inline
    # backticks, so their command lines are collected separately: every
    # `./word` inside a fence must name a build target (this is what
    # keeps the README quickstart honest).
    fence_tokens = []
    in_fence = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            fence_tokens += [w for w in line.split() if w.startswith("./")]
    for token in fence_tokens:
        binary = token[2:]
        if re.fullmatch(r"[A-Za-z0-9_]+", binary) and \
                binary not in targets and binary not in RUNTIME_DIRS:
            problems.append(
                f"{doc}: unknown binary target '{token}' in code fence")

    for match in re.finditer(r"`([^`\n]+)`", text):
        token = match.group(1).strip()
        test = re.fullmatch(r"([A-Za-z_]\w*Test)(?:\.([A-Za-z_]\w*))?", token)
        if test:
            suite, name = test.groups()
            if name is None and suite not in suites:
                problems.append(f"{doc}: unknown test suite '{token}'")
            elif name is not None and (suite, name) not in tests:
                problems.append(f"{doc}: unknown test '{token}'")
            continue
        # Placeholders, globs, env vars, and flags are not paths.
        if any(c in token for c in "*<>$ {}|="):
            # ... but a `./binary --flags` invocation still names a
            # target in its first word.
            words = token.split()
            if words and words[0].startswith("./"):
                binary = words[0][2:]
                if re.fullmatch(r"[A-Za-z0-9_]+", binary) and \
                        binary not in targets:
                    problems.append(
                        f"{doc}: unknown binary target './{binary}'")
            continue
        if token.startswith("./") and "/" not in token[2:] and \
                "." not in token[2:]:
            if token[2:] not in targets and token[2:] not in RUNTIME_DIRS:
                problems.append(f"{doc}: unknown binary target '{token}'")
            continue
        # `name.h/.cc` is the docs' shorthand for the header/source
        # pair; expand it to both files.
        pair = re.fullmatch(r"([A-Za-z0-9_./-]+)\.h/\.cc", token)
        expanded = [pair.group(1) + ".h", pair.group(1) + ".cc"] if pair \
            else [token]
        for item in expanded:
            if item in DOTFILE_REFS:
                if item not in files:
                    problems.append(f"{doc}: missing source path '{item}'")
                continue
            if not (item.endswith(SOURCE_EXTS) and
                    re.fullmatch(r"[A-Za-z0-9_./-]+", item)):
                continue
            path = item[2:] if item.startswith("./") else item
            if "/" in path:
                if path not in files:
                    problems.append(f"{doc}: missing source path '{item}'")
            elif path not in basenames:
                problems.append(f"{doc}: missing source file '{item}'")
    return problems


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(argv[0])))
    files = repo_files(root)
    basenames = {os.path.basename(f) for f in files}
    targets = known_targets(files)
    tests, suites = known_tests(root, files)
    problems = []
    for doc in argv[1:]:
        problems += check_doc(doc, root, files, basenames, targets, tests,
                              suites)
    for problem in problems:
        print(f"check_docs_links: {problem}", file=sys.stderr)
    checked = len(argv) - 1
    if problems:
        print(f"check_docs_links: {len(problems)} problem(s) across "
              f"{checked} doc(s)", file=sys.stderr)
        return 1
    print(f"check_docs_links: OK ({checked} doc(s), {len(files)} repo files, "
          f"{len(targets)} targets, {len(tests)} tests)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
