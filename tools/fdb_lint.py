#!/usr/bin/env python3
"""fdb_lint: project-invariant checks the compiler cannot express.

Rules (each reported as path:line: [rule] message):

  raw-threading      No std::mutex / std::shared_mutex / std::thread /
                     std::condition_variable outside src/common/. Everything
                     else goes through the annotated wrappers in
                     common/mutex.h or the pool in common/thread_pool.h, so
                     clang Thread Safety Analysis sees every lock.
                     (std::thread::hardware_concurrency is a query, not a
                     thread, and is allowed.)

  guarded-mutex      A file declaring a Mutex/SharedMutex member must
                     annotate at least one member GUARDED_BY(that mutex) —
                     an unreferenced mutex guards nothing and silently
                     drops out of Thread Safety Analysis.

  validated-ops      Every operator translation unit (src/core/ops_*.cc)
                     must invoke an FDB_VALIDATE_* macro (core/validate.h)
                     so FDB_VALIDATE builds deep-check operator results.

  include-guard      Headers carry the path-derived guard FDB_<PATH>_H_
                     (src/ stripped), e.g. src/core/frep.h uses
                     FDB_CORE_FREP_H_.

  raw-timing         No std::chrono::steady_clock / high_resolution_clock
                     outside src/common/ and src/bench_util/. Timing goes
                     through Timer / MonotonicClock / MonotonicDeadline
                     (common/timer.h) or QueryTrace spans (common/trace.h),
                     so every measurement shares one clock source and shows
                     up in the observability surfaces.

  no-abort-on-input  Modules that parse untrusted bytes (src/sql/,
                     src/core/serialize.cc, src/storage/csv.cc,
                     src/serve/protocol.cc) must not contain abort-path
                     constructs (FDB_ASSERT, FDB_DCHECK, assert(, abort()).
                     Malformed input must throw FdbError — the fuzz
                     harnesses in fuzz/ enforce the same contract at
                     runtime; this rule enforces it statically.

  fault-point        FDB_FAULT_POINT site names must be snake_case string
                     literals and unique — the fault registry
                     (common/fault.h) keys on them, so a reused name arms
                     two sites at once. Within-file duplicates are caught
                     per file; the tree walk also rejects the same name in
                     two different files.

  bad-alloc-catch    No `catch (std::bad_alloc)` outside src/common/.
                     Allocation failure is translated exactly once, by
                     TranslateBadAlloc (common/exec_context.h), into
                     FdbResourceExhausted so every out-of-memory surfaces
                     as RESOURCE; an ad-hoc catch would swallow the
                     resource-governance contract.

  union-walk         No std::vector<char> sized by NumUnions() outside
                     src/core/frep.{h,cc}, src/core/validate.cc and
                     src/core/serialize.cc. Union ids are in commit order
                     (children before parents), so a pass over the union
                     DAG is one loop over the ids with the mask from
                     FRep::ReachableUnions; a private per-union flag array
                     is the sign of a stack walker coming back.

Exit status: 0 when clean, 1 when any rule fires, 2 on usage errors.
--self-test seeds one violation per rule through the checkers and fails if
any rule does NOT fire (the armed-probe pattern: prove the lint is live).
"""

import argparse
import re
import sys
from pathlib import Path

# --------------------------------------------------------------------------
# Helpers


def strip_comments(text):
    """Removes // and /* */ comments, preserving line structure."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == '/' and i + 1 < n and text[i + 1] == '/':
            while i < n and text[i] != '\n':
                i += 1
        elif c == '/' and i + 1 < n and text[i + 1] == '*':
            j = text.find('*/', i + 2)
            j = n if j < 0 else j + 2
            out.append('\n' * text.count('\n', i, j))
            i = j
        elif c in '"\'':
            # Skip string/char literals so quoted code is not matched.
            quote, i = c, i + 1
            out.append(quote)
            while i < n and text[i] != quote:
                i += 2 if text[i] == '\\' else 1
            i += 1
            out.append(quote)
        else:
            out.append(c)
            i += 1
    return ''.join(out)


def strip_only_comments(text):
    """Removes // and /* */ comments but KEEPS string-literal contents
    (strip_comments blanks them), for rules that inspect literals."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == '/' and i + 1 < n and text[i + 1] == '/':
            while i < n and text[i] != '\n':
                i += 1
        elif c == '/' and i + 1 < n and text[i + 1] == '*':
            j = text.find('*/', i + 2)
            j = n if j < 0 else j + 2
            out.append('\n' * text.count('\n', i, j))
            i = j
        elif c in '"\'':
            quote, i = c, i + 1
            out.append(quote)
            start = i
            while i < n and text[i] != quote:
                i += 2 if text[i] == '\\' else 1
            out.append(text[start:min(i, n)])
            i += 1
            out.append(quote)
        else:
            out.append(c)
            i += 1
    return ''.join(out)


def findings_for(lines_re, text, make_msg):
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        m = lines_re.search(line)
        if m:
            out.append((lineno, make_msg(m)))
    return out


# --------------------------------------------------------------------------
# Rules. Each checker takes (relpath: str, text: str) and returns a list of
# (lineno, message); scoping (which files a rule applies to) lives in the
# checker itself so --self-test can exercise it with synthetic paths.

RAW_THREADING_RE = re.compile(
    r'std::(mutex|shared_mutex|condition_variable(_any)?|thread)\b'
    r'(?!::hardware_concurrency)')


def check_raw_threading(relpath, text):
    if not relpath.startswith('src/') or relpath.startswith('src/common/'):
        return []
    return findings_for(
        RAW_THREADING_RE, strip_comments(text),
        lambda m: '[raw-threading] raw std::%s outside src/common/ — use '
                  'the annotated wrappers in common/mutex.h or '
                  'common/thread_pool.h' % m.group(1))


MUTEX_MEMBER_RE = re.compile(
    r'^\s*(?:mutable\s+)?(?:Mutex|SharedMutex)\s+(\w+)\s*;')


def check_guarded_mutex(relpath, text):
    if not relpath.startswith(('src/', 'fuzz/')):
        return []
    if relpath == 'src/common/mutex.h':  # defines the wrappers themselves
        return []
    stripped = strip_comments(text)
    out = []
    for lineno, line in enumerate(stripped.splitlines(), 1):
        m = MUTEX_MEMBER_RE.match(line)
        if m and ('GUARDED_BY(%s)' % m.group(1)) not in stripped:
            out.append((lineno,
                        '[guarded-mutex] mutex member %s has no '
                        'GUARDED_BY(%s) annotation on any member — Thread '
                        'Safety Analysis cannot see what it protects'
                        % (m.group(1), m.group(1))))
    return out


VALIDATED_OPS_RE = re.compile(r'\bFDB_VALIDATE_\w+\s*\(')


def check_validated_ops(relpath, text):
    if not re.fullmatch(r'src/core/ops_\w+\.cc', relpath):
        return []
    if VALIDATED_OPS_RE.search(strip_comments(text)):
        return []
    return [(1, '[validated-ops] operator translation unit never invokes an '
                'FDB_VALIDATE_* macro (core/validate.h)')]


def expected_guard(relpath):
    p = relpath[len('src/'):] if relpath.startswith('src/') else relpath
    return 'FDB_' + re.sub(r'[^A-Za-z0-9]', '_', p).upper() + '_'


def check_include_guard(relpath, text):
    if not relpath.endswith('.h'):
        return []
    if not relpath.startswith(('src/', 'fuzz/')):
        return []
    guard = expected_guard(relpath)
    stripped = strip_comments(text)
    if re.search(r'^\s*#ifndef\s+%s\s*$' % re.escape(guard), stripped, re.M) \
            and re.search(r'^\s*#define\s+%s\s*$' % re.escape(guard),
                          stripped, re.M):
        return []
    return [(1, '[include-guard] header must use the path-derived guard '
                + guard)]


RAW_TIMING_RE = re.compile(
    r'std::chrono::(steady_clock|high_resolution_clock)\b')


def check_raw_timing(relpath, text):
    if not relpath.startswith(('src/', 'fuzz/')):
        return []
    if relpath.startswith(('src/common/', 'src/bench_util/')):
        return []
    return findings_for(
        RAW_TIMING_RE, strip_comments(text),
        lambda m: '[raw-timing] raw std::chrono::%s outside src/common/ — '
                  'use Timer / MonotonicClock / MonotonicDeadline '
                  '(common/timer.h) or QueryTrace (common/trace.h)'
                  % m.group(1))


INPUT_PARSING_FILES = re.compile(
    r'src/sql/[^/]+\.(h|cc)|src/core/serialize\.cc|src/storage/csv\.cc'
    r'|src/serve/protocol\.cc')

ABORT_PATH_RE = re.compile(
    r'\b(FDB_ASSERT|FDB_DCHECK)\b|(?<![\w.])(std::)?abort\s*\('
    r'|(?<![\w.])assert\s*\(')


def check_no_abort_on_input(relpath, text):
    if not INPUT_PARSING_FILES.fullmatch(relpath):
        return []
    return findings_for(
        ABORT_PATH_RE, strip_comments(text),
        lambda m: '[no-abort-on-input] abort-path construct in an '
                  'untrusted-input module — malformed input must throw '
                  'FdbError, never kill the process')


FAULT_POINT_RE = re.compile(r'FDB_FAULT_POINT\(\s*"([^"]*)"\s*\)')
SNAKE_CASE_RE = re.compile(r'[a-z][a-z0-9_]*')


def fault_point_sites(text):
    """Yields (lineno, name) for each literal FDB_FAULT_POINT call site.

    Scans comment-stripped text with string literals intact (the macro
    definition in common/fault.h takes a bare parameter, not a literal, so
    it never matches)."""
    for lineno, line in enumerate(strip_only_comments(text).splitlines(), 1):
        for m in FAULT_POINT_RE.finditer(line):
            yield lineno, m.group(1)


def check_fault_points(relpath, text):
    if not relpath.startswith(('src/', 'fuzz/')):
        return []
    out = []
    seen = {}
    for lineno, name in fault_point_sites(text):
        if not SNAKE_CASE_RE.fullmatch(name):
            out.append((lineno,
                        '[fault-point] site name "%s" is not snake_case '
                        '(lower-case letters, digits, underscores)' % name))
        elif name in seen:
            out.append((lineno,
                        '[fault-point] site name "%s" reused (first at '
                        'line %d) — the registry keys on names, so both '
                        'sites would arm together' % (name, seen[name])))
        else:
            seen[name] = lineno
    return out


BAD_ALLOC_CATCH_RE = re.compile(r'catch\s*\(\s*(?:const\s+)?std::bad_alloc\b')


def check_bad_alloc_catch(relpath, text):
    if not relpath.startswith(('src/', 'fuzz/')):
        return []
    if relpath.startswith('src/common/'):
        return []
    return findings_for(
        BAD_ALLOC_CATCH_RE, strip_comments(text),
        lambda m: '[bad-alloc-catch] raw catch of std::bad_alloc outside '
                  'src/common/ — wrap the allocating region in '
                  'TranslateBadAlloc (common/exec_context.h) so the '
                  'failure surfaces as RESOURCE')


UNION_WALK_RE = re.compile(r'std::vector<char>[^;]*\bNumUnions\s*\(')
UNION_WALK_FILES = ('src/core/frep.h', 'src/core/frep.cc',
                    'src/core/validate.cc', 'src/core/serialize.cc')


def check_union_walk(relpath, text):
    if not relpath.startswith(('src/', 'fuzz/')):
        return []
    if relpath in UNION_WALK_FILES:
        return []
    return findings_for(
        UNION_WALK_RE, strip_comments(text),
        lambda m: '[union-walk] per-union char flags sized by NumUnions() '
                  '— loop over the ids (children precede parents) with the '
                  'mask from FRep::ReachableUnions instead of a private '
                  'DAG walker')


CHECKERS = [
    check_raw_threading,
    check_guarded_mutex,
    check_validated_ops,
    check_include_guard,
    check_raw_timing,
    check_no_abort_on_input,
    check_fault_points,
    check_bad_alloc_catch,
    check_union_walk,
]

# --------------------------------------------------------------------------
# Driver


def lint_tree(root):
    findings = []
    nfiles = 0
    fault_sites = {}  # name -> first (relpath, lineno); cross-file check
    for sub in ('src', 'fuzz'):
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob('*')):
            if path.suffix not in ('.h', '.cc'):
                continue
            relpath = path.relative_to(root).as_posix()
            text = path.read_text(encoding='utf-8', errors='replace')
            nfiles += 1
            for checker in CHECKERS:
                for lineno, msg in checker(relpath, text):
                    findings.append('%s:%d: %s' % (relpath, lineno, msg))
            for lineno, name in fault_point_sites(text):
                first = fault_sites.setdefault(name, (relpath, lineno))
                if first[0] != relpath:
                    findings.append(
                        '%s:%d: [fault-point] site name "%s" already used '
                        'at %s:%d — names are registry keys and must be '
                        'globally unique' % (relpath, lineno, name,
                                             first[0], first[1]))
    return findings, nfiles


# One deliberate violation per rule; --self-test fails unless every rule
# fires on its seed (and stays quiet on the clean twin).
SELF_TEST_CASES = [
    (check_raw_threading, 'src/core/x.cc',
     'static std::mutex mu;\n', 'std::thread::hardware_concurrency();\n'),
    (check_guarded_mutex, 'src/serve/x.h',
     'class C {\n  Mutex mu_;\n  int n_;\n};\n',
     'class C {\n  Mutex mu_;\n  int n_ GUARDED_BY(mu_);\n};\n'),
    (check_validated_ops, 'src/core/ops_x.cc',
     'void Op() {}\n', 'void Op() { FDB_VALIDATE_REP(rep); }\n'),
    (check_include_guard, 'src/core/x.h',
     '#ifndef WRONG_H\n#define WRONG_H\n#endif\n',
     '#ifndef FDB_CORE_X_H_\n#define FDB_CORE_X_H_\n#endif\n'),
    (check_raw_timing, 'src/serve/x.cc',
     'auto t0 = std::chrono::steady_clock::now();\n',
     'auto deadline = MonotonicDeadline(0.5);\n'),
    (check_no_abort_on_input, 'src/sql/x.cc',
     'void f() { FDB_ASSERT(ok); }\n',
     'void f() { FDB_CHECK_MSG(ok, "bad input"); }\n'),
    (check_fault_points, 'src/core/x.cc',
     'void f() {\n  FDB_FAULT_POINT("dup_site");\n'
     '  FDB_FAULT_POINT("dup_site");\n  FDB_FAULT_POINT("BadName");\n}\n',
     'void f() { FDB_FAULT_POINT("good_site"); }\n'),
    (check_bad_alloc_catch, 'src/core/x.cc',
     'try { f(); } catch (const std::bad_alloc&) { g(); }\n',
     'TranslateBadAlloc([&] { f(); }, "f");\n'),
    (check_union_walk, 'src/core/aggregate.cc',
     'std::vector<char> seen(rep.NumUnions(), 0);\n',
     'const std::vector<char> reach = rep.ReachableUnions();\n'),
]


def self_test():
    failures = []
    for checker, relpath, bad, good in SELF_TEST_CASES:
        name = checker.__name__
        if not checker(relpath, bad):
            failures.append('%s did NOT fire on its seeded violation' % name)
        if checker(relpath, good):
            failures.append('%s fired on its clean twin' % name)
    for msg in failures:
        print('fdb_lint --self-test: %s' % msg, file=sys.stderr)
    if not failures:
        print('fdb_lint --self-test: OK (%d rules armed)' % len(CHECKERS))
    return 1 if failures else 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument('--root', default='.', help='repository root')
    ap.add_argument('--self-test', action='store_true',
                    help='verify every rule fires on a seeded violation')
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test()
    root = Path(args.root)
    if not (root / 'src').is_dir():
        print('fdb_lint: %s does not look like the repo root (no src/)'
              % root, file=sys.stderr)
        return 2
    findings, nfiles = lint_tree(root)
    for f in findings:
        print(f)
    if findings:
        print('fdb_lint: %d finding(s) in %d files'
              % (len(findings), nfiles), file=sys.stderr)
        return 1
    print('fdb_lint: OK (%d files, %d rules)' % (nfiles, len(CHECKERS)))
    return 0


if __name__ == '__main__':
    sys.exit(main(sys.argv[1:]))
