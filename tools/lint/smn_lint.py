#!/usr/bin/env python3
"""smn-lint — static-analysis gate for the smn reproduction.

Four project-specific passes plus curated clang-tidy wiring:

  layering      #include edges in src/ must follow the module DAG in
                tools/lint/layers.toml (which must itself be acyclic and
                in sync with the directories on disk).
  determinism   flags source-level nondeterminism: unordered-container
                use, raw entropy (rand/random_device/mt19937/time-seeds)
                outside src/rng/, wall clocks in deterministic modules,
                pointer-keyed ordered containers, unordered
                floating-point reduction constructs, and ISA intrinsics
                outside src/util/simd.hpp.
  headers       compiles every public header in src/ as its own
                translation unit (-fsyntax-only), so a missing include
                cannot hide behind inclusion order elsewhere.
  scripts       python -m py_compile for the repo's *.py, `bash -n` (and
                shellcheck --severity=error when installed) for
                scripts/*.sh.
  tidy          runs clang-tidy (repo .clang-tidy) over the src/ TUs in
                compile_commands.json and diffs per-(file, check) counts
                against the checked-in baseline; new violations fail,
                frozen debt does not. Skipped with a notice when
                clang-tidy is not installed (pass --require-tidy to make
                that an error, as CI does).

Per-site suppression (determinism rules only):

    some_code();  // smn-lint: allow(<rule>) <written justification>

A trailing comment covers its own line; a standalone comment line covers
the next line. Every allow must carry a non-empty justification, must
suppress at least one finding (stale allows are errors), covers exactly
one line, and the total across src/ is capped by [lint].max_suppressions
in layers.toml.

Exit codes: 0 clean, 1 findings, 2 configuration/usage error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import py_compile
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import tomllib
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ALL_PASSES = ("layering", "determinism", "headers", "scripts", "tidy")

# ----------------------------------------------------------------------------
# Rule catalog (determinism pass). Scope: "src" = all of src/,
# "deterministic" = [determinism].deterministic_modules only.


@dataclass(frozen=True)
class Rule:
    name: str
    pattern: re.Pattern
    scope: str  # "src" | "deterministic"
    message: str
    includes: bool = False  # also match #include lines
    exempt: str = ""  # root-relative file the rule does not apply to


RULES = [
    Rule(
        "unordered-container",
        re.compile(r"\bunordered_(?:multi)?(?:map|set)\b"),
        "src",
        "std::unordered_* iteration order is unspecified and can leak into "
        "ordered output or DSU merge order; use a sorted container / sorted "
        "drain, or justify with an allow",
    ),
    Rule(
        "raw-rand",
        re.compile(
            r"(?:\brand\s*\(|\bsrand\s*\(|\brandom_device\b|\bmt19937(?:_64)?\b"
            r"|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\))"
        ),
        "src",
        "raw entropy outside src/rng/ breaks seed-by-index replay; draw "
        "through an rng::Rng stream seeded from (base_seed, rep_index)",
    ),
    Rule(
        "wall-clock",
        re.compile(r"\b(?:steady_clock|system_clock|high_resolution_clock)\b"),
        "deterministic",
        "wall clocks in a deterministic module suggest time-dependent state; "
        "timing-only telemetry must stay behind an opt-in flag and out of "
        "metric records (annotate with an allow if so)",
    ),
    Rule(
        "pointer-keyed",
        re.compile(r"\bstd::(?:multi)?(?:map|set)\s*<\s*(?:const\s+)?[\w:]+\s*\*"),
        "src",
        "pointer-keyed ordered containers iterate in allocation-address "
        "order, which varies run to run; key by a stable id instead",
    ),
    Rule(
        "float-accumulate",
        re.compile(
            r"(?:\bstd::(?:transform_)?reduce\b|\bstd::atomic\s*<\s*(?:float|double|long\s+double)\b"
            r"|\bstd::execution::par|#\s*pragma\s+omp\b.*\breduction\b)"
        ),
        "deterministic",
        "unordered floating-point accumulation is not associative; reduce "
        "in fixed shard-index order, as the replication runner aggregates "
        "index-addressed slots",
    ),
    Rule(
        "raw-intrinsics",
        re.compile(
            r"(?:#\s*include\s*<(?:immintrin|arm_neon)\.h>|\b_mm\w*|\bv\w+q_\w+)"
        ),
        "src",
        "ISA intrinsics outside src/util/simd.hpp escape the force-scalar "
        "build, whose goldens prove bit-identity only for kernels written "
        "against that layer; add the op to all three backends there",
        includes=True,
        exempt="src/util/simd.hpp",
    ),
]
RULE_NAMES = {r.name for r in RULES}


@dataclass
class Finding:
    path: str  # root-relative, forward slashes
    line: int  # 1-based; 0 = file-level
    rule: str
    message: str

    def render(self) -> str:
        loc = f"{self.path}:{self.line}" if self.line else self.path
        return f"{loc}: [{self.rule}] {self.message}"


@dataclass
class Allow:
    path: str
    comment_line: int
    target_line: int
    rule: str
    justification: str
    used: int = 0


@dataclass
class Config:
    root: Path
    layers: dict[str, list[str]]
    max_suppressions: int
    deterministic_modules: set[str]
    rng_module: str
    header_fallback_flags: list[str]
    header_exclude: set[str]
    tidy_baseline: str


def load_config(root: Path, config_path: Path) -> Config:
    with open(config_path, "rb") as fh:
        data = tomllib.load(fh)
    layers = {mod: list(deps) for mod, deps in data.get("layers", {}).items()}
    lint = data.get("lint", {})
    det = data.get("determinism", {})
    headers = data.get("headers", {})
    tidy = data.get("tidy", {})
    return Config(
        root=root,
        layers=layers,
        max_suppressions=int(lint.get("max_suppressions", 0)),
        deterministic_modules=set(det.get("deterministic_modules", [])),
        rng_module=det.get("rng_module", "rng"),
        header_fallback_flags=list(headers.get("fallback_flags", ["-std=c++20"])),
        header_exclude=set(headers.get("exclude", [])),
        tidy_baseline=tidy.get("baseline", "tools/lint/clang_tidy_baseline.txt"),
    )


# ----------------------------------------------------------------------------
# C++ scanning: strip comments/strings line-preservingly, collect allows.

ALLOW_RE = re.compile(r"smn-lint:\s*allow\(([\w-]+)\)\s*(.*?)\s*$")


@dataclass
class ScannedFile:
    rel: str
    code_lines: list[str]  # comments and string/char literals blanked
    allows: list[Allow] = field(default_factory=list)
    allow_errors: list[Finding] = field(default_factory=list)


def scan_cpp_file(root: Path, path: Path) -> ScannedFile:
    rel = path.relative_to(root).as_posix()
    text = path.read_text(encoding="utf-8", errors="replace")
    n = len(text)
    i = 0
    line_no = 1
    code: list[list[str]] = [[]]  # per-line stripped code chars
    comments: list[tuple[int, bool, str]] = []  # (line, had_code_before, text)

    def newline() -> None:
        nonlocal line_no
        code.append([])
        line_no += 1

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            newline()
            i += 1
        elif c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            had_code = any(ch not in " \t" for ch in code[-1])
            comments.append((line_no, had_code, text[i + 2 : j]))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            had_code = any(ch not in " \t" for ch in code[-1])
            comments.append((line_no, had_code, text[i + 2 : j]))
            for ch in text[i : j + 2]:
                if ch == "\n":
                    newline()
            i = j + 2
        elif c == "R" and nxt == '"':
            m = re.match(r'R"([^(\s]*)\(', text[i:])
            if m:
                close = ")" + m.group(1) + '"'
                j = text.find(close, i + m.end())
                j = n - len(close) if j == -1 else j
                for ch in text[i : j + len(close)]:
                    if ch == "\n":
                        newline()
                i = j + len(close)
            else:
                code[-1].append(c)
                i += 1
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            for ch in text[i : j + 1]:
                if ch == "\n":
                    newline()
            i = j + 1
        else:
            code[-1].append(c)
            i += 1

    scanned = ScannedFile(rel=rel, code_lines=["".join(chars) for chars in code])
    for cline, had_code, ctext in comments:
        m = ALLOW_RE.search(ctext)
        if not m:
            continue
        rule, why = m.group(1), m.group(2)
        if rule not in RULE_NAMES:
            scanned.allow_errors.append(
                Finding(rel, cline, "unknown-rule", f"allow({rule}) names no known rule")
            )
            continue
        if not why:
            scanned.allow_errors.append(
                Finding(
                    rel,
                    cline,
                    "allow-missing-justification",
                    f"allow({rule}) must carry a written justification",
                )
            )
            continue
        target = cline if had_code else cline + 1
        scanned.allows.append(Allow(rel, cline, target, rule, why))
    return scanned


def src_files(root: Path, suffixes: tuple[str, ...]) -> list[Path]:
    src = root / "src"
    return sorted(p for p in src.rglob("*") if p.suffix in suffixes and p.is_file())


def module_of(root: Path, path: Path) -> str | None:
    """Module directory of a src/ file, or None for umbrella files at src/ top level."""
    rel = path.relative_to(root / "src")
    return rel.parts[0] if len(rel.parts) > 1 else None


# ----------------------------------------------------------------------------
# Pass: layering.

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
INCLUDE_DIRECTIVE_RE = re.compile(r"^\s*#\s*include\b")


def pass_layering(cfg: Config) -> list[Finding]:
    findings: list[Finding] = []
    on_disk = {
        p.name for p in (cfg.root / "src").iterdir() if p.is_dir() and not p.name.startswith(".")
    }
    declared = set(cfg.layers)
    for mod in sorted(on_disk - declared):
        findings.append(
            Finding(
                f"src/{mod}",
                0,
                "layering",
                "module directory has no entry in tools/lint/layers.toml",
            )
        )
    for mod in sorted(declared - on_disk):
        findings.append(
            Finding(
                "tools/lint/layers.toml",
                0,
                "layering",
                f"declares module '{mod}' which does not exist under src/",
            )
        )
    for mod, deps in sorted(cfg.layers.items()):
        for dep in deps:
            if dep not in declared:
                findings.append(
                    Finding(
                        "tools/lint/layers.toml",
                        0,
                        "layering",
                        f"'{mod}' lists unknown module '{dep}'",
                    )
                )

    # The allowed graph must itself be a DAG: iteratively strip leaves.
    remaining = {m: {d for d in deps if d in declared} for m, deps in cfg.layers.items()}
    while remaining:
        leaves = [m for m, deps in remaining.items() if not deps]
        if not leaves:
            cycle = ", ".join(sorted(remaining))
            findings.append(
                Finding(
                    "tools/lint/layers.toml",
                    0,
                    "layering",
                    f"allowed-dependency graph has a cycle among: {cycle}",
                )
            )
            break
        for leaf in leaves:
            del remaining[leaf]
        for deps in remaining.values():
            deps.difference_update(leaves)

    for path in src_files(cfg.root, (".hpp", ".cpp")):
        mod = module_of(cfg.root, path)
        if mod is None:  # umbrella header at src/ top level
            continue
        allowed = set(cfg.layers.get(mod, ()))
        for line_no, line in enumerate(
            path.read_text(encoding="utf-8", errors="replace").splitlines(), 1
        ):
            m = INCLUDE_RE.match(line)
            if not m:
                continue
            target_mod = m.group(1).split("/", 1)[0]
            if target_mod == mod or target_mod not in declared:
                continue
            if target_mod not in allowed:
                findings.append(
                    Finding(
                        path.relative_to(cfg.root).as_posix(),
                        line_no,
                        "layering",
                        f"module '{mod}' may not include '{m.group(1)}' "
                        f"('{mod}' -> '{target_mod}' is not an edge in layers.toml)",
                    )
                )
    return findings


# ----------------------------------------------------------------------------
# Pass: determinism (with suppression accounting).


def pass_determinism(cfg: Config) -> list[Finding]:
    findings: list[Finding] = []
    allows: list[Allow] = []
    for path in src_files(cfg.root, (".hpp", ".cpp")):
        mod = module_of(cfg.root, path)
        scanned = scan_cpp_file(cfg.root, path)
        findings.extend(scanned.allow_errors)
        allows.extend(scanned.allows)
        raw: list[Finding] = []
        for rule in RULES:
            if rule.scope == "deterministic" and mod not in cfg.deterministic_modules:
                continue
            if rule.name == "raw-rand" and mod == cfg.rng_module:
                continue
            if rule.exempt == scanned.rel:
                continue
            for line_no, line in enumerate(scanned.code_lines, 1):
                # An #include alone does nothing nondeterministic; the
                # use sites are what get flagged (and annotated).
                if not rule.includes and INCLUDE_DIRECTIVE_RE.match(line):
                    continue
                if rule.pattern.search(line):
                    raw.append(Finding(scanned.rel, line_no, rule.name, rule.message))
        for f in raw:
            suppressed = False
            for allow in scanned.allows:
                if allow.rule == f.rule and allow.target_line == f.line:
                    allow.used += 1
                    suppressed = True
                    break
            if not suppressed:
                findings.append(f)

    used = 0
    for allow in allows:
        if allow.used == 0:
            findings.append(
                Finding(
                    allow.path,
                    allow.comment_line,
                    "unused-allow",
                    f"allow({allow.rule}) suppresses nothing on line {allow.target_line}; "
                    "remove it (stale suppressions hide future regressions)",
                )
            )
        else:
            used += 1
    if used > cfg.max_suppressions:
        findings.append(
            Finding(
                "tools/lint/layers.toml",
                0,
                "suppression-budget",
                f"{used} allow sites exceed the budget of {cfg.max_suppressions}; "
                "fix sites or raise [lint].max_suppressions in a reviewed change",
            )
        )
    return findings


# ----------------------------------------------------------------------------
# Pass: header self-sufficiency.


def compile_flags(cfg: Config, build_dir: Path | None) -> tuple[str, list[str]]:
    """(compiler, flags) for standalone header compiles.

    Prefers the flags of a src/ TU in compile_commands.json so the header
    pass sees the same -std/-I/-D environment as the real build; falls
    back to [headers].fallback_flags.
    """
    compiler = os.environ.get("CXX") or "c++"
    flags: list[str] = []
    cc_path = build_dir / "compile_commands.json" if build_dir else None
    if cc_path and cc_path.is_file():
        try:
            entries = json.loads(cc_path.read_text())
        except json.JSONDecodeError:
            entries = []
        src_prefix = str(cfg.root / "src") + os.sep
        for entry in entries:
            if not entry.get("file", "").startswith(src_prefix):
                continue
            # "command" entries are shell-encoded (-DFOO=\"bar\"); shlex
            # undoes that so subprocess can pass the real tokens.
            tokens = entry.get("arguments") or shlex.split(entry.get("command", ""))
            if not tokens:
                continue
            compiler = tokens[0]
            it = iter(tokens[1:])
            for tok in it:
                if tok in ("-I", "-isystem", "-D", "-U", "-include"):
                    arg = next(it, "")
                    flags.extend([tok, arg])
                elif tok.startswith(("-I", "-D", "-U", "-std=", "-m", "-f")) and tok not in (
                    "-fsyntax-only",
                ):
                    flags.append(tok)
            break
    if not flags:
        flags = list(cfg.header_fallback_flags)
    include_root = f"-I{cfg.root / 'src'}"
    if include_root not in flags:
        flags.append(include_root)
    return compiler, flags


def pass_headers(cfg: Config, build_dir: Path | None, jobs: int) -> list[Finding]:
    compiler, flags = compile_flags(cfg, build_dir)
    headers = [
        h
        for h in src_files(cfg.root, (".hpp",))
        if h.relative_to(cfg.root).as_posix() not in cfg.header_exclude
    ]
    findings: list[Finding] = []

    def check(header: Path) -> Finding | None:
        rel = header.relative_to(cfg.root).as_posix()
        inc = header.relative_to(cfg.root / "src").as_posix()
        with tempfile.NamedTemporaryFile(
            "w", suffix=".cpp", prefix="smn_lint_hdr_", delete=False
        ) as tu:
            tu.write(f'#include "{inc}"\n')
            tu_path = tu.name
        try:
            proc = subprocess.run(
                [compiler, *flags, "-fsyntax-only", tu_path],
                capture_output=True,
                text=True,
            )
        finally:
            os.unlink(tu_path)
        if proc.returncode != 0:
            first = next(
                (l for l in proc.stderr.splitlines() if ": error:" in l),
                proc.stderr.strip().splitlines()[0] if proc.stderr.strip() else "compile failed",
            )
            return Finding(
                rel,
                0,
                "header-self-sufficiency",
                f"does not compile standalone: {first}",
            )
        return None

    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        for result in pool.map(check, headers):
            if result:
                findings.append(result)
    findings.sort(key=lambda f: f.path)
    return findings


# ----------------------------------------------------------------------------
# Pass: scripts (python byte-compile + shell syntax/shellcheck).


def pass_scripts(cfg: Config) -> list[Finding]:
    findings: list[Finding] = []
    py_files = sorted(
        {
            *(cfg.root / "scripts").glob("**/*.py"),
            *(cfg.root / "tools").glob("**/*.py"),
            *(cfg.root / "tests").glob("*.py"),
        }
    )
    with tempfile.TemporaryDirectory(prefix="smn_lint_pyc_") as scratch:
        for idx, py in enumerate(py_files):
            rel = py.relative_to(cfg.root).as_posix()
            try:
                py_compile.compile(str(py), cfile=os.path.join(scratch, f"{idx}.pyc"), doraise=True)
            except py_compile.PyCompileError as err:
                findings.append(Finding(rel, 0, "py-compile", str(err.msg).strip().split("\n")[0]))

    sh_files = sorted((cfg.root / "scripts").glob("**/*.sh"))
    for sh in sh_files:
        rel = sh.relative_to(cfg.root).as_posix()
        proc = subprocess.run(["bash", "-n", str(sh)], capture_output=True, text=True)
        if proc.returncode != 0:
            first = proc.stderr.strip().splitlines()[0] if proc.stderr.strip() else "syntax error"
            findings.append(Finding(rel, 0, "sh-syntax", first))

    shellcheck = shutil.which("shellcheck")
    if shellcheck and sh_files:
        proc = subprocess.run(
            [shellcheck, "--severity=error", "--format=gcc", *map(str, sh_files)],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            for line in proc.stdout.splitlines():
                m = re.match(r"^(.*?):(\d+):\d+:\s*error:\s*(.*)$", line)
                if m:
                    rel = Path(m.group(1)).resolve().relative_to(cfg.root).as_posix()
                    findings.append(Finding(rel, int(m.group(2)), "shellcheck", m.group(3)))
    elif not shellcheck:
        print("smn-lint: shellcheck not installed; shell pass ran `bash -n` only")
    return findings


# ----------------------------------------------------------------------------
# Pass: clang-tidy vs baseline.

TIDY_WARNING_RE = re.compile(r"^(.+?):(\d+):\d+:\s+warning:\s+.*\[([\w.,-]+)\]\s*$")


def parse_tidy_output(cfg: Config, text: str) -> Counter:
    counts: Counter = Counter()
    for line in text.splitlines():
        m = TIDY_WARNING_RE.match(line)
        if not m:
            continue
        raw_path = Path(m.group(1))
        try:
            rel = raw_path.resolve().relative_to(cfg.root).as_posix()
        except ValueError:
            rel = raw_path.as_posix()
        for check in m.group(3).split(","):
            counts[(rel, check)] += 1
    return counts


def read_baseline(path: Path) -> tuple[str, Counter]:
    mode = "frozen"
    counts: Counter = Counter()
    if not path.is_file():
        return mode, counts
    for line in path.read_text().splitlines():
        line = line.strip()
        if line.startswith("# mode:"):
            mode = line.split(":", 1)[1].strip()
        elif line and not line.startswith("#"):
            file_, check, count = line.split("\t")
            counts[(file_, check)] = int(count)
    return mode, counts


def write_baseline(path: Path, counts: Counter, mode: str) -> None:
    lines = [
        "# smn-lint clang-tidy baseline v1",
        "# Frozen debt: per-(file, check) warning counts the tidy pass",
        "# tolerates. Regenerate with smn_lint.py --passes tidy --update-baseline.",
        f"# mode: {mode}",
    ]
    for (file_, check), count in sorted(counts.items()):
        lines.append(f"{file_}\t{check}\t{count}")
    path.write_text("\n".join(lines) + "\n")


def pass_tidy(cfg: Config, args: argparse.Namespace) -> list[Finding]:
    baseline_path = cfg.root / cfg.tidy_baseline
    mode, baseline = read_baseline(baseline_path)

    if args.tidy_input:
        output = Path(args.tidy_input).read_text()
    else:
        tidy = shutil.which(os.environ.get("CLANG_TIDY", "clang-tidy"))
        if not tidy:
            msg = "clang-tidy not installed; tidy pass skipped"
            if args.require_tidy:
                return [Finding("tools/lint/smn_lint.py", 0, "tidy-missing", msg)]
            print(f"smn-lint: {msg}")
            return []
        build_dir = args.build_dir and Path(args.build_dir)
        cc_path = build_dir / "compile_commands.json" if build_dir else None
        if not cc_path or not cc_path.is_file():
            msg = "tidy pass needs --build-dir with compile_commands.json"
            if args.require_tidy:
                return [Finding("tools/lint/smn_lint.py", 0, "tidy-missing", msg)]
            print(f"smn-lint: {msg}; skipped")
            return []
        entries = json.loads(cc_path.read_text())
        src_prefix = str(cfg.root / "src") + os.sep
        tus = sorted({e["file"] for e in entries if e.get("file", "").startswith(src_prefix)})
        if not tus:
            return [
                Finding(
                    str(cc_path),
                    0,
                    "tidy-missing",
                    "compile_commands.json lists no src/ translation units",
                )
            ]
        proc = subprocess.run(
            [tidy, "-p", str(build_dir), "--quiet", *tus],
            capture_output=True,
            text=True,
        )
        output = proc.stdout

    counts = parse_tidy_output(cfg, output)
    if args.update_baseline:
        write_baseline(baseline_path, counts, mode="frozen")
        print(f"smn-lint: wrote {baseline_path} ({sum(counts.values())} warnings, mode frozen)")
        return []

    findings: list[Finding] = []
    for (file_, check), count in sorted(counts.items()):
        allowed = baseline.get((file_, check), 0)
        if count > allowed:
            findings.append(
                Finding(
                    file_,
                    0,
                    "tidy-new-violation",
                    f"{check}: {count} warning(s), baseline allows {allowed}",
                )
            )
    for (file_, check), allowed in sorted(baseline.items()):
        if counts.get((file_, check), 0) < allowed:
            print(
                f"smn-lint: note: baseline over-allows {file_} [{check}] "
                f"({counts.get((file_, check), 0)} < {allowed}); tighten with --update-baseline"
            )

    if mode == "bootstrap":
        if findings:
            proposed = None
            if args.build_dir:
                proposed = Path(args.build_dir) / "clang_tidy_proposed_baseline.txt"
                proposed.parent.mkdir(parents=True, exist_ok=True)
                write_baseline(proposed, counts, mode="frozen")
            print(
                f"smn-lint: tidy baseline is in bootstrap mode: {len(findings)} "
                "new-violation finding(s) reported but not enforced"
                + (f"; proposed frozen baseline written to {proposed}" if proposed else "")
            )
            for f in findings:
                print(f"  (bootstrap) {f.render()}")
        return []
    return findings


# ----------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="smn_lint.py", description="project static-analysis gate (see docs/static_analysis.md)"
    )
    parser.add_argument("--root", default=".", help="repo root (contains src/)")
    parser.add_argument("--config", help="layers.toml path (default: ROOT/tools/lint/layers.toml)")
    parser.add_argument("--build-dir", help="CMake build dir with compile_commands.json")
    parser.add_argument(
        "--passes",
        default=",".join(ALL_PASSES),
        help=f"comma-separated subset of: {','.join(ALL_PASSES)}",
    )
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    parser.add_argument(
        "--require-tidy", action="store_true", help="missing clang-tidy is an error (CI)"
    )
    parser.add_argument(
        "--update-baseline", action="store_true", help="rewrite the clang-tidy baseline (frozen)"
    )
    parser.add_argument(
        "--tidy-input", help="parse a saved clang-tidy output file instead of running clang-tidy"
    )
    parser.add_argument("--list-rules", action="store_true", help="print the rule catalog and exit")
    args = parser.parse_args()

    if args.list_rules:
        for rule in RULES:
            scope = "src/" if rule.scope == "src" else "deterministic modules"
            print(f"{rule.name:22s} [{scope}] {rule.message}")
        return 0

    root = Path(args.root).resolve()
    if not (root / "src").is_dir():
        print(f"smn-lint: no src/ under {root}", file=sys.stderr)
        return 2
    if args.config:
        config_path = Path(args.config)
    else:
        config_path = root / "tools/lint/layers.toml"
        if not config_path.is_file():  # fixture roots keep layers.toml at top level
            config_path = root / "layers.toml"
    if not config_path.is_file():
        print(f"smn-lint: missing config {config_path}", file=sys.stderr)
        return 2
    cfg = load_config(root, config_path)

    selected = [p.strip() for p in args.passes.split(",") if p.strip()]
    unknown = [p for p in selected if p not in ALL_PASSES]
    if unknown:
        print(f"smn-lint: unknown pass(es): {', '.join(unknown)}", file=sys.stderr)
        return 2

    build_dir = Path(args.build_dir).resolve() if args.build_dir else None
    all_findings: list[Finding] = []
    for name in selected:
        if name == "layering":
            found = pass_layering(cfg)
        elif name == "determinism":
            found = pass_determinism(cfg)
        elif name == "headers":
            found = pass_headers(cfg, build_dir, args.jobs)
        elif name == "scripts":
            found = pass_scripts(cfg)
        else:
            found = pass_tidy(cfg, args)
        status = "clean" if not found else f"{len(found)} finding(s)"
        print(f"smn-lint: pass {name}: {status}")
        all_findings.extend(found)

    if all_findings:
        print()
        for f in sorted(all_findings, key=lambda f: (f.path, f.line, f.rule)):
            print(f.render())
        print(f"\nsmn-lint: FAILED with {len(all_findings)} finding(s)")
        return 1
    print("smn-lint: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
