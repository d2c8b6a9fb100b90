#!/usr/bin/env python3
"""Validate the alive2re on-disk query cache end to end (stdlib only).

Two modes, combinable:

  --cache-file FILE       validate the store format: the version header,
                          then one "Q <fp> <result> <detail>" or
                          "P <fp> <kind> <queries> <failed> <detail>" record
                          per line (32-hex-digit fingerprints, enum ranges,
                          escaped fields).

  --alive-tv BIN --src S --tgt T --cache-dir DIR
                          drive a cold + warm alive-tv --json run against a
                          removed DIR (the cold run must create it) and
                          assert the cache contract: the warm
                          run reports every pair as cached, its verdicts are
                          identical to the cold run's, and the stats counter
                          cache.pair.hits is positive (hit-rate > 0). The
                          produced store file is format-checked too.

Exit status 0 when everything validates, 1 otherwise, with one diagnostic
per violation on stderr. Used by the `tool.check-cache` ctest and usable
standalone:

  python3 tools/check_cache.py --alive-tv build/tools/alive-tv \\
      --src tests/inputs/multi_src.ll --tgt tests/inputs/multi_tgt.ll \\
      --cache-dir /tmp/qc
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

CACHE_FILE_NAME = "alive2re.cache"
FORMAT_VERSION = 1
ESCAPES = set("\\nrtse")


def fail(errors, msg):
    errors.append(msg)
    print(f"check_cache: {msg}", file=sys.stderr)


def valid_field(tok):
    """An escaped field: no raw spaces (split already), '\\' only before a
    known escape character."""
    i = 0
    while i < len(tok):
        if tok[i] == "\\":
            if i + 1 >= len(tok) or tok[i + 1] not in ESCAPES:
                return False
            i += 2
        else:
            i += 1
    return len(tok) > 0


def valid_fp(tok):
    return len(tok) == 32 and all(c in "0123456789abcdef" for c in tok)


def check_cache_file(path, errors):
    queries = pairs = 0
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        want = f"alive2re-qcache {FORMAT_VERSION}"
        if header != want:
            fail(errors, f"{path}:1: bad header {header!r}, want {want!r}")
            return 0, 0
        for lineno, line in enumerate(fh, 2):
            line = line.rstrip("\n")
            if not line:
                continue
            f = line.split(" ")
            if f[0] == "Q":
                if (len(f) == 4 and valid_fp(f[1]) and f[2] in ("0", "1", "2")
                        and valid_field(f[3])):
                    queries += 1
                    continue
            elif f[0] == "P":
                if (len(f) == 6 and valid_fp(f[1]) and f[2].isdigit()
                        and int(f[2]) <= 0xFF and f[3].isdigit()
                        and valid_field(f[4]) and valid_field(f[5])):
                    pairs += 1
                    continue
            fail(errors, f"{path}:{lineno}: malformed record {line!r}")
    if queries + pairs == 0:
        fail(errors, f"{path}: no records")
    return queries, pairs


def run_tv(args, extra, errors):
    cmd = [args.alive_tv, args.src, args.tgt, "--json",
           "--timeout", "30"] + extra
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # 1 = refinement violations found
        fail(errors, f"{' '.join(cmd)}: exit {proc.returncode}: "
             f"{proc.stderr.strip()}")
        return None
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        fail(errors, f"{' '.join(cmd)}: bad --json output: {exc}")
        return None


def verdict_key(pair):
    return (pair.get("function"), pair.get("verdict"),
            pair.get("failed_check"), pair.get("detail"),
            pair.get("queries_run"))


def check_cold_warm(args, errors):
    # Start without the directory: the cold run must create it.
    shutil.rmtree(args.cache_dir, ignore_errors=True)
    cache = ["--cache-dir", args.cache_dir]

    cold = run_tv(args, cache, errors)
    warm = run_tv(args, cache, errors)
    if cold is None or warm is None:
        return

    cold_pairs = cold.get("pairs", [])
    warm_pairs = warm.get("pairs", [])
    if not cold_pairs:
        fail(errors, "cold run verified no pairs")
    if len(cold_pairs) != len(warm_pairs):
        fail(errors, f"pair count mismatch: cold {len(cold_pairs)} vs "
             f"warm {len(warm_pairs)}")
        return

    for c, w in zip(cold_pairs, warm_pairs):
        name = c.get("function")
        if c.get("cached"):
            fail(errors, f"{name}: cold run already cached (dirty dir?)")
        if not w.get("cached"):
            fail(errors, f"{name}: warm run was not served from the cache")
        if verdict_key(c) != verdict_key(w):
            fail(errors, f"{name}: warm verdict differs from cold: "
                 f"{verdict_key(c)} vs {verdict_key(w)}")

    hits = warm.get("stats", {}).get("counters", {}).get("cache.pair.hits", 0)
    if hits <= 0:
        fail(errors, f"warm run reports cache.pair.hits = {hits}, want > 0")
    print(f"check_cache: {len(warm_pairs)} pairs, warm pair hits = {hits}")

    store = os.path.join(args.cache_dir, CACHE_FILE_NAME)
    if not os.path.exists(store):
        fail(errors, f"{store}: cache file was not written")
    else:
        q, p = check_cache_file(store, errors)
        print(f"check_cache: {store}: {q} query + {p} pair records")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cache-file", help="validate this store file only")
    ap.add_argument("--alive-tv", help="alive-tv binary for a cold/warm run")
    ap.add_argument("--src", help="source .ll for the cold/warm run")
    ap.add_argument("--tgt", help="target .ll for the cold/warm run")
    ap.add_argument("--cache-dir",
                    help="cache directory (wiped before the cold run)")
    args = ap.parse_args()

    errors = []
    if args.cache_file:
        q, p = check_cache_file(args.cache_file, errors)
        print(f"check_cache: {args.cache_file}: {q} query + {p} pair "
              "records")
    if args.alive_tv:
        if not (args.src and args.tgt and args.cache_dir):
            ap.error("--alive-tv needs --src, --tgt and --cache-dir")
        check_cold_warm(args, errors)
    if not args.cache_file and not args.alive_tv:
        ap.error("nothing to check: pass --cache-file and/or --alive-tv")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
