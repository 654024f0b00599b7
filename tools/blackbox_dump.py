#!/usr/bin/env python3
"""Pretty-printer for crash flight-recorder bundles (DESIGN.md §5g).

A `blackbox-<day>/` bundle is what baatsim leaves behind when the run-health
watchdog trips, an exception escapes the day loop, or the process takes a
fatal signal. This tool renders one readably:

  MANIFEST.json   why/when the run died (day, reason, health score)
  health.txt      the watchdog's incident report, verbatim
  metrics.json    counter/gauge summary (top rows)
  ledger.csv      per-mechanism aging attribution at death
  trace.jsonl     the last events before death (tail)
  cluster.snap    sectioned snapshot (magic, version, section count and
                  every section's CRC checked)

Every malformed-bundle path exits with a one-line diagnosis (exit 2), never
a traceback. `--self-test` builds a synthetic bundle in a temp directory,
renders it, and checks the malformed-input guards — CI runs it to prove the
dump tooling itself works before anyone needs it at 3am.

Usage:
  blackbox_dump.py <bundle-dir> [--trace-tail N] [--metrics-rows N]
  blackbox_dump.py --self-test
"""

import argparse
import json
import os
import struct
import sys
import zlib

SNAP_MAGIC = b"BAATSECT"
SNAP_VERSION = 2
SNAP_HEADER = struct.Struct("<8sIQQ")  # magic, version, config hash, sections
SECTION_PREFIX = struct.Struct("<QI")  # payload size, crc


class BundleError(Exception):
    """A malformed bundle: reported as one line, exit status 2."""


def fail(msg):
    raise BundleError(msg)


def read_text(bundle, name, required=True):
    path = os.path.join(bundle, name)
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            return f.read()
    except OSError as e:
        if required:
            fail(f"cannot read {path}: {e.strerror or e}")
        return None


def load_manifest(bundle):
    text = read_text(bundle, "MANIFEST.json")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        fail(f"{bundle}/MANIFEST.json is not valid JSON: {e}")
    if not isinstance(doc, dict) or "day" not in doc or "reason" not in doc:
        fail(f"{bundle}/MANIFEST.json is not a blackbox manifest "
             "(needs 'day' and 'reason')")
    return doc


def encode_snap(config_hash, sections):
    """The bytes the simulator's section writer produces for `sections`."""
    out = [SNAP_HEADER.pack(SNAP_MAGIC, SNAP_VERSION, config_hash, len(sections))]
    for payload in sections:
        out.append(SECTION_PREFIX.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF))
        out.append(payload)
    return b"".join(out)


def snap_header(bundle):
    """Parse and verify the cluster.snap sectioned snapshot; None if absent
    (mid-day deaths ship the bundle without a snapshot)."""
    path = os.path.join(bundle, "cluster.snap")
    if not os.path.exists(path):
        return None
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        fail(f"cannot read {path}: {e.strerror or e}")
    if len(raw) < SNAP_HEADER.size:
        fail(f"{path} is truncated: {len(raw)} bytes, header needs "
             f"{SNAP_HEADER.size}")
    magic, version, config_hash, count = SNAP_HEADER.unpack_from(raw)
    if magic == b"BAATSNAP":
        fail(f"{path} uses the retired flat BAATSNAP container")
    if magic != SNAP_MAGIC:
        fail(f"{path} is not a BAAT sectioned snapshot (bad magic)")
    if version != SNAP_VERSION:
        fail(f"{path} has format version {version}; this tool reads "
             f"version {SNAP_VERSION}")
    offset = SNAP_HEADER.size
    sizes = []
    for i in range(count):
        if len(raw) - offset < SECTION_PREFIX.size:
            fail(f"{path} is truncated in section {i} header")
        size, crc = SECTION_PREFIX.unpack_from(raw, offset)
        offset += SECTION_PREFIX.size
        payload = raw[offset:offset + size]
        if len(payload) != size:
            fail(f"{path} is truncated: section {i} declares {size} bytes but "
                 "the file ends early")
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            fail(f"{path} is corrupted: section {i} CRC mismatch")
        offset += size
        sizes.append(size)
    if offset != len(raw):
        fail(f"{path} has {len(raw) - offset} trailing bytes after the last section")
    return {"version": version, "config_hash": config_hash, "section_bytes": sizes}


def render(bundle, trace_tail, metrics_rows, out=sys.stdout):
    if not os.path.isdir(bundle):
        fail(f"'{bundle}' is not a directory (expected a blackbox-<day>/ bundle)")
    manifest = load_manifest(bundle)

    p = out.write
    p(f"=== flight recorder: {bundle} ===\n")
    p(f"day          : {manifest['day']}\n")
    p(f"sim time     : {manifest.get('sim_time', '?')} s\n")
    p(f"health score : {manifest.get('health_score', '?')} "
      f"({manifest.get('incidents', '?')} incidents)\n")
    reason = str(manifest["reason"])
    first_line = reason.splitlines()[0] if reason else "(empty)"
    p(f"reason       : {first_line}\n")

    health = read_text(bundle, "health.txt", required=False)
    if health is not None:
        p("\n--- health.txt ---\n")
        p(health if health.endswith("\n") else health + "\n")

    ledger = read_text(bundle, "ledger.csv", required=False)
    if ledger is not None:
        p("\n--- ledger.csv (aging attribution at death) ---\n")
        p(ledger if ledger.endswith("\n") else ledger + "\n")

    metrics = read_text(bundle, "metrics.json", required=False)
    if metrics is not None:
        p("\n--- metrics.json ---\n")
        try:
            doc = json.loads(metrics)
        except json.JSONDecodeError as e:
            fail(f"{bundle}/metrics.json is not valid JSON: {e}")
        # The registry writes {"counters": {"name" or "name{label}": value},
        # "gauges": {...}, "histograms": {...}} — flat maps, already tagged.
        shown = 0
        for section in ("counters", "gauges"):
            rows = doc.get(section, {})
            if not isinstance(rows, dict):
                fail(f"{bundle}/metrics.json: '{section}' is not an object")
            for tag, value in rows.items():
                if shown >= metrics_rows:
                    break
                p(f"  {tag:42s} {value}\n")
                shown += 1
        if shown == 0:
            p("  (no counters or gauges)\n")

    trace = read_text(bundle, "trace.jsonl", required=False)
    if trace is not None:
        lines = [l for l in trace.splitlines() if l.strip()]
        p(f"\n--- trace.jsonl (last {min(trace_tail, len(lines))} of "
          f"{len(lines)} events) ---\n")
        for line in lines[-trace_tail:]:
            try:
                ev = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{bundle}/trace.jsonl has a malformed event line: {e}")
            detail = ev.get("detail", "")
            p(f"  t={ev.get('ts', '?'):>10} {ev.get('kind', '?'):16s} "
              f"node={ev.get('node', '?'):>3} value={ev.get('value', '?')}"
              f"{'  ' + detail if detail else ''}\n")

    snap = snap_header(bundle)
    p("\n--- cluster.snap ---\n")
    if snap is None:
        p("  absent (the run died mid-day; snapshots only exist at day "
          "boundaries)\n")
    else:
        sizes = snap["section_bytes"]
        p(f"  format v{snap['version']}, config hash "
          f"{snap['config_hash']:016x}, {len(sizes)} section(s) of "
          f"{', '.join(str(n) for n in sizes)} bytes, CRC OK\n")
    return manifest


def self_test():
    import io
    import tempfile

    def expect_exit(label, fn):
        try:
            fn()
        except BundleError as e:
            return str(e)
        raise AssertionError(f"{label}: expected a readable failure, got none")

    with tempfile.TemporaryDirectory() as tmp:
        bundle = os.path.join(tmp, "blackbox-3")
        os.mkdir(bundle)

        def put(name, text):
            with open(os.path.join(bundle, name), "w", encoding="utf-8") as f:
                f.write(text)

        put("MANIFEST.json", json.dumps({
            "format": 1, "day": 3, "reason": "watchdog: nan", "sim_time": 259200.0,
            "health_score": 1000.0, "incidents": 1}))
        put("health.txt", "health score 1000 from 1 incident(s)\n"
            "  [fatal] day 3 node 1 finite_state value=nan\n")
        put("metrics.json", json.dumps({
            "counters": {"health.fatal": 1, "sim.days_run": 3},
            "gauges": {"node.health{1}": 0.82}, "histograms": {}}))
        put("ledger.csv", "scope,node,fade_corrosion,fade_shedding,fade_sulphation,"
            "fade_stratification,fade_water_loss,fade_total,cycle_damage,efc,"
            "low_soc_dwell_s\ntotal,cluster,1e-05,0,0,0,0,1e-05,0.01,1.5,0\n")
        put("trace.jsonl", json.dumps({
            "ts": 259200.0, "kind": "health", "node": 1, "value": "nan",
            "detail": "fatal:finite_state"}) + "\n")
        # The simulator's shape: one section holding the cluster state.
        snap = encode_snap(0xDEADBEEF, [b"\x01\x02\x03\x04"])
        snap_path = os.path.join(bundle, "cluster.snap")

        def put_snap(raw):
            with open(snap_path, "wb") as f:
                f.write(raw)

        put_snap(snap)

        # Happy path: renders and reports the manifest back.
        out = io.StringIO()
        manifest = render(bundle, trace_tail=16, metrics_rows=16, out=out)
        assert manifest["day"] == 3, manifest
        text = out.getvalue()
        for needle in ("watchdog: nan", "health score 1000", "fade_corrosion",
                       "health.fatal", f"format v{SNAP_VERSION}",
                       "1 section(s) of 4 bytes",
                       "CRC OK"):
            assert needle in text, f"rendered output lacks {needle!r}:\n{text}"

        # Malformed snapshots → one-line refusals, not tracebacks.
        payload_at = SNAP_HEADER.size + SECTION_PREFIX.size
        for label, raw, needle in (
                ("corrupt payload",
                 snap[:payload_at] + b"\xFF" + snap[payload_at + 1:], "CRC"),
                ("truncated", snap[:-1], "truncated"),
                ("trailing bytes", snap + b"\x00", "trailing"),
                ("bad magic", b"XXXXXXXX" + snap[8:], "bad magic"),
                ("retired container", b"BAATSNAP" + snap[8:], "retired"),
                ("future version",
                 SNAP_HEADER.pack(SNAP_MAGIC, SNAP_VERSION + 1, 0, 1)
                 + snap[SNAP_HEADER.size:], "format version"),
                ("v1 file",
                 SNAP_HEADER.pack(SNAP_MAGIC, 1, 0, 1)
                 + snap[SNAP_HEADER.size:], "format version 1")):
            put_snap(raw)
            msg = expect_exit(label, lambda: snap_header(bundle))
            assert needle in msg, f"{label}: {msg}"
        put_snap(snap)

        # Malformed manifest → readable refusal.
        put("MANIFEST.json", "{not json")
        msg = expect_exit("bad manifest",
                          lambda: render(bundle, 16, 16, io.StringIO()))
        assert "JSON" in msg, msg

        # Missing bundle directory.
        msg = expect_exit("missing dir",
                          lambda: render(os.path.join(tmp, "nope"), 16, 16,
                                         io.StringIO()))
        assert "not a directory" in msg, msg

        # From the command line a malformed bundle is one stderr line and
        # exit status 2.
        import subprocess
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               os.path.join(tmp, "nope")],
                              capture_output=True, text=True, check=False)
        assert proc.returncode == 2, proc
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr, proc

    print("blackbox_dump: self-test OK")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("bundle", nargs="?", help="blackbox-<day>/ bundle directory")
    ap.add_argument("--trace-tail", type=int, default=20,
                    help="trace events to show from the end (default 20)")
    ap.add_argument("--metrics-rows", type=int, default=24,
                    help="metrics rows to show (default 24)")
    ap.add_argument("--self-test", action="store_true",
                    help="build a synthetic bundle, render it, check the guards")
    args = ap.parse_args()

    if args.self_test:
        self_test()
        return
    if not args.bundle:
        ap.error("a bundle directory is required unless --self-test")
    try:
        render(args.bundle, args.trace_tail, args.metrics_rows)
    except BundleError as e:
        print(f"blackbox_dump: {e}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
