"""Per-layer metrics for ``run.py --trace 1``.

The traced run times calls into each module's public functions from here,
the benchmark's side of each layer boundary; nothing inside the package is
instrumented.  Every call is a span (name, start, end, parent, and the
workload operation it serves), kept in memory and written out as JSON Lines
when the run ends.  A layer's time is the self time of its spans: duration
minus what child spans cover.

One iteration is: the cheap layers over all 224 rows with spans and without
them (their difference is the tracing overhead), the probe layers over all
rows with spans, and one round of the workload's own operations replayed
in-process through ``cli.main``, their outputs checked as in the timed run.
Iterations repeat until ``--seconds`` have passed; each metric is the median
over iterations.  Import times come from ``python -X importtime`` children.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import checks
import workloads

sys.path.insert(0, str(workloads.ROOT / "src"))

from superelliptic import cli  # noqa: E402
from superelliptic.arith import is_separable  # noqa: E402
from superelliptic.classify import classify  # noqa: E402
from superelliptic.dataset import (export_csv, from_json, load_embedded,  # noqa: E402
                                   repair_signature, to_json)
from superelliptic.family import genus_of_family, separability_probe  # noqa: E402
from superelliptic.groups import parse_group_label  # noqa: E402
from superelliptic.signature import complete_signature, quotient_genus  # noqa: E402
from superelliptic.verify import verify_row  # noqa: E402

IMPORT_REPEATS = 7
IMPORT_SELF = ("tables", "dataset", "arith", "family", "cli")

# Subcommands a workload does not issue are timed on these calls.
DEFAULT_CALLS = {
    "list": ["list"],
    "row": ["row", "--genus", "9", "--nr", "9"],
    "classify": ["classify", "--genus", "6", "--nr", "11"],
    "levels": ["levels", "--genus", "10"],
    "export": ["export", "--what", "dataset"],
    "verify": ["verify"],
}

# Per-row layer spans whose self time is summed over the 224 rows.
ROW_LAYERS = ("groups.parse_group_label", "signature.complete_signature",
              "dataset.repair_signature", "signature.quotient_genus",
              "classify.classify", "family.genus_of_family", "family.instantiate",
              "arith.is_separable", "family.separability_probe", "verify.verify_row")


class Tracer:
    """Spans in memory; ``enabled=False`` keeps the calls and drops the spans."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op: str):
        if not self.enabled:
            yield
            return
        record = {"id": len(self.spans), "name": name, "op": op,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover (seconds)."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own


def layer_pass(tracer: Tracer, op: str, counts: dict, probe: bool) -> None:
    """Every layer over every row of the embedded table.

    ``probe=False`` runs the cheap layers (load, label, signature, classify,
    genus, JSON and CSV); ``probe=True`` runs the separability probe and
    ``verify_row``, which cost about a hundred times more.
    """
    span = tracer.span
    if not probe:
        with span("dataset.load_embedded", op):
            load_embedded.cache_clear()
            ds = load_embedded()
    ds = load_embedded()
    degrees = 0
    for record in ds:
        with span("row", op):
            if probe:
                with span("family.instantiate", op):
                    poly = record.equation.instantiate()
                with span("arith.is_separable", op):
                    is_separable(poly)
                with span("family.separability_probe", op):
                    separability_probe(record.level, record.equation)
                with span("verify.verify_row", op):
                    verify_row(record)
                degrees += poly.degree
                continue
            order = record.group_order()
            with span("groups.parse_group_label", op):
                parse_group_label(record.label_text, context_order=order)
            with span("signature.complete_signature", op):
                complete_signature(record.genus, order, record.signature)
            with span("dataset.repair_signature", op):
                effective = repair_signature(record).effective
            with span("signature.quotient_genus", op):
                quotient_genus(record.genus, order, effective)
            with span("classify.classify", op):
                classify(record.reduced_group(), effective, record.delta)
            with span("family.genus_of_family", op):
                genus_of_family(record.level, record.equation)
    if probe:
        counts["family.instantiated_degree_sum"] = degrees
        counts["verify.rows"] = len(ds)
        return
    with span("dataset.to_json", op):
        text = to_json(ds)
    with span("dataset.from_json", op):
        from_json(text)
    with span("dataset.export_csv", op):
        for genus in ds.genera:
            export_csv(ds, genus)
    counts["dataset.json_bytes"] = len(text.encode("utf-8"))


def cli_main(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main`` in-process; an escaping exception is exit 1 with its traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def import_times() -> dict[str, float]:
    """Median over children of ``-X importtime`` for the CLI's imports (ms)."""
    samples = defaultdict(list)
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import superelliptic.cli"], capture_output=True, text=True,
                              env=workloads.child_env(), cwd=workloads.ROOT, check=True)
        for line in proc.stderr.splitlines():
            fields = [f.strip() for f in line.removeprefix("import time:").split("|")]
            if len(fields) != 3 or not fields[0].isdigit():
                continue
            self_us, cumulative_us, name = int(fields[0]), int(fields[1]), fields[2]
            if name == "superelliptic.cli":
                samples["superelliptic.import_ms"].append(cumulative_us / 1000)
            short = name.removeprefix("superelliptic.")
            if short in IMPORT_SELF and name != short:
                samples[f"{short}.import_self_ms"].append(self_us / 1000)
    return {k: statistics.median(v) for k, v in samples.items()}


def _units(name: str) -> str:
    return name.rpartition("_")[2] if name.endswith(("_ms", "_pct")) else "count"


def run_traced(workload, seconds: float, trace_path: Path) -> dict:
    for argv in workload.setup_calls():
        _, code, _, err = workloads.call(argv)
        if code != checks.EXIT_OK:
            raise RuntimeError(f"set-up call {argv} failed: {err.strip()}")
    ref = workload.prepare()
    load_embedded()

    tracer = Tracer()
    per_iter = defaultdict(list)
    counts: dict = {}
    attempted = failed = unexpected = 0
    begin = time.perf_counter()
    iteration = 0
    layer_pass(Tracer(enabled=False), "", counts, probe=False)
    while iteration == 0 or time.perf_counter() - begin < seconds:
        first = len(tracer.spans)
        op = f"layers-{iteration}"
        cheap = {}
        for traced in (iteration % 2 == 0, iteration % 2 == 1):
            start = time.perf_counter()
            layer_pass(tracer if traced else Tracer(enabled=False), op, counts, probe=False)
            cheap[traced] = time.perf_counter() - start
        per_iter["trace.overhead_ms"].append((cheap[True] - cheap[False]) * 1000)
        per_iter["trace.overhead_pct"].append((cheap[True] / cheap[False] - 1) * 100)
        layer_pass(tracer, op, counts, probe=True)

        issued = set()
        for k, op in enumerate(workload.round(ref)):
            sub, name = op["argv"][0], f"op-{iteration}-{k}"
            issued.add(sub)
            with tracer.span(f"cli.main_{sub}", name):
                code, out, err = cli_main(op["argv"])
            problems = checks.check(op, code, out, err, ref)
            attempted += 1
            failed += bool(problems)
            unexpected += bool(problems) and not op.get("known_fault")
        for sub in sorted(set(DEFAULT_CALLS) - issued):
            with tracer.span(f"cli.main_{sub}", f"default-{iteration}-{sub}"):
                cli_main(DEFAULT_CALLS[sub])

        own = tracer.self_times()
        spans = tracer.spans[first:]
        by_name = defaultdict(list)
        for s in spans:
            by_name[s["name"]].append(own[s["id"]] * 1000)
        for name in ROW_LAYERS + ("dataset.load_embedded", "dataset.to_json",
                                  "dataset.from_json", "dataset.export_csv"):
            per_iter[f"{name}_ms"].append(sum(by_name[name]))
        per_iter["family.probe_row_max_ms"].append(max(by_name["family.separability_probe"]))
        per_iter["verify.row_p50_ms"].append(statistics.median(by_name["verify.verify_row"]))
        per_iter["verify.row_max_ms"].append(max(by_name["verify.verify_row"]))
        for sub in DEFAULT_CALLS:
            per_iter[f"cli.main_{sub}_ms"].append(statistics.median(by_name[f"cli.main_{sub}"]))
        per_iter["trace.spans"].append(len(spans))
        iteration += 1

    own = tracer.self_times()
    with open(trace_path, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(dict(s, self=own[s["id"]])) + "\n")

    metrics = {k: statistics.median(v) for k, v in per_iter.items()}
    metrics.update(counts)
    metrics.update(import_times())
    return {"correct": unexpected == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": _units(k)} for k, v in sorted(metrics.items())}}
