"""The benchmark's workloads and the one way it calls the CLI.

A workload is a named mix of CLI operations.  Each round is the same mix of
operation kinds; the rows, genera, formats, malformed inputs and call order
inside a round come from the workload's seeded random generator.  An
operation is a dict: ``kind`` selects the check in :mod:`checks`, ``argv``
is the command line after ``python -m superelliptic.cli``, and the other keys
say what the check should expect.
"""

from __future__ import annotations

import copy
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import checks
from checks import EXIT_IO, EXIT_OK, EXIT_VERIFY_FAILED

ROOT = Path.cwd()
CLI = [sys.executable, "-m", "superelliptic.cli"]
# The unit of the latency metrics: a fresh interpreter summing Fraction(1, i)
# for i below a fixed bound, run just before each timed call.  Dividing by it
# takes out most of the drift of a shared machine, which slows both alike.
REFERENCE = "from fractions import Fraction; s = sum(Fraction(1, i) for i in range(1, {}))"
REFERENCE_TERMS = 6000
# What a REFERENCE_TERMS call takes on a quiet machine (Xeon at 2.0 GHz,
# CPython 3.11.7).  setup_s is set-up time in reference calls times this, so
# that it reads in seconds and still does not drift with the machine.
REFERENCE_SECONDS = 0.1
# The tail is the highest percentile with at least ten samples beyond it, the
# TAIL_RANK-th largest sample.  Below TAIL_MIN_SAMPLES samples that is no tail,
# and the median stands in for it.
TAIL_RANK = 11
TAIL_MIN_SAMPLES = 40
CALL_TIMEOUT_S = 120


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def reference_call(terms: int) -> float:
    """Wall seconds of the reference call, the unit of the latency metrics."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE.format(terms)], capture_output=True,
                   env=child_env(), cwd=ROOT, timeout=CALL_TIMEOUT_S, check=True)
    return time.perf_counter() - start


def call(argv: list[str]) -> tuple[float, int, str, str]:
    """Run one CLI call; wall seconds, exit code, stdout, stderr."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(CLI + argv, capture_output=True, env=child_env(),
                              cwd=ROOT, timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, -1, "", "timed out"
    elapsed = time.perf_counter() - start
    return (elapsed, proc.returncode, proc.stdout.decode("utf-8"),
            proc.stderr.decode("utf-8"))


def _fmt(rng: random.Random) -> list[str]:
    return ["--format", "json"] if rng.random() < 0.5 else []


# -- workloads ---------------------------------------------------------------------

class Workload:
    """A named mix of CLI operations, made whole round by whole round."""

    name = ""
    min_samples = TAIL_MIN_SAMPLES
    # Start-up dominates a short call; the reference is about half start-up.
    reference_terms = REFERENCE_TERMS

    def __init__(self, rng: random.Random, work: Path):
        self.rng = rng
        self.work = work

    def setup_calls(self) -> list[list[str]]:
        """The calls of one set-up: the warm-up, then any input files."""
        return [["list", "--genus", "3"]]

    def prepare(self) -> checks.Reference:
        """Untimed oracle preparation: the table as data."""
        _, code, out, err = call(["export", "--what", "dataset"])
        if code != EXIT_OK:
            raise RuntimeError(f"export --what dataset failed: {err.strip()}")
        return checks.Reference(out)

    def round(self, ref: checks.Reference) -> list[dict]:
        raise NotImplementedError

    def samples(self, by_kind: dict[str, list[float]]) -> list[float]:
        """The per-call figures, by operation kind, that the latency metrics cover."""
        return [s for kind in by_kind for s in by_kind[kind]]


def _op(kind: str, argv: list[str], **extra) -> dict:
    op = {"kind": kind, "argv": argv, **extra}
    if kind in ("list", "row", "classify", "levels", "verify") and "json" in argv:
        op["format"] = "json"
    return op


def _lookup_ops(rng, ref, data: list[str]) -> list[dict]:
    """Short read-only calls; ``data`` is ``[]`` or ``["--data", F]``."""
    g = rng.choice(ref.genera)
    ops = [
        _op("list", ["list", *data]),
        _op("list", ["list", *data, "--genus", str(g)], genus=g),
        _op("list", ["list", *data, "--blue-only"], blue_only=True),
        _op("list", ["list", *data, "--format", "json"]),
    ]
    for kind in ("row", "row", "classify", "classify"):
        g, n = rng.choice(ref.keys())
        ops.append(_op(kind, [kind, *data, "--genus", str(g), "--nr", str(n), *_fmt(rng)],
                       genus=g, nr=n))
    g = rng.choice(ref.genera)
    ops.append(_op("csv", ["export", *data, "--what", "csv", "--genus", str(g)], genus=g))
    ops.append(_op("blue", ["export", *data, "--what", "blue"]))
    ops.append(_op("errata", ["export", *data, "--what", "errata"]))
    return ops


class VerifyFull(Workload):
    name = "verify-full"
    min_samples = 1
    # A verify call is almost all exact arithmetic, and under contention it
    # slows more than start-up does; a longer sum tracks it more closely.
    reference_terms = 2 * REFERENCE_TERMS

    def round(self, ref):
        return [_op("verify", ["verify"]), _op("verify", ["verify", "--format", "json"])]


class LookupMix(Workload):
    name = "lookup-mix"

    def round(self, ref):
        rng = self.rng
        ops = _lookup_ops(rng, ref, [])
        for _ in range(2):
            g = rng.randint(2, 12)
            ops.append(_op("levels", ["levels", "--genus", str(g), *_fmt(rng)], genus=g))
        for _ in range(3):
            g, n = rng.choice(ref.keys())
            kind = rng.choice(("row", "classify"))
            ops.append(_op(kind, [kind, "--genus", str(g), "--nr", str(n), *_fmt(rng)],
                           genus=g, nr=n))
        rng.shuffle(ops)
        return ops


# Malformed inputs the program must reject with exit 3 and an error message.
def _truncate(payload, text, rng):
    return text[:rng.randrange(1, len(text) - 1)]


def _bad_version(payload, text, rng):
    payload["version"] = "v2"


def _bad_block(payload, text, rng):
    rng.choice(payload["families"])["block"] = "hexagonal"


def _bad_signature(payload, text, rng):
    rng.choice(payload["families"])["signature"] = rng.choice(("1,2", "2^", "2;3"))


def _term(payload, rng, kind=None):
    rows = [r for r in payload["families"]
            if kind is None or any(t["c"]["kind"] == kind
                                   for f in r["equation"]["factors"] for t in f)]
    terms = [t for f in rng.choice(rows)["equation"]["factors"] for t in f
             if kind is None or t["c"]["kind"] == kind]
    return rng.choice(terms)


def _bad_kind(payload, text, rng):
    _term(payload, rng)["c"]["kind"] = "bogus"


def _bad_exponent(payload, text, rng):
    _term(payload, rng)["e"] = -1


def _bad_index(payload, text, rng):
    _term(payload, rng, "param")["c"]["i"] = 0


def _bad_number(payload, text, rng):
    _term(payload, rng, "fixed")["c"]["a"] = "one"


def _duplicate_row(payload, text, rng):
    payload["families"].append(copy.deepcopy(rng.choice(payload["families"])))


MALFORMED = (_truncate, _bad_version, _bad_block, _bad_signature, _bad_kind,
             _bad_exponent, _bad_index, _bad_number, _duplicate_row)


# Malformed inputs the program does not yet reject cleanly.  They do not
# depend on the seed, so every round fails on exactly these three calls.
def _top_level_list(payload, text, rng):
    return json.dumps([payload])


def _string_genus(payload, text, rng):
    payload["families"][0]["genus"] = str(payload["families"][0]["genus"])


def _no_families(payload, text, rng):
    del payload["families"]


KNOWN_FAULTS = (_top_level_list, _string_genus, _no_families)


def inseparable_rows(payload) -> list[int]:
    """Rows shaped x*(...+c) with a fixed constant c: dropping c leaves x^2 | f."""
    x = [{"c": {"a": "1", "b": "0", "kind": "fixed"}, "e": 1}]
    out = []
    for i, row in enumerate(payload["families"]):
        factors = row["equation"]["factors"]
        if (len(factors) >= 2 and factors[0] == x and len(factors[1]) > 1
                and any(t["e"] == 0 and t["c"]["kind"] == "fixed" for t in factors[1])):
            out.append(i)
    return out


class DataRoundtrip(Workload):
    name = "data-roundtrip"

    def __init__(self, rng, work):
        super().__init__(rng, work)
        self.data = work / "families.json"
        self.count = 0

    def setup_calls(self):
        return super().setup_calls() + [
            ["export", "--what", "dataset", "--out", str(self.data)]]

    def prepare(self):
        ref = checks.Reference(self.data.read_text(encoding="utf-8"))
        _, code, out, _ = call(["list", "--format", "json"])
        self.embedded_list = out if code == EXIT_OK else None
        self.payload = json.loads(ref.dataset_text)
        self.shaped = inseparable_rows(self.payload)
        return ref

    def _write(self, text: str) -> str:
        self.count += 1
        path = self.work / f"input-{self.count % 64}.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def _variant(self, make, ref) -> str:
        payload = copy.deepcopy(self.payload)
        text = make(payload, ref.dataset_text, self.rng)
        return self._write(text if text is not None else json.dumps(payload, indent=2))

    def _reader(self, path: str, ref) -> list[str]:
        """A seeded read-only call on ``path``."""
        g, n = self.rng.choice(ref.keys())
        return self.rng.choice((
            ["list", "--data", path],
            ["row", "--data", path, "--genus", str(g), "--nr", str(n)],
            ["classify", "--data", path, "--genus", str(g), "--nr", str(n)],
            ["export", "--data", path, "--what", "blue"],
        ))

    def round(self, ref):
        rng, data = self.rng, str(self.data)
        fresh, again = str(self.work / "fresh.json"), str(self.work / "again.json")
        ops = [
            _op("dataset", ["export", "--what", "dataset", "--out", fresh], out=fresh),
            _op("dataset", ["export", "--data", data, "--what", "dataset", "--out", again],
                out=again),
            _op("list", ["list", "--data", data, "--format", "json"],
                same_as=self.embedded_list),
        ]
        ops += _lookup_ops(rng, ref, ["--data", data])
        for make in rng.sample(MALFORMED, 3):
            ops.append(_op("malformed", self._reader(self._variant(make, ref), ref),
                           exit=EXIT_IO, input=make.__name__.lstrip("_")))
        for make in KNOWN_FAULTS:
            ops.append(_op("malformed", ["list", "--data", self._variant(make, ref)],
                           exit=EXIT_IO, input=make.__name__.lstrip("_"), known_fault=True))
        ops.append(self._inseparable(ref))
        rng.shuffle(ops)
        return ops

    def _inseparable(self, ref) -> dict:
        payload = copy.deepcopy(self.payload)
        row = payload["families"][self.rng.choice(self.shaped)]
        factor = row["equation"]["factors"][1]
        factor[:] = [t for t in factor if t["e"] != 0]
        path = self._write(json.dumps(payload, indent=2))
        g = row["genus"]
        return _op("verify", ["verify", "--data", path, "--genus", str(g),
                              *_fmt(self.rng)],
                   genus=g, exit=EXIT_VERIFY_FAILED,
                   inseparable={"key": [g, row["nr"]], "equation": row["equation"]})

    def samples(self, by_kind):
        # The one verify per round guards the probe's correctness; its time
        # depends on the seeded genus and would decide the tail.
        return [s for kind in by_kind if kind != "verify" for s in by_kind[kind]]


WORKLOADS = {w.name: w for w in (VerifyFull, LookupMix, DataRoundtrip)}
