"""``dataset._read_json`` against ``json.loads``, with the standard library alone.

For each input both must give the same value, or raise an exception of the
same type with the same message.  Each read by ``_read_json`` runs with every
``json`` module taken out of ``sys.modules``, as in a CLI process that has
imported none, so that up to CPython 3.11 a malformed document takes the
scanner's ``SystemError`` path.  ``tests/test_read_json.py`` runs the same
comparison under pytest with Hypothesis values; this script draws its values
with ``random`` and needs no test dependency::

    PYTHONPATH=src python tests/read_json_check.py [--seed N] [--count N]

It prints one line per group of inputs and exits 1 on the first mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import sys

from superelliptic.dataset import _read_json, from_json, load_embedded, to_json

DEEP = 100_000


@contextlib.contextmanager
def json_unloaded():
    """No ``json`` module in ``sys.modules`` inside; the ones there before are put back."""
    def names():
        return [name for name in sys.modules if name == "json" or name.startswith("json.")]

    saved = {name: sys.modules.pop(name) for name in names()}
    try:
        yield
    finally:
        for name in names():
            del sys.modules[name]
        sys.modules.update(saved)


def outcome(read, text) -> tuple:
    """``("value", v)`` or ``("error", exception type, message)``."""
    try:
        return "value", read(text)
    except Exception as exc:
        return "error", f"{type(exc).__module__}.{type(exc).__qualname__}", str(exc)


def same(a, b) -> bool:
    """Equal values of identical types all the way down; floats by ``repr``, so NaN is NaN."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return repr(a) == repr(b)
    if type(a) in (list, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    if type(a) is dict:
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    return a == b


def outcomes(text) -> tuple[tuple, tuple]:
    """The outcomes of the new read and of ``json.loads`` on ``text``."""
    with json_unloaded():
        new = outcome(_read_json, text)
    return new, outcome(json.loads, text)


def edge_cases(export: str) -> list[str]:
    """A BOM, whitespace, trailing data, the constants, huge numbers and deep nesting."""
    return [
        "", " ", "\ufeff", "\ufeff{}", "\ufeff" + export, " \t\n\r" + export + " \t\n\r",
        "\x0c{}", " {}", "{}\x0c", export + "x", export + "{}", "[1] 2", "{}{}",
        "NaN", "Infinity", "-Infinity", "[NaN, Infinity, -Infinity]", "nan", "-NaN",
        "Infinityx", "1e400", "-1e400", "5e-324", "-0", "-0.0", "1.", ".5", "01",
        "5" * 5000, "-" + "9" * 5000, "0." + "1" * 5000, '{"a": ' + "7" * 5000 + "}",
        '"\\ud800"', '"\ud800"', '"a\tb"', '"\\x"', '"\\u12"', '{"a" 1}', '{"a": 1,}',
        "[1,]", "tru", "nul", "[" * DEEP + "]" * DEEP, '{"a": ' * DEEP, "[" * DEEP,
    ]


def random_text(rng: random.Random) -> str:
    """A random string: printable ASCII, or any code point, lone surrogates included."""
    return "".join(chr(rng.randrange(32, 127) if rng.random() < 0.7 else rng.randrange(0x110000))
                   for _ in range(rng.randrange(6)))


def random_value(rng: random.Random, depth: int = 0):
    kind = rng.randrange(7 if depth < 4 else 5)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.randint(-10 ** rng.randrange(1, 40), 10 ** rng.randrange(1, 40))
    if kind == 3:
        return rng.choice([rng.uniform(-1e6, 1e6), float("nan"), float("inf"), -float("inf"),
                           -0.0, 1e308, 5e-324])
    if kind == 4:
        return random_text(rng)
    if kind == 5:
        return [random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {random_text(rng): random_value(rng, depth + 1) for _ in range(rng.randrange(4))}


def groups(rng: random.Random, count: int) -> dict[str, list[str]]:
    export = to_json(load_embedded())
    values = []
    for _ in range(count):
        text = json.dumps(random_value(rng), ensure_ascii=rng.random() < 0.5,
                          indent=rng.choice([None, 2]))
        values.append(text)
        cut = rng.randrange(len(text))
        values.append(text[:cut] + text[cut + 1:])
    cuts = [rng.randrange(len(export) + 1) for _ in range(count)]
    return {
        "edge cases": edge_cases(export),
        "random values and one-character deletions": values,
        "truncations of the export": [export[:k] for k in cuts],
        "one-character deletions of the export": [export[:k] + export[k + 1:] for k in cuts],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=200)
    args = parser.parse_args(argv)
    print(f"Python {sys.version.split()[0]}, seed {args.seed}")
    for name, texts in groups(random.Random(args.seed), args.count).items():
        errors = 0
        for text in texts:
            new, old = outcomes(text)
            if not same(new, old):
                print(f"MISMATCH on {text[:80]!r}...: {new!r:.300} != {old!r:.300}")
                return 1
            errors += old[0] == "error"
        print(f"{name}: {len(texts)} inputs agree ({errors} errors)")
    deep = "read"
    with json_unloaded():
        try:
            from_json("[" * DEEP + "]" * DEEP)
        except ValueError as exc:
            deep = str(exc)
    print(f"from_json on {DEEP:,}-deep nesting: {deep}")
    return 0 if deep == "JSON nested too deeply to read" else 1


if __name__ == "__main__":
    sys.exit(main())
