"""The benchmark's workloads and the correctness gate for their outputs.

A workload is a list of CLI commands run, in order, in one fresh
interpreter.  Only `expand-lagrange` has a seeded input; the seed also
picks the rational points every oracle evaluates at.  `tiny` sizes serve
the smoke and fault-injection self-test.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracle

PINS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    kind: str  # verify | poly | expand | lagrange
    entries: int = 0  # verify: the number of checks it must report
    family_n: int = 0  # poly G n
    mode: str = ""  # lagrange mode
    terms: int = 0  # lagrange --terms
    # expand: the generator's terms (m, e, i, j, d) for m*q^e*a^i*b^j*x^d
    poly_terms: tuple = field(default=())

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def ops(self) -> int:
        """Operations the command stands for in fail_frac: checks, or 1."""
        return self.entries if self.kind == "verify" else 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: dict  # size -> callable(seed) -> list[Command]
    # Per-check latency is reported where checks run one at a time; under
    # --jobs 2 the threads interleave and a check's latency is mostly waiting.
    check_latency: bool = False

    def commands(self, seed: int, size: str = "full") -> list[Command]:
        return self.sizes[size](seed)


def _verify(entries: int, *extra: str) -> Command:
    return Command(("verify", "--json") + extra, "verify", entries=entries)


def _poly_g(n: int) -> Command:
    return Command(("poly", "G", str(n)), "poly", family_n=n)


def _lagrange(mode: str, terms: int) -> Command:
    return Command(("lagrange", "--f", "E_xz", "--terms", str(terms), "--mode", mode),
                   "lagrange", mode=mode, terms=terms)


def seeded_polynomial(seed: int, degree: int) -> tuple[str, tuple]:
    """x-degree `degree`, two terms per degree, each m*q^e*a^i*b^j with
    1 <= |m| <= 9, e <= 3 and i, j <= 2; the two monomials of a degree differ."""
    rng = random.Random(f"expand:{seed}")
    terms = []
    for d in range(degree + 1):
        for e, i, j in rng.sample([(e, i, j) for e in range(4) for i in range(3) for j in range(3)], 2):
            m = rng.choice([-1, 1]) * rng.randint(1, 9)
            terms.append((m, e, i, j, d))
    parts = []
    for m, e, i, j, d in terms:
        factors = [str(abs(m))] + [f"{s}^{k}" if k > 1 else s
                                   for s, k in (("q", e), ("a", i), ("b", j), ("x", d)) if k]
        body = "*".join(factors)
        if not parts:
            parts.append(("-" if m < 0 else "") + body)
        else:
            parts.append(("- " if m < 0 else "+ ") + body)
    return " ".join(parts), tuple(terms)


def _expand_lagrange(degree: int, terms: int):
    def build(seed: int) -> list[Command]:
        text, poly_terms = seeded_polynomial(seed, degree)
        cmds = [Command(("expand", text), "expand", poly_terms=poly_terms)]
        cmds += [_lagrange(mode, terms) for mode in ("plain", "general", "buermann")]
        return cmds

    return build


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "verify-default",
            "529 sub-millisecond checks at low q-degree: per-call overhead and the gcd fast paths show",
            {"full": lambda seed: [_verify(529)],
             "tiny": lambda seed: [_verify(143, "--max-n", "2", "--order", "3")]},
            check_latency=True,
        ),
        Workload(
            "verify-extended",
            "930 checks at max-n 9, order 11, jobs 2: series identities and the only parallel path",
            {"full": lambda seed: [_verify(930, "--max-n", "9", "--order", "11", "--jobs", "2")],
             "tiny": lambda seed: [_verify(219, "--max-n", "3", "--order", "4", "--jobs", "2")]},
        ),
        Workload(
            "poly-G",
            "one pure polynomial at q-degree in the hundreds: the _pmul kernel and rendering dominate",
            {"full": lambda seed: [_poly_g(24)], "tiny": lambda seed: [_poly_g(2)]},
        ),
        Workload(
            "expand-lagrange",
            "seeded expand plus three lagrange modes: true rational functions, so general gcd dominates",
            {"full": _expand_lagrange(14, 14), "tiny": _expand_lagrange(3, 3)},
        ),
    ]
}


# --------------------------------------------------------------------------
# Correctness gate.
# --------------------------------------------------------------------------

def oracle_points(seed: int, count: int = 3) -> list[dict[str, Fraction]]:
    """Seeded rational points; |q| >= 2 keeps every [k] and q^k nonzero."""
    rng = random.Random(f"points:{seed}")

    def rational():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))

    return [{"q": Fraction(rng.choice([-1, 1]) * rng.randint(2, 9)),
             "x": rational(), "a": rational(), "b": rational()} for _ in range(count)]


def load_pins() -> dict[str, str]:
    with open(PINS_FILE) as fh:
        return json.load(fh)


def stdout_digest(cmd: Command, stdout: str) -> str:
    """SHA-256 of the output; verify's timings are stripped first."""
    if cmd.kind == "verify":
        payload = json.loads(stdout)
        for entry in payload["entries"]:
            entry.pop("elapsed_ms", None)
        stdout = json.dumps(payload, indent=2) + "\n"
    return hashlib.sha256(stdout.encode()).hexdigest()


def check_command(cmd: Command, res: dict, points, pins: dict, deep: bool) -> tuple[int, list[str]]:
    """Failed operations of one command run, and why.

    `deep` adds the oracle evaluations; they are costly, and outputs of the
    other runs are tied to the checked one by their digest.
    """
    reasons = []
    if res["exception"]:
        reasons.append("exception: " + res["exception"].strip().splitlines()[-1])
        return cmd.ops, reasons
    out = res["stdout"]
    failed = 0
    if cmd.kind == "verify":
        try:
            payload = json.loads(out)
            entries = payload["entries"]
        except (ValueError, KeyError):
            return cmd.ops, ["verify output is not the JSON report"]
        failed = sum(1 for e in entries if e.get("status") != "pass")
        if failed:
            reasons.append(f"{failed} checks did not pass")
        if len(entries) != cmd.entries:
            reasons.append(f"{len(entries)} entries, expected {cmd.entries}")
            failed += abs(cmd.entries - len(entries))
    if res["code"] != 0:
        reasons.append(f"exit code {res['code']}")
    if cmd.kind != "expand" and res["code"] == 0:
        # expand's input is seeded, so its digest is compared across runs instead
        pinned = pins.get(cmd.key)
        if pinned is None:
            reasons.append("no pinned stdout digest for this command")
        elif stdout_digest(cmd, out) != pinned:
            reasons.append("stdout digest differs from the pinned one")
    if deep and res["code"] == 0 and cmd.kind != "verify":
        try:
            bad = _oracle(cmd, out, points)
        except (ValueError, KeyError, ZeroDivisionError, IndexError) as exc:
            bad = f"output unreadable: {exc}"
        if bad:
            reasons.append("oracle: " + bad)
    if reasons and not failed:
        failed = 1
    return min(failed, cmd.ops), reasons


def _oracle(cmd: Command, out: str, points) -> str | None:
    if cmd.kind == "poly":
        for p in points:
            if oracle.eval_text(out.strip(), p) != oracle.g_family(cmd.family_n, p):
                return f"G_{cmd.family_n} differs from the product formula at {_fmt(p)}"
        return None
    if cmd.kind == "expand":
        cs = oracle.parse_indexed_lines(out)
        degree = max(t[4] for t in cmd.poly_terms)
        if len(cs) != degree + 1:
            return f"{len(cs)} coefficients for x-degree {degree}"
        for p in points:
            lhs = sum((oracle.eval_text(c, p) * oracle.g_family(k, p) for k, c in enumerate(cs)), Fraction(0))
            rhs = sum((m * p["q"] ** e * p["a"] ** i * p["b"] ** j * p["x"] ** d
                       for m, e, i, j, d in cmd.poly_terms), Fraction(0))
            if lhs != rhs:
                return f"sum c_k G_k differs from the input at {_fmt(p)}"
        return None
    if cmd.kind == "lagrange" and cmd.mode in ("plain", "general"):
        cs = oracle.parse_indexed_lines(out)
        if len(cs) != cmd.terms + 1:
            return f"{len(cs)} coefficients for --terms {cmd.terms}"
        order = cmd.terms
        for p in points:
            q = p["q"]
            target = oracle.big_e_coeffs(p["x"], order, q)
            got = [Fraction(0)] * (order + 1)
            for n, c in enumerate(cs):
                w = oracle.eval_text(c, p) / oracle.qfac(n, q)
                for j, e in enumerate(oracle.big_e_coeffs(oracle.lagrange_shift(cmd.mode, n, p), order - n, q)):
                    got[n + j] += w * e
            if got != target:
                return f"sum c_n/[n]! z^n E(s_n z) differs from E(xz) at {_fmt(p)}"
        return None
    return None  # buermann: digest only


def _fmt(p: dict) -> str:
    return ", ".join(f"{k}={v}" for k, v in p.items())
