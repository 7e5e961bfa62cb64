"""Verdict oracle that does not reuse the engine's own closed forms.

The engine compares every density against expected values it writes
itself (``Analysis._fill_expected``).  This module recomputes the two
functionals the paper states, from the raw inputs and plain ``Fraction``
arithmetic:

    Einstein density  2^n (s g(u,v) / 12 - Ric(u,v) / 6) (a0 b0)^(2 - m)
    metric density   -2^n g(u,v) (a0 b0)^(1 - m)

and requires the ten cancelling parts to be exactly zero.  Densities
are read as plain data, {(deg_a0, deg_b0): (re, im)} times (a0 b0)^e,
and compared here; the engine's equality and normalisation are not
used.  Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import re
from fractions import Fraction

ZERO_PARTS = (
    "I-2",
    "I-3-B",
    "I-3-C",
    "I-3-D",
    "I-4-B",
    "I-4-C",
    "I-5",
    "II-2",
    "II-3",
    "II-4",
)


def riemann_entries(R) -> dict:
    """{(i, j, k, l): Fraction} with 1-based indices, zeros dropped."""
    return {k: Fraction(v) for k, v in R.entries.items() if v}


def curvature_terms(n: int, entries: dict, u, v) -> tuple:
    """(s * g(u, v), Ric(u, v), g(u, v)) with Ric_ab = sum_p R_apbp."""
    ric = [[Fraction(0)] * n for _ in range(n)]
    for (a, p, b, q), r in entries.items():
        if p == q:
            ric[a - 1][b - 1] += r
    s = sum(ric[a][a] for a in range(n))
    g = sum(Fraction(x) * Fraction(y) for x, y in zip(u, v))
    ric_uv = sum(
        Fraction(u[a]) * Fraction(v[b]) * ric[a][b] for a in range(n) for b in range(n)
    )
    return s * g, ric_uv, g


def expected_densities(n: int, entries: dict, u, v) -> dict:
    """{name: (value, ab_power)}: the density is value * (a0 b0)^ab_power."""
    m = n // 2
    sg, ric_uv, g = curvature_terms(n, entries, u, v)
    tr_id = Fraction(2**n)
    return {
        "einstein": (tr_id * (sg / 12 - ric_uv / 6), 2 - m),
        "metric": (-tr_id * g, 1 - m),
    }


def density_terms(poly_terms: dict, ab_exp: int) -> dict:
    """{(deg_a0, deg_b0): (re, im)} of poly * (a0 b0)^ab_exp, zeros dropped."""
    out = {}
    for (da, db), c in poly_terms.items():
        re_, im_ = Fraction(c.re), Fraction(c.im)
        if re_ or im_:
            out[(da + ab_exp, db + ab_exp)] = (re_, im_)
    return out


def compare_density(name: str, got: dict, value: Fraction, power: int) -> list:
    want = {(power, power): (value, Fraction(0))} if value else {}
    if got != want:
        return [f"{name}: got {_show(got)}, want {_show(want)}"]
    return []


def _show(terms: dict) -> str:
    if not terms:
        return "0"
    return " + ".join(
        f"a0^{da}*b0^{db}*({re_}{'+' + str(im_) + 'i' if im_ else ''})"
        for (da, db), (re_, im_) in sorted(terms.items(), reverse=True)
    )


def check_analysis(analysis, n: int, entries: dict, u, v) -> list:
    """Problems with one library ``Analysis``; its R, u, v are the inputs."""
    problems = []
    computed = analysis.computed
    for pid in ZERO_PARTS:
        if density_terms(computed[pid].poly.terms, 0):
            problems.append(f"{pid}: not exactly zero")
    for name, (value, power) in expected_densities(n, entries, u, v).items():
        d = computed[name]
        got = density_terms(d.poly.terms, d.prefactor_exp)
        problems += compare_density(name, got, value, power)
    return problems


# ---------------------------------------------------------------------------
# the CLI's JSON report
# ---------------------------------------------------------------------------

_FACTOR = re.compile(r"^(a0|b0)(?:\^(\d+))?$")


def parse_poly_text(text: str) -> dict:
    """Read ScalarPoly.text() output, 'a0^2*b0*(c) + ...', into density terms.

    Coefficients are rationals, or 're+imi' / 'imi' Gaussian rationals.
    Raises ValueError on anything else.
    """
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for term in text.split(" + "):
        head, sep, coeff = term.partition("(")
        if not sep or not coeff.endswith(")"):
            raise ValueError(f"unreadable term {term!r}")
        da = db = 0
        for factor in filter(None, head.rstrip("*").split("*")):
            hit = _FACTOR.match(factor)
            if not hit:
                raise ValueError(f"unreadable factor {factor!r}")
            power = int(hit.group(2) or 1)
            if hit.group(1) == "a0":
                da += power
            else:
                db += power
        key = (da, db)
        if key in out:
            raise ValueError(f"repeated monomial in {text!r}")
        out[key] = _parse_coeff(coeff[:-1])
    return {k: c for k, c in out.items() if c[0] or c[1]}


def _parse_coeff(raw: str) -> tuple:
    if not raw.endswith("i"):
        return Fraction(raw), Fraction(0)
    body = raw[:-1]
    cut = max(body.rfind("+"), body.rfind("-"))
    if cut <= 0:
        return Fraction(0), Fraction(body)
    return Fraction(body[:cut]), Fraction(body[cut:])


def _add(acc: dict, terms: dict, sign: int, shift: int) -> None:
    for (da, db), (re_, im_) in terms.items():
        key = (da + shift, db + shift)
        ore, oim = acc.get(key, (Fraction(0), Fraction(0)))
        acc[key] = (ore + sign * re_, oim + sign * im_)
    for key in [k for k, (r, i) in acc.items() if not r and not i]:
        del acc[key]


def check_verify_report(report: dict, n: int, entries: dict, u, v) -> list:
    """Problems with one seed's ``wres verify --json`` report.

    Requires every match flag true and the ten cancelling parts to read
    "0".  Then rebuilds the Einstein density from the reported sub-parts,
    (I-1-A - I-1-B + I-2 + ... + I-6) (a0 b0)^-m + (II-1 + ... + II-5)
    (a0 b0)^(1-m), and compares it with the oracle's closed form.
    """
    m = n // 2
    problems = []
    for key in ("zabdt_match", "zpdt_match", "metric_match", "einstein_match"):
        if report.get(key) is not True:
            problems.append(f"{key} is not true")
    parts = {}
    for p in report["parts"]:
        if p.get("match") is not True:
            problems.append(f"{p['id']}: match is not true")
        parts[p["id"]] = parse_poly_text(p["computed"])
    for pid in ZERO_PARTS:
        if parts.get(pid) != {}:
            problems.append(f"{pid}: not exactly zero")
    einstein: dict = {}
    for pid, terms in parts.items():
        if pid.startswith("II-"):
            _add(einstein, terms, 1, 1 - m)
        else:
            _add(einstein, terms, -1 if pid == "I-1-B" else 1, -m)
    value, power = expected_densities(n, entries, u, v)["einstein"]
    problems += compare_density("einstein (from parts)", einstein, value, power)
    return problems


# ---------------------------------------------------------------------------
# criterion 4's symbol families
# ---------------------------------------------------------------------------


def merged_plain(merged: dict) -> dict:
    """{key: {(row, col): {(da, db): (re, im)}}} of a merged symbol map."""
    out = {}
    for key, op in merged.items():
        entries = {}
        for i, row in enumerate(op.rows):
            for j, poly in row.items():
                terms = density_terms(poly.terms, 0)
                if terms:
                    entries[(i, j)] = terms
        if entries:
            out[key] = entries
    return out


def check_families(direct: dict, generic: dict) -> list:
    """Problems with two merged maps that must be the same symbol."""
    if not direct:
        return ["merged symbol map is empty"]
    a, b = merged_plain(direct), merged_plain(generic)
    if a == b:
        return []
    keys = sorted(set(a) ^ set(b)) or sorted(k for k in a if a[k] != b[k])
    return [f"merged symbols differ at {len(keys)} keys, first {keys[0]}"]
