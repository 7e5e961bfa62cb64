"""Command line interface for the residue verification engine.

Commands: verify (seeded sweep of every identity), parts (one
configuration, one table row per part and assembled density), einstein
(the assembled Einstein-functional density for explicit inputs).
Invoked bare, the tool runs verify with dim 4 and ten seeds.  Every
exit code reads the one check table, Analysis.match: verify and parts
exit 0 when Analysis.mismatches() is empty on every input, 1 when it
names a failing check, and einstein exits 1 when match["einstein"] is
false; 2 is a usage error.
"""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import click

from .clifford import Dimension, FrameVector
from .curvature import RiemannTensor, constant_curvature, flat
from .residue import ASSEMBLED_IDS, PART_IDS, Analysis, derive_inputs, verify_all
from .sphere import sphere_volume

_SUPPORTED_DIMS = (2, 4, 6, 8, 10, 12)


def _check_dim(ctx, param, value: int) -> int:
    if value not in _SUPPORTED_DIMS:
        raise click.UsageError(f"--dim must be one of {_SUPPORTED_DIMS}, got {value}")
    return value


def _seed_base() -> int:
    raw = os.environ.get("WRES_SEED_BASE", "0")
    try:
        return int(raw)
    except ValueError:
        raise click.UsageError(f"WRES_SEED_BASE must be an integer, got {raw!r}")


def _parse_vector(raw: str | None, n: int, name: str) -> FrameVector | None:
    if raw is None:
        return None
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != n:
        raise click.UsageError(
            f"--{name} needs {n} comma-separated rationals, got {len(parts)}"
        )
    try:
        comps = tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"--{name}: {exc}")
    return FrameVector(n, comps)


def _resolve_curvature(spec: str, n: int):
    """Returns (tensor, label); None for "random", drawn per seed."""
    if spec == "random":
        return None, "random"
    if spec == "constant":
        return constant_curvature(n), "constant"
    if spec == "flat":
        return flat(n), "flat"
    path = Path(spec)
    if not path.is_file():
        raise click.UsageError(
            f"--curvature must be 'random', 'constant', 'flat', or a JSON file; {spec!r} not found"
        )
    try:
        data = json.loads(path.read_text())
        tensor = RiemannTensor.from_json(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise click.UsageError(f"invalid curvature file {spec!r}: {exc}")
    if tensor.n != n:
        raise click.UsageError(
            f"curvature file has n={tensor.n} but --dim is {n}"
        )
    return tensor, str(path)


def _render_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(body: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(body)
        except OSError as exc:
            raise click.UsageError(f"--out {out!r} cannot be written: {exc.strerror}")
    else:
        click.echo(body, nl=False)


@click.group(invoke_without_command=True)
@click.pass_context
def main(ctx):
    """Exact verification of spectral metric and Einstein functional identities."""
    # an exact coefficient may have more digits than Python's default
    # int-to-str limit (4300); early 3.10 releases have no limit
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    if ctx.invoked_subcommand is None:
        ctx.invoke(verify)


@main.command()
@click.option("--dim", type=int, default=4, callback=_check_dim, help="Even dimension (2, 4, 6, 8, 10 or 12).")
@click.option("--seeds", "seed_count", type=int, default=10, help="Number of consecutive seeds.")
@click.option("--curvature", default="random", help="random, constant, flat, or a JSON file path.")
@click.option("--u", "u_raw", default=None, help="Comma-separated rational components, e.g. 1/2,0,3,0.")
@click.option("--v", "v_raw", default=None, help="Comma-separated rational components.")
@click.option("--json", "as_json", is_flag=True, help="Emit the JSON report.")
@click.option("--out", default=None, help="Write the report to a file instead of stdout.")
def verify(dim, seed_count, curvature, u_raw, v_raw, as_json, out):
    """Check every identity over a seed sweep; nonzero exit on mismatch."""
    if seed_count < 1:
        raise click.UsageError("--seeds must be positive")
    d = Dimension(dim)
    base = _seed_base()
    seeds = list(range(base, base + seed_count))
    R, label = _resolve_curvature(curvature, dim)
    u = _parse_vector(u_raw, dim, "u")
    v = _parse_vector(v_raw, dim, "v")
    results = verify_all(d, seeds, R, u, v)
    misses = {seed: analysis.mismatches() for seed, analysis in results}
    ok = not any(misses.values())
    if as_json:
        _emit(_render_json([analysis.report_dict(seed) for seed, analysis in results]), out)
    else:
        lines = [f"verify dim={dim} curvature={label} seeds={seeds[0]}..{seeds[-1]}"]
        for seed, analysis in results:
            if misses[seed]:
                lines.append(f"seed={seed}: MISMATCH in {', '.join(misses[seed])}")
                # a real:<id> miss also fails <id>, which is shown
                for cid in misses[seed]:
                    if cid in analysis.computed:
                        lines.append(
                            f"  {cid}: computed {analysis.computed[cid].text()}"
                            f" expected {analysis.expected[cid].text()}"
                        )
            else:
                ids_ok = ", ".join(f"{key} ok" for key in ASSEMBLED_IDS)
                lines.append(f"seed={seed}: {len(PART_IDS)} parts ok, {ids_ok}")
        lines.append("all identities hold" if ok else "MISMATCHES FOUND")
        _emit("\n".join(lines) + "\n", out)
    raise SystemExit(0 if ok else 1)


@main.command()
@click.option("--dim", type=int, default=4, callback=_check_dim)
@click.option("--seed", type=int, default=None, help="Seed for the derived inputs (default: WRES_SEED_BASE).")
@click.option("--curvature", default="random")
@click.option("--u", "u_raw", default=None)
@click.option("--v", "v_raw", default=None)
@click.option("--json", "as_json", is_flag=True)
@click.option("--out", default=None)
def parts(dim, seed, curvature, u_raw, v_raw, as_json, out):
    """Render the full check table for a single configuration."""
    d = Dimension(dim)
    if seed is None:
        seed = _seed_base()
    R, label = _resolve_curvature(curvature, dim)
    R, u, v = derive_inputs(dim, seed, R)
    u = _parse_vector(u_raw, dim, "u") or u
    v = _parse_vector(v_raw, dim, "v") or v
    analysis = Analysis(d, R, u, v)
    misses = analysis.mismatches()
    if as_json:
        _emit(_render_json(analysis.report_dict(seed)), out)
    else:
        width = max(len(key) for key in PART_IDS + ASSEMBLED_IDS)
        lines = [f"parts dim={dim} seed={seed} curvature={label}"]
        # a failing block total has no table row, so it gets one after the table
        keys = PART_IDS + ASSEMBLED_IDS
        keys += tuple(key for key in misses if key in analysis.computed and key not in keys)
        for key in keys:
            status = "MISMATCH" if key in misses else "ok"
            lines.append(
                f"  {key:<{width}}  {status:<8}  computed = {analysis.computed[key].text()}"
            )
            if key in misses:
                lines.append(
                    f"  {'':<{width}}  {'':<8}  expected = {analysis.expected[key].text()}"
                )
        lines.append(f"MISMATCHES FOUND: {', '.join(misses)}" if misses else "all checks hold")
        _emit("\n".join(lines) + "\n", out)
    raise SystemExit(1 if misses else 0)


@main.command()
@click.option("--dim", type=int, default=4, callback=_check_dim)
@click.option("--curvature", default="constant")
@click.option("--u", "u_raw", required=True, help="Comma-separated rational components.")
@click.option("--v", "v_raw", required=True, help="Comma-separated rational components.")
@click.option("--eval", "eval_point", nargs=2, default=None, help="Evaluate numerically at a0 b0.")
@click.option("--json", "as_json", is_flag=True)
@click.option("--out", default=None)
@click.option("--seed", type=int, default=None, help="Seed when --curvature random.")
def einstein(dim, curvature, u_raw, v_raw, eval_point, as_json, out, seed):
    """Print the Einstein-functional density for explicit u, v."""
    d = Dimension(dim)
    if seed is None:
        seed = _seed_base()
    R, label = _resolve_curvature(curvature, dim)
    R = derive_inputs(dim, seed, R)[0]
    u = _parse_vector(u_raw, dim, "u")
    v = _parse_vector(v_raw, dim, "v")
    analysis = Analysis(d, R, u, v)
    density = analysis.computed["einstein"].normalized()
    matches = analysis.match["einstein"]

    payload = {
        "dim": dim,
        "curvature": label,
        "core": density.poly.text(),
        "core_terms": density.poly.to_json(),
        "prefactor_exp": density.prefactor_exp,
        "matches_closed_form": matches,
    }
    value = None
    if eval_point:
        try:
            a0, b0 = (Fraction(x) for x in eval_point)
        except (ValueError, ZeroDivisionError) as exc:
            raise click.UsageError(f"--eval: {exc}")
        try:
            value = float(density.evaluate(a0, b0).re) * sphere_volume(dim)
        except ZeroDivisionError:
            raise click.UsageError(
                f"--eval: the density carries (a0*b0)^{density.prefactor_exp},"
                " which is undefined at a0*b0 = 0"
            )
        except OverflowError:
            value = math.inf
        if math.isinf(value):
            raise click.UsageError("--eval: the value is too large for a float")
        payload["eval"] = {"a0": str(a0), "b0": str(b0), "value": value}
    if as_json:
        _emit(_render_json(payload), out)
    else:
        core_txt = density.poly.text()
        if len(density.poly.nums) > 1:
            core_txt = f"({core_txt})"
        lines = [
            f"einstein functional density (dim={dim}, curvature={label})",
            f"  core = {density.poly.text()}",
            f"  prefactor exponent = {density.prefactor_exp}",
            f"  density = {core_txt} * (a0*b0)^{density.prefactor_exp} * Vol(S^{dim - 1})",
            f"  matches closed form: {'yes' if matches else 'NO'}",
        ]
        if value is not None:
            lines.append(f"  value at a0={eval_point[0]}, b0={eval_point[1]}: {value}")
        _emit("\n".join(lines) + "\n", out)
    raise SystemExit(0 if matches else 1)


if __name__ == "__main__":
    main()
