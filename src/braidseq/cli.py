"""Command-line surface: braid queries, family sweeps, cone arithmetic,
prong bookkeeping, the exact 3-braid oracle, entropy estimates, spin checks,
and the reproduction runs.

Output is deterministic: JSON for single objects, CSV for sweeps.  Exit
codes: 0 success, 1 non-converged estimate (diagnostics as JSON on stdout),
2 usage errors, which include every input the library rejects with a
``ValueError``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import sys

import click

from . import __version__, dynnikov, foliation
from .cone import ConeClass, ConeContext, thurston_norm
from .families import FamilySpec, generate
from .spin import lift_braid, preserves_form, q0, q1
from .standard import StandardForm, class_to_braid
from .tribraid import exact_dilatation, transition_matrix
from .words import BraidWord, linking_profile, make_generator

DEFAULT_TOL = float(os.environ.get("BRAIDSEQ_TOL", dynnikov.DEFAULT_TOL))


def _manifest(command: str, args: dict, output: str) -> dict:
    plain = {k: v for k, v in args.items()
             if isinstance(v, (str, int, float, bool, type(None)))}
    return {
        "command": command,
        "arguments": {k: plain[k] for k in sorted(plain)},
        "tool_version": __version__,
        "outputs_digest": hashlib.sha256(output.encode()).hexdigest(),
    }


def _emit(params: dict, command: str, out: str,
          manifest_path: str | None = None, csv_path: str | None = None):
    """Write ``out`` to ``csv_path`` (or stdout), then its manifest.

    ``params`` is the command's ``locals()``; its plain values become the
    manifest's arguments.
    """
    if csv_path:
        with open(csv_path, "w") as fh:
            fh.write(out)
        click.echo(f"wrote {csv_path}")
    else:
        click.echo(out, nl=not out.endswith("\n"))
    if manifest_path:
        doc = _manifest(command, params, out)
        with open(manifest_path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


class _Command(click.Command):
    """The one error boundary: a library ``ValueError`` (bad degree, non-pA
    word, malformed blocks or class) becomes a usage error, exit 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.UsageError(str(exc), ctx) from exc


class _Group(click.Group):
    """Builds every subcommand and subgroup with the boundary above."""

    command_class = _Command
    group_class = type


@click.group(cls=_Group)
def main():
    """Constructive pseudo-Anosov braid sequences with small normalized
    entropy."""


# -- braid ------------------------------------------------------------------

@main.group()
def braid():
    """Braid word queries."""


@braid.command("info")
@click.option("--word", required=True, help='letters, e.g. "1 1 -2" or "B3 1 1 -2"')
@click.option("--degree", type=int, default=None)
@click.option("--spherical", is_flag=True, default=False)
@click.option("--json", "as_json", is_flag=True, default=False)
@click.option("--manifest", type=click.Path(), default=None)
def braid_info(word, degree, spherical, as_json, manifest):
    """Permutation, fixed points, exponent sum and symmetry verdicts."""
    b = BraidWord.from_text(word, degree=degree, spherical=spherical)
    perm = b.permutation()
    info = {
        "word": b.to_text(),
        "degree": b.degree,
        "length": len(b),
        "exponent_sum": b.exponent_sum(),
        "permutation": list(perm.images),
        "cycles": [list(c) for c in perm.cycles()],
        "fixed_points": list(perm.fixed_points()),
        "palindromic_word": b.rev().letters == b.letters,
        "skew_palindromic_word": b.skew().letters == b.letters,
    }
    if as_json:
        out = json.dumps(info, indent=2, sort_keys=True)
    else:
        cyc = " ".join("(" + " ".join(map(str, c)) + ")" for c in info["cycles"])
        out = "\n".join([
            f"word:          {info['word']}",
            f"permutation:   {cyc}",
            f"fixed points:  {info['fixed_points']}",
            f"exponent sum:  {info['exponent_sum']}",
        ])
    _emit(locals(), "braid info", out, manifest)


@braid.command("linking")
@click.option("--word", required=True)
@click.option("--degree", type=int, default=None)
@click.option("--strand", type=int, required=True)
def braid_linking(word, degree, strand):
    """Per-component linking numbers and the monotonicity verdict."""
    b = BraidWord.from_text(word, degree=degree)
    prof = linking_profile(b, strand)
    rows = [[" ".join(map(str, cyc)), lk] for cyc, lk in prof.components]
    out = _csv_text(["component", "linking_number"], rows)
    out += f"u,{prof.u}\nverdict,{prof.verdict}\nconclusive,{prof.conclusive}"
    click.echo(out)


@braid.command("generator")
@click.option("--kind", type=click.Choice(["delta", "rho", "half_twist", "full_twist"]),
              required=True)
@click.option("--n", type=int, required=True)
@click.option("--j", type=int, required=True)
def braid_generator(kind, n, j):
    """Literal word of a named element of B_n."""
    click.echo(make_generator(kind, n, j).to_text())


# -- tribraid ---------------------------------------------------------------

@main.command("tribraid")
@click.option("--word", required=True, help='pA word over {-1, 2}, e.g. "-1 2 2"')
@click.option("--json", "as_json", is_flag=True, default=False)
@click.option("--manifest", type=click.Path(), default=None)
def tribraid_cmd(word, as_json, manifest):
    """Exact dilatation of a 3-braid pA word."""
    b = BraidWord.from_text(word, degree=3)
    m = transition_matrix(b)
    lam = exact_dilatation(b)
    info = {
        "word": b.to_text(),
        "matrix": [list(r) for r in m.rows()],
        "trace": m.trace,
        "dilatation": str(lam),
        "dilatation_decimal": lam.approx(20),
        "log_dilatation": lam.log,
    }
    if as_json:
        out = json.dumps(info, indent=2, sort_keys=True)
    else:
        out = "\n".join([
            f"trace:        {info['trace']}",
            f"dilatation:   {info['dilatation']}",
            f"decimal:      {info['dilatation_decimal']}",
            f"log:          {info['log_dilatation']!r}",
        ])
    _emit(locals(), "tribraid", out, manifest)


# -- entropy ----------------------------------------------------------------

@main.command("entropy")
@click.option("--braid", "word", required=True)
@click.option("--degree", type=int, default=None)
@click.option("--tol", type=float, default=None)
@click.option("--max-iter", type=int, default=dynnikov.DEFAULT_MAX_ITER)
@click.option("--json", "as_json", is_flag=True, default=False)
@click.option("--manifest", type=click.Path(), default=None)
def entropy_cmd(word, degree, tol, max_iter, as_json, manifest):
    """Entropy estimate log(lambda) and normalized entropy of a braid."""
    tol = DEFAULT_TOL if tol is None else tol
    b = BraidWord.from_text(word, degree=degree)
    est = dynnikov.entropy_estimate(b, tol=tol, max_iter=max_iter)
    info = {
        "word": b.to_text(),
        "value": est.value,
        "normalized_entropy": (b.degree - 1) * est.value,
        "iterations": est.iterations,
        "last_delta": est.last_delta,
        "accumulated_scale": est.accumulated_scale,
        "converged": est.converged,
        "kernel": est.kernel,
        "tol": tol,
    }
    if as_json or not est.converged:
        out = json.dumps(info, indent=2, sort_keys=True)
    else:
        out = "\n".join([
            f"log lambda:   {est.value!r}",
            f"Ent:          {(b.degree - 1) * est.value!r}",
            f"iterations:   {est.iterations}",
            f"converged:    {est.converged}",
        ])
    _emit(locals(), "entropy", out, manifest)
    if not est.converged:
        sys.exit(1)


# -- family -----------------------------------------------------------------

def _parse_range(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(text)]
    except ValueError:
        raise click.UsageError(f"expected a value or range like 1..8; got {text!r}")
    if not values or any(v < 1 for v in values):
        raise click.UsageError("parameters must be >= 1")
    return values


@main.command("family")
@click.argument("name", type=click.Choice(["xi", "eta", "o", "v", "z", "beta", "b_p"]))
@click.option("--p", "p_range", required=True, help="parameter or range, e.g. 1..8")
@click.option("--seed-blocks", default=None, help='blocks like "-1 | -1" for seeded families')
@click.option("--seed-degree", type=int, default=None)
@click.option("--pre-twist", type=int, default=0)
@click.option("--with-entropy", is_flag=True, default=False)
@click.option("--tol", type=float, default=None)
@click.option("--max-iter", type=int, default=4096)
@click.option("--csv", "csv_path", type=click.Path(), default=None)
@click.option("--manifest", type=click.Path(), default=None)
def family_cmd(name, p_range, seed_blocks, seed_degree, pre_twist,
               with_entropy, tol, max_iter, csv_path, manifest):
    """Generate family members; optionally with (ent, Ent) columns."""
    tol = DEFAULT_TOL if tol is None else tol
    seed = None
    if seed_blocks is not None:
        if seed_degree is None:
            raise click.UsageError("--seed-degree required with --seed-blocks")
        seed = StandardForm.from_blocks_text(seed_blocks, seed_degree)
    header = ["p", "degree", "word"]
    if with_entropy:
        header += ["ent", "Ent", "converged"]
    rows = []
    exit_code = 0
    for p in _parse_range(p_range):
        member = generate(FamilySpec(name, p, seed=seed, pre_twist=pre_twist))
        w = member.word
        row = [p, w.degree, " ".join(map(str, w.letters))]
        if with_entropy:
            est = dynnikov.entropy_estimate(w, tol=tol, max_iter=max_iter)
            row += [repr(est.value), repr((w.degree - 1) * est.value),
                    est.converged]
            if not est.converged:
                exit_code = 1
        rows.append(row)
    out = _csv_text(header, rows)
    _emit(locals(), f"family {name}", out, manifest, csv_path)
    if exit_code:
        sys.exit(exit_code)


# -- cone -------------------------------------------------------------------

def _parse_class(text: str) -> tuple[int, int]:
    try:
        x, y = text.split(",")
        return int(x), int(y)
    except ValueError:
        raise click.UsageError(f"expected a class like 5,14; got {text!r}")


@main.group()
def cone():
    """Cone-class arithmetic."""


@cone.command("norm")
@click.option("--n", type=int, required=True)
@click.option("--u", type=int, required=True)
@click.option("--class", "cls", required=True, help="x,y")
def cone_norm(n, u, cls):
    """Thurston norm of a class in the seed's cone."""
    x, y = _parse_class(cls)
    val = thurston_norm(ConeContext(n, u), ConeClass(x, y))
    click.echo(f"{val}")


@cone.command("table")
@click.option("--seed-blocks", required=True)
@click.option("--seed-degree", type=int, required=True)
@click.option("--xmax", type=int, default=4)
@click.option("--ymax", type=int, default=4)
@click.option("--tol", type=float, default=None)
@click.option("--max-iter", type=int, default=4096)
@click.option("--csv", "csv_path", type=click.Path(), default=None)
def cone_table(seed_blocks, seed_degree, xmax, ymax, tol, max_iter, csv_path):
    """(x, y, norm, ent, Ent) over primitive interior classes."""
    from math import gcd
    tol = DEFAULT_TOL if tol is None else tol
    seed = StandardForm.from_blocks_text(seed_blocks, seed_degree)
    ctx = ConeContext.of_seed(seed)
    rows = []
    for x in range(1, xmax + 1):
        for y in range(1, ymax + 1):
            if gcd(x, y) != 1:
                continue
            sf = class_to_braid(seed, x, y)
            w = sf.to_braid_word()
            est = dynnikov.entropy_estimate(w, tol=tol, max_iter=max_iter)
            norm = thurston_norm(ctx, ConeClass(x, y))
            rows.append([x, y, norm, repr(est.value), repr(norm * est.value),
                         est.converged])
    out = _csv_text(["x", "y", "norm", "ent", "Ent", "converged"], rows)
    _emit(locals(), "cone table", out, csv_path=csv_path)


@cone.command("braid")
@click.option("--seed-blocks", required=True)
@click.option("--seed-degree", type=int, required=True)
@click.option("--class", "cls", required=True, help="x,y")
def cone_braid(seed_blocks, seed_degree, cls):
    """Monodromy braid word of a primitive cone class."""
    seed = StandardForm.from_blocks_text(seed_blocks, seed_degree)
    x, y = _parse_class(cls)
    sf = class_to_braid(seed, x, y)
    click.echo(sf.to_braid_word().to_text())


# -- prongs -----------------------------------------------------------------

@main.command("prongs")
@click.option("--orbit", default="1,0:2,1",
              help="axis:strand orbit classes like 1,0:2,1 or a preset name")
@click.option("--twist", type=int, default=0, help="full twists composed onto the orbit")
@click.option("--class", "cls", required=True,
              help='class "x,y"; either coordinate may be the symbol p')
@click.option("--sweep", default=None, help="p=1..10")
@click.option("--epsilon", type=int, default=1)
@click.option("--csv", "csv_path", type=click.Path(), default=None)
def prongs_cmd(orbit, twist, cls, sweep, epsilon, csv_path):
    """Prong counts of the stable foliation at the two boundary tori."""
    if orbit in foliation.PRESETS:
        data = foliation.PRESETS[orbit]
    else:
        if orbit.count(":") != 1:
            raise click.UsageError(
                f"expected axis:strand classes like 1,0:2,1 or one of "
                f"{sorted(foliation.PRESETS)}; got {orbit!r}")
        axis_txt, strand_txt = orbit.split(":")
        data = foliation.OrbitData(
            foliation.TorusClass(*_parse_class(axis_txt)),
            foliation.TorusClass(*_parse_class(strand_txt)))
    for _ in range(twist):
        data = foliation.compose_orbit_full_twist(data, 1)
    if cls.count(",") != 1:
        raise click.UsageError(f"expected a class like 2,1 or p,1; got {cls!r}")
    xs, ys = cls.split(",")
    values = [None]
    if sweep:
        var, rng = sweep.split("=")
        if var.strip() != "p":
            raise click.UsageError("only p sweeps are supported")
        values = _parse_range(rng)
    rows = []
    for pval in values:
        x = int(xs) if xs.strip() != "p" else pval
        y = int(ys) if ys.strip() != "p" else pval
        if x is None or y is None:
            raise click.UsageError("class contains p but no --sweep given")
        axis_p, strand_p = foliation.prong_counts(data, epsilon, x, y)
        rows.append([pval if pval is not None else "-", x, y, axis_p, strand_p,
                     foliation.puncture_fill_validity(strand_p)])
    out = _csv_text(["p", "x", "y", "axis_prongs", "strand_prongs", "fill"], rows)
    _emit(locals(), "prongs", out, csv_path=csv_path)


# -- spin -------------------------------------------------------------------

@main.group()
def spin():
    """Spin mapping class group membership checks."""


@spin.command("check")
@click.option("--family", "family_name", type=click.Choice(["odd", "even"]),
              required=True, help="odd = o family vs q1, even = v family vs q0")
@click.option("--p", type=int, required=True)
def spin_check(family_name, p):
    """Lift the spin family word and verify form preservation."""
    name = "o" if family_name == "odd" else "v"
    member = generate(FamilySpec(name, p))
    lifted = lift_braid(member.companion)
    g = lifted.genus
    ok0 = preserves_form(lifted, q0(g))
    ok1 = preserves_form(lifted, q1(g))
    word = " ".join(f"t{t}" if t > 0 else f"t{-t}^-1" for t in lifted.letters)
    click.echo("\n".join([
        f"family:     {name}_{p} (companion {member.companion.to_text()})",
        f"genus:      {g}",
        f"lift:       {word}",
        f"preserves q0: {ok0}",
        f"preserves q1: {ok1}",
    ]))


@spin.command("lift")
@click.option("--word", required=True)
@click.option("--degree", type=int, default=None)
@click.option("--spherical", is_flag=True, default=False)
def spin_lift(word, degree, spherical):
    """Lift any braid word and print the q0/q1 verdicts."""
    b = BraidWord.from_text(word, degree=degree, spherical=spherical)
    lifted = lift_braid(b)
    g = lifted.genus
    click.echo(f"genus {g}; preserves q0: {preserves_form(lifted, q0(g))}; "
               f"preserves q1: {preserves_form(lifted, q1(g))}")


# -- reproduce --------------------------------------------------------------

@main.command("reproduce")
@click.argument("target", type=click.Choice(["thm1.1", "thm5.2"]))
@click.option("--pmax", type=int, default=8)
@click.option("--tol", type=float, default=1e-8)
@click.option("--max-iter", type=int, default=4096)
@click.option("--csv", "csv_path", type=click.Path(), default=None)
@click.option("--manifest", type=click.Path(), default=None)
def reproduce_cmd(target, pmax, tol, max_iter, csv_path, manifest):
    """End-to-end convergence experiments behind the headline sequences."""
    import math
    rows: list[list] = []
    exit_code = 0
    if target == "thm1.1":
        limit = 2 * math.log(2 + math.sqrt(3))
        header = ["p", "degree", "ent", "Ent", "abs_error_vs_limit", "converged"]
        for p in range(1, pmax + 1):
            w = generate(FamilySpec("z", p)).word
            est = dynnikov.entropy_estimate(w, tol=tol, max_iter=max_iter)
            ent_n = (w.degree - 1) * est.value
            rows.append([p, w.degree, repr(est.value), repr(ent_n),
                         repr(abs(ent_n - limit)), est.converged])
            exit_code |= 0 if est.converged else 1
        footer = f"# limit 2*log(2+sqrt(3)) = {limit!r}\n"
    else:
        seed = StandardForm(3, ((-1,), (-1,)))
        b1 = generate(FamilySpec("b_p", 1, seed=seed)).word
        est1 = dynnikov.entropy_estimate(b1, tol=tol, max_iter=max_iter)
        limit = (b1.degree - 1) * est1.value
        header = ["p", "degree", "ent", "Ent", "abs_error_vs_Ent_b1", "converged"]
        for p in range(1, pmax + 1):
            w = generate(FamilySpec("beta", p, seed=seed)).word
            est = dynnikov.entropy_estimate(w, tol=tol, max_iter=max_iter)
            ent_n = (w.degree - 1) * est.value
            rows.append([p, w.degree, repr(est.value), repr(ent_n),
                         repr(abs(ent_n - limit)), est.converged])
            exit_code |= 0 if est.converged else 1
        footer = f"# Ent(b_1) = {limit!r}\n"
    out = _csv_text(header, rows) + footer
    _emit(locals(), f"reproduce {target}", out, manifest, csv_path)
    if exit_code:
        sys.exit(exit_code)


if __name__ == "__main__":
    main()
