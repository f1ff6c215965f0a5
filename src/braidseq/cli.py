"""Command-line surface: braid queries, family sweeps, cone arithmetic,
prong bookkeeping, the exact 3-braid oracle, entropy estimates, spin checks,
and the reproduction runs.

Output is deterministic: JSON for single objects, CSV for sweeps.  Exit
codes: 0 success, 1 when an estimate behind the output did not converge
(the output is still written; ``entropy`` switches to JSON diagnostics),
2 usage errors: every input the library rejects with a ``ValueError`` and
every output path that cannot be written.

One path per job: ``_estimate`` is the only caller of the estimator,
``_emit`` the only writer of output and the one place exit 1 is decided,
and ``_Command.invoke`` the only place a ``ValueError`` becomes a usage error.

Start-up is paid on every run, so the module level imports only what the
estimating commands and option defaults need; cone, spin, 3-braid and
prong code, ``json`` and ``hashlib`` load inside the commands that use
them, by name, since ``cone`` and ``spin`` are also group names here.
"""

from __future__ import annotations

import csv
import io
import math
import sys

import click

from . import __version__, dynnikov
from .families import FamilySpec, generate, is_palindromic, is_skew_palindromic
from .standard import StandardForm, class_to_braid
from .words import BraidWord, linking_profile, make_generator


def _json_text(doc: dict) -> str:
    import json
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def _estimate(word: BraidWord, tol: float, max_iter: int):
    """The estimate of ``word`` and its normalized entropy, (degree - 1) *
    value; a non-converged estimate makes ``_emit`` exit 1."""
    est = dynnikov.entropy_estimate(word, tol=tol, max_iter=max_iter)
    if not est.converged:
        click.get_current_context().meta["braidseq.unconverged"] = True
    return est, (word.degree - 1) * est.value


def _emit(command: str, out: str, manifest_path: str | None = None,
          csv_path: str | None = None):
    """Write ``out`` to ``csv_path`` (or stdout) and its manifest of the
    command's declared parameters, files first so that an unwritable path
    prints nothing; exit 1 when an estimate behind ``out`` did not converge."""
    ctx = click.get_current_context()
    files = {csv_path: out} if csv_path else {}
    if manifest_path:
        import hashlib
        files[manifest_path] = _json_text({
            "command": command,
            "arguments": ctx.params,
            "tool_version": __version__,
            "outputs_digest": hashlib.sha256(out.encode()).hexdigest(),
        }) + "\n"
    for path, body in files.items():
        try:
            with open(path, "w") as fh:
                fh.write(body)
        except OSError as exc:
            raise ValueError(f"cannot write {path}: {exc.strerror}") from exc
    text = f"wrote {csv_path}\n" if csv_path else out
    click.echo(text, nl=not text.endswith("\n"))
    if ctx.meta.get("braidseq.unconverged"):
        sys.exit(1)


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
    b = BraidWord.from_text(word, degree=degree, spherical=spherical or None)
    perm = b.permutation()
    info = {
        "word": b.to_text(),
        "degree": b.degree,
        "length": len(b),
        "exponent_sum": b.exponent_sum(),
        "permutation": list(perm.images),
        "cycles": [list(c) for c in perm.cycles()],
        "fixed_points": list(perm.fixed_points()),
        "palindromic_word": is_palindromic(b),
        "skew_palindromic_word": is_skew_palindromic(b),
    }
    if as_json:
        out = _json_text(info)
    else:
        cyc = " ".join("(" + " ".join(map(str, c)) + ")" for c in info["cycles"])
        out = "\n".join([
            f"word:          {info['word']}",
            f"permutation:   {cyc}",
            f"fixed points:  {info['fixed_points']}",
            f"exponent sum:  {info['exponent_sum']}",
        ])
    _emit("braid info", out, manifest)


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
    _emit("braid linking", out)


@braid.command("generator")
@click.option("--kind", type=click.Choice(["delta", "rho", "half_twist", "full_twist"]),
              required=True)
@click.option("--n", type=int, required=True)
@click.option("--j", type=int, required=True)
def braid_generator(kind, n, j):
    """Literal word of a named element of B_n."""
    _emit("braid generator", make_generator(kind, n, j).to_text())


# -- tribraid ---------------------------------------------------------------

@main.command("tribraid")
@click.option("--word", required=True, help='pA word over {-1, 2}, e.g. "-1 2 2"')
@click.option("--json", "as_json", is_flag=True, default=False)
@click.option("--manifest", type=click.Path(), default=None)
def tribraid_cmd(word, as_json, manifest):
    """Exact dilatation of a 3-braid pA word."""
    from .tribraid import exact_dilatation, transition_matrix
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
        out = _json_text(info)
    else:
        out = "\n".join([
            f"trace:        {info['trace']}",
            f"dilatation:   {info['dilatation']}",
            f"decimal:      {info['dilatation_decimal']}",
            f"log:          {info['log_dilatation']!r}",
        ])
    _emit("tribraid", out, manifest)


# -- entropy ----------------------------------------------------------------

@main.command("entropy")
@click.option("--braid", "word", required=True)
@click.option("--degree", type=int, default=None)
@click.option("--tol", type=float, default=dynnikov.DEFAULT_TOL)
@click.option("--max-iter", type=int, default=dynnikov.DEFAULT_MAX_ITER)
@click.option("--json", "as_json", is_flag=True, default=False)
@click.option("--manifest", type=click.Path(), default=None)
def entropy_cmd(word, degree, tol, max_iter, as_json, manifest):
    """Entropy estimate log(lambda) and normalized entropy of a braid."""
    b = BraidWord.from_text(word, degree=degree)
    est, ent = _estimate(b, tol, max_iter)
    info = {
        "word": b.to_text(),
        "value": est.value,
        "normalized_entropy": ent,
        "iterations": est.iterations,
        # undefined (inf) before two per-pass growth rates exist
        "last_delta": est.last_delta if math.isfinite(est.last_delta) else None,
        "cycle": est.cycle,
        "converged": est.converged,
        "method": est.method,
        "kernel": est.kernel,
        "tol": tol,
    }
    if as_json or not est.converged:
        out = _json_text(info)
    else:
        out = "\n".join([
            f"log lambda:   {est.value!r}",
            f"Ent:          {ent!r}",
            f"iterations:   {est.iterations}",
            f"converged:    {est.converged}",
        ])
    _emit("entropy", out, manifest)


# -- family -----------------------------------------------------------------

def _parse_range(text: str) -> list[int]:
    lo, dots, hi = text.partition("..")
    try:
        values = list(range(int(lo), int(hi) + 1)) if dots else [int(text)]
    except ValueError:
        raise ValueError(f"expected a value or range like 1..8; got {text!r}")
    if not values:
        raise ValueError(f"the range {text!r} is empty")
    if min(values) < 1:
        raise ValueError("parameters must be >= 1")
    return values


@main.command("family")
@click.argument("name", type=click.Choice(["xi", "eta", "o", "v", "z", "beta", "b_p"]))
@click.option("--p", "p_range", required=True, help="parameter or range, e.g. 1..8")
@click.option("--seed-blocks", default=None, help='blocks like "-1 | -1" for seeded families')
@click.option("--seed-degree", type=int, default=None)
@click.option("--pre-twist", type=int, default=0)
@click.option("--with-entropy", is_flag=True, default=False)
@click.option("--tol", type=float, default=dynnikov.DEFAULT_TOL)
@click.option("--max-iter", type=int, default=4096)
@click.option("--csv", "csv_path", type=click.Path(), default=None)
@click.option("--manifest", type=click.Path(), default=None)
def family_cmd(name, p_range, seed_blocks, seed_degree, pre_twist,
               with_entropy, tol, max_iter, csv_path, manifest):
    """Generate family members; optionally with (ent, Ent) columns.  A
    seeded member is a cone class over its seed: z is (p + t + 1, 1) for
    --pre-twist t, beta is (p + 1, p) and b_p is (1, p)."""
    if (seed_blocks is None) != (seed_degree is None):
        raise ValueError("--seed-blocks and --seed-degree go together")
    seed = (StandardForm.from_blocks_text(seed_blocks, seed_degree)
            if seed_blocks is not None else None)
    dynnikov.check_budget(tol, max_iter)   # --manifest records it either way
    header = ["p", "degree", "word"]
    if with_entropy:
        header += ["ent", "Ent", "converged"]
    rows = []
    for p in _parse_range(p_range):
        w = generate(FamilySpec(name, p, seed=seed, pre_twist=pre_twist)).word
        row = [p, w.degree, " ".join(map(str, w.letters))]
        if with_entropy:
            est, ent = _estimate(w, tol, max_iter)
            row += [repr(est.value), repr(ent), est.converged]
        rows.append(row)
    _emit(f"family {name}", _csv_text(header, rows), manifest, csv_path)


# -- cone -------------------------------------------------------------------

def _parse_class(text: str) -> tuple[int, int]:
    try:
        x, y = text.split(",")
        return int(x), int(y)
    except ValueError:
        raise ValueError(f"expected a class like 5,14; got {text!r}")


@main.group()
def cone():
    """Cone-class arithmetic."""


@cone.command("norm")
@click.option("--n", type=int, required=True)
@click.option("--u", type=int, required=True)
@click.option("--class", "cls", required=True, help="x,y")
def cone_norm(n, u, cls):
    """Thurston norm of a class in the seed's cone."""
    from .cone import ConeClass, ConeContext, thurston_norm
    x, y = _parse_class(cls)
    _emit("cone norm", str(thurston_norm(ConeContext(n, u), ConeClass(x, y))))


@cone.command("table")
@click.option("--seed-blocks", required=True)
@click.option("--seed-degree", type=int, required=True)
@click.option("--xmax", type=click.IntRange(min=1), default=4)
@click.option("--ymax", type=click.IntRange(min=1), default=4)
@click.option("--tol", type=float, default=dynnikov.DEFAULT_TOL)
@click.option("--max-iter", type=int, default=4096)
@click.option("--csv", "csv_path", type=click.Path(), default=None)
def cone_table(seed_blocks, seed_degree, xmax, ymax, tol, max_iter, csv_path):
    """(x, y, norm, ent, Ent) over primitive interior classes."""
    from .cone import ConeClass, ConeContext, thurston_norm
    seed = StandardForm.from_blocks_text(seed_blocks, seed_degree)
    ctx = ConeContext.of_seed(seed)
    rows = []
    for x in range(1, xmax + 1):
        for y in range(1, ymax + 1):
            cls = ConeClass(x, y)
            if not cls.is_primitive():
                continue
            # class_to_braid asserts norm = degree - 1, so Ent = norm * ent
            est, ent = _estimate(class_to_braid(seed, x, y).to_braid_word(),
                                 tol, max_iter)
            rows.append([x, y, thurston_norm(ctx, cls), repr(est.value),
                         repr(ent), est.converged])
    out = _csv_text(["x", "y", "norm", "ent", "Ent", "converged"], rows)
    _emit("cone table", out, csv_path=csv_path)


@cone.command("braid")
@click.option("--seed-blocks", required=True)
@click.option("--seed-degree", type=int, required=True)
@click.option("--class", "cls", required=True, help="x,y")
def cone_braid(seed_blocks, seed_degree, cls):
    """Monodromy braid word of a primitive cone class."""
    seed = StandardForm.from_blocks_text(seed_blocks, seed_degree)
    x, y = _parse_class(cls)
    _emit("cone braid", class_to_braid(seed, x, y).to_braid_word().to_text())


# -- prongs -----------------------------------------------------------------

@main.command("prongs")
@click.option("--orbit", default="1,0:2,1",
              help="axis:strand orbit classes like 1,0:2,1 or a preset name")
@click.option("--twist", type=click.IntRange(min=0), default=0,
              help="full twists composed onto the orbit")
@click.option("--class", "cls", required=True,
              help='class "x,y"; either coordinate may be the symbol p')
@click.option("--sweep", default=None, help="p=1..10")
@click.option("--epsilon", type=int, default=1)
@click.option("--csv", "csv_path", type=click.Path(), default=None)
def prongs_cmd(orbit, twist, cls, sweep, epsilon, csv_path):
    """Prong counts of the stable foliation at the two boundary tori."""
    from . import foliation
    if orbit in foliation.PRESETS:
        data = foliation.PRESETS[orbit]
    else:
        if orbit.count(":") != 1:
            raise ValueError(
                f"expected axis:strand classes like 1,0:2,1 or one of "
                f"{sorted(foliation.PRESETS)}; got {orbit!r}")
        axis_txt, strand_txt = orbit.split(":")
        data = foliation.OrbitData(
            foliation.TorusClass(*_parse_class(axis_txt)),
            foliation.TorusClass(*_parse_class(strand_txt)))
    if twist:
        data = foliation.compose_orbit_full_twist(data, twist)
    if cls.count(",") != 1:
        raise ValueError(f"expected a class like 2,1 or p,1; got {cls!r}")
    xs, ys = cls.split(",")
    values = [None]
    if sweep:
        var, _, rng = sweep.partition("=")
        if var.strip() != "p" or not rng or "=" in rng:
            raise ValueError(f"expected --sweep p=LO..HI; got {sweep!r}")
        values = _parse_range(rng)
    rows = []
    for pval in values:
        x = int(xs) if xs.strip() != "p" else pval
        y = int(ys) if ys.strip() != "p" else pval
        if x is None or y is None:
            raise ValueError("class contains p but no --sweep given")
        axis_p, strand_p = foliation.prong_counts(data, epsilon, x, y)
        rows.append([pval if pval is not None else "-", x, y, axis_p, strand_p,
                     foliation.puncture_fill_validity(strand_p)])
    out = _csv_text(["p", "x", "y", "axis_prongs", "strand_prongs", "fill"], rows)
    _emit("prongs", out, csv_path=csv_path)


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
    from .spin import lift_braid, preserves_form, q0, q1
    name = "o" if family_name == "odd" else "v"
    member = generate(FamilySpec(name, p))
    lifted = lift_braid(member.companion)
    g = lifted.genus
    word = " ".join(f"t{t}" if t > 0 else f"t{-t}^-1" for t in lifted.letters)
    _emit("spin check", "\n".join([
        f"family:     {name}_{p} (companion {member.companion.to_text()})",
        f"genus:      {g}",
        f"lift:       {word}",
        f"preserves q0: {preserves_form(lifted, q0(g))}",
        f"preserves q1: {preserves_form(lifted, q1(g))}",
    ]))


@spin.command("lift")
@click.option("--word", required=True)
@click.option("--degree", type=int, default=None)
@click.option("--spherical", is_flag=True, default=False)
def spin_lift(word, degree, spherical):
    """Lift any braid word and print the q0/q1 verdicts."""
    from .spin import lift_braid, preserves_form, q0, q1
    b = BraidWord.from_text(word, degree=degree, spherical=spherical or None)
    lifted = lift_braid(b)
    g = lifted.genus
    _emit("spin lift", f"genus {g}; preserves q0: {preserves_form(lifted, q0(g))}; "
                       f"preserves q1: {preserves_form(lifted, q1(g))}")


# -- reproduce --------------------------------------------------------------

@main.command("reproduce")
@click.argument("target", type=click.Choice(["thm1.1", "thm5.2"]))
@click.option("--pmax", type=click.IntRange(min=1), default=8)
@click.option("--tol", type=float, default=1e-8)
@click.option("--max-iter", type=int, default=4096)
@click.option("--csv", "csv_path", type=click.Path(), default=None)
@click.option("--manifest", type=click.Path(), default=None)
def reproduce_cmd(target, pmax, tol, max_iter, csv_path, manifest):
    """End-to-end convergence experiments behind the headline sequences."""
    if target == "thm1.1":
        family, seed = "z", None
        column, footer = "abs_error_vs_limit", "# limit 2*log(2+sqrt(3)) = "
        limit = 2 * math.log(2 + math.sqrt(3))
    else:
        family, seed = "beta", StandardForm(3, ((-1,), (-1,)))
        column, footer = "abs_error_vs_Ent_b1", "# Ent(b_1) = "
        b1 = generate(FamilySpec("b_p", 1, seed=seed)).word
        limit = _estimate(b1, tol, max_iter)[1]
    rows: list[list] = []
    for p in range(1, pmax + 1):
        w = generate(FamilySpec(family, p, seed=seed)).word
        est, ent = _estimate(w, tol, max_iter)
        rows.append([p, w.degree, repr(est.value), repr(ent),
                     repr(abs(ent - limit)), est.converged])
    header = ["p", "degree", "ent", "Ent", column, "converged"]
    out = _csv_text(header, rows) + f"{footer}{limit!r}\n"
    _emit(f"reproduce {target}", out, manifest, csv_path)


if __name__ == "__main__":
    main()
