"""Command-line surface: braid queries, family sweeps, cone arithmetic,
prong bookkeeping, the exact 3-braid oracle, entropy estimates, spin checks,
and the reproduction runs.

Output is deterministic: JSON for single objects, CSV for sweeps.  Exit
codes: 0 success, 1 when an estimate behind the output did not converge
(the output is still written; ``entropy`` switches to JSON diagnostics),
2 usage errors: every input the library rejects with a ``ValueError``,
every output path that cannot be written, and a table and its manifest
named as one file.  A usage error prints the command's usage line, a hint
and ``Error: <message>`` to stderr.

One path per job: ``_estimate`` is the only caller of the estimator,
``_emit`` the only writer of output and the one place exit 1 is decided,
and ``main`` the only place a ``ValueError`` becomes a usage error.

Start-up is paid on every run, so the module level imports only what the
estimating commands and option defaults need; spin, 3-braid and prong code,
``json`` and ``hashlib`` load inside the commands that use them, by name,
since ``spin`` is also a group name here.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys

from . import __version__, dynnikov
from .families import (CLOSED_FORM, SEEDED, FamilySpec, generate,
                       is_palindromic, is_skew_palindromic)
from .standard import StandardForm, class_to_braid, thurston_norm
from .words import BraidWord, linking_profile, make_generator


def _json_text(doc: dict) -> str:
    import json
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


class _Invocation:
    """One command line: its declared parameters by Python name, and whether
    an estimate behind its output did not converge."""

    def __init__(self, params: dict):
        self.params = params
        self.unconverged = False


def _estimate(inv: _Invocation, word: BraidWord, tol: float, max_iter: int):
    """The estimate of ``word`` and its normalized entropy, (degree - 1) *
    value; a non-converged estimate makes ``_emit`` exit 1."""
    est = dynnikov.entropy_estimate(word, tol=tol, max_iter=max_iter)
    if not est.converged:
        inv.unconverged = True
    return est, (word.degree - 1) * est.value


def _emit(inv: _Invocation, command: str, out: str,
          manifest_path: str | None = None, csv_path: str | None = None):
    """Write ``out`` to ``csv_path`` (or stdout) and its manifest of the
    command's declared parameters, files first so that an unwritable path
    prints nothing; exit 1 when an estimate behind ``out`` did not converge.
    Every path is opened before any is written, so that an unwritable one
    leaves no file behind and truncates none.  Both on one file raise
    before any write: the manifest would replace the table."""
    import os
    if csv_path is not None and manifest_path is not None:
        if os.path.realpath(csv_path) == os.path.realpath(manifest_path):
            raise ValueError(f"--csv and --manifest name the same file: {csv_path}")
    files = {csv_path: out} if csv_path is not None else {}
    if manifest_path is not None:
        import hashlib
        files[manifest_path] = _json_text({
            "command": command,
            "arguments": inv.params,
            "tool_version": __version__,
            "outputs_digest": hashlib.sha256(out.encode()).hexdigest(),
        }) + "\n"
    made = []                                  # the files this call created
    try:
        for path in files:                     # "a" creates, never truncates
            existed = os.path.lexists(path)
            open(path, "a").close()
            if not existed:
                made.append(path)
        for path, body in files.items():
            with open(path, "w") as fh:
                fh.write(body)
    except OSError as exc:
        for created in made:
            os.remove(created)
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc
    text = f"wrote {csv_path}\n" if csv_path is not None else out
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    if inv.unconverged:
        sys.exit(1)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# -- the parser -------------------------------------------------------------

class _Formatter(argparse.HelpFormatter):
    """Help and usage lines that start with ``Usage:``."""

    def add_usage(self, usage, actions, groups, prefix="Usage: "):
        super().add_usage(usage, actions, groups, prefix)


class _Parser(argparse.ArgumentParser):
    """Options are never abbreviated; the token after an option that takes a
    value is its value even when it starts with "-" (braid letters and
    classes often do); a usage error prints the usage line, a hint and
    ``Error: <message>`` to stderr and exits 2."""

    def __init__(self, **kwargs):
        self._value_options: set[str] = set()   # before __init__ adds --help
        super().__init__(allow_abbrev=False, exit_on_error=False,
                         formatter_class=_Formatter, **kwargs)

    def add_argument(self, *flags, **kwargs):
        action = super().add_argument(*flags, **kwargs)
        if action.option_strings and action.nargs is None:
            self._value_options.update(action.option_strings)
        return action

    def parse_known_args(self, args=None, namespace=None):
        # argparse reads the "-1,2" of "--class -1,2" as an option; "--class=-1,2" not
        tokens = iter(sys.argv[1:] if args is None else args)
        joined = []
        for token in tokens:
            if token in self._value_options:
                value = next(tokens, None)
                if value is not None:
                    token = f"{token}={value}"
            joined.append(token)
        try:
            return super().parse_known_args(joined, namespace)
        except argparse.ArgumentError as err:   # a bad or missing option value
            self.error(f"Invalid value for '{err.argument_name}': {err.message}")

    def error(self, message):
        self.exit(2, f"{self.format_usage()}Try '{self.prog} --help' for help."
                     f"\n\nError: {message}\n")


def _at_least(lo: int):
    """An integer option type that rejects values below ``lo``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x>={lo}")
        return value
    return integer


#: "command" or "group command" -> (function, ((flags, add_argument keywords), ...))
_COMMANDS: dict[str, tuple] = {}

_GROUPS = {
    "braid": "Braid word queries",
    "cone": "Cone-class arithmetic",
    "spin": "Spin mapping class group membership checks",
}


def _command(name: str, *arguments: tuple):
    """Register the decorated function as the command ``name``; it is called
    with the ``_Invocation`` and the parsed ``arguments`` by Python name."""
    def register(fn):
        _COMMANDS[name] = fn, arguments
        return fn
    return register


def _arg(*flags: str, **kwargs) -> tuple:
    return flags, kwargs


_JSON = _arg("--json", dest="as_json", action="store_true")
_MANIFEST = _arg("--manifest", metavar="PATH")
_CSV = _arg("--csv", dest="csv_path", metavar="PATH")
_TOL = _arg("--tol", type=float, default=dynnikov.DEFAULT_TOL)
_MAX_ITER = _arg("--max-iter", type=int, default=dynnikov.DEFAULT_MAX_ITER)


def _parser() -> _Parser:
    """The parser of every command.  Each parser's ``_command`` default is
    (function, parser); the function is None for the top level and groups."""
    root = _Parser(prog="braidseq", description=main.__doc__)
    root.set_defaults(_command=(None, root))
    subcommands = {"": root.add_subparsers(metavar="COMMAND", title="commands")}
    for name, (fn, arguments) in _COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in subcommands:
            about = _GROUPS[group]
            parser = subcommands[""].add_parser(group, help=about, description=about)
            parser.set_defaults(_command=(None, parser))
            subcommands[group] = parser.add_subparsers(metavar="COMMAND",
                                                       title="commands")
        doc = fn.__doc__ or ""                  # None under python -OO
        parser = subcommands[group].add_parser(
            leaf, help=doc.partition(".")[0], description=doc)
        for flags, kwargs in arguments:
            parser.add_argument(*flags, **kwargs)
        parser.set_defaults(_command=(fn, parser))
    return root


def main(args: list[str] | None = None):
    """Constructive pseudo-Anosov braid sequences with small normalized
    entropy."""
    params = vars(_parser().parse_args(args))
    fn, parser = params.pop("_command")
    if fn is None:                         # a group without its command
        parser.exit(2, parser.format_help())
    try:
        fn(_Invocation(params), **params)
    except ValueError as exc:              # bad degree, non-pA word, malformed
        parser.error(str(exc))             # blocks or class: a usage error


# perfbench/traced_cli.py calls main.main(args=..., prog_name=...)
main.main = lambda args, prog_name: main(args)


# -- braid ------------------------------------------------------------------

@_command("braid info",
          _arg("--word", required=True, help='letters, e.g. "1 1 -2" or "B3 1 1 -2"'),
          _JSON, _MANIFEST)
def braid_info(inv, word, as_json, manifest):
    """Permutation, fixed points, exponent sum and symmetry verdicts."""
    b = BraidWord.from_text(word)
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
    _emit(inv, "braid info", out, manifest)


@_command("braid linking",
          _arg("--word", required=True),
          _arg("--strand", type=int, required=True))
def braid_linking(inv, word, strand):
    """Per-component linking numbers and the monotonicity verdict."""
    b = BraidWord.from_text(word)
    prof = linking_profile(b, strand)
    rows = [[" ".join(map(str, cyc)), lk] for cyc, lk in prof.components]
    out = _csv_text(["component", "linking_number"], rows)
    out += f"u,{prof.u}\nverdict,{prof.verdict}\nconclusive,{prof.conclusive}"
    _emit(inv, "braid linking", out)


@_command("braid generator",
          _arg("--kind", choices=["delta", "rho", "half_twist", "full_twist"],
               required=True),
          _arg("--n", type=int, required=True),
          _arg("--j", type=int, required=True))
def braid_generator(inv, kind, n, j):
    """Literal word of a named element of B_n."""
    _emit(inv, "braid generator", make_generator(kind, n, j).to_text())


# -- tribraid ---------------------------------------------------------------

@_command("tribraid",
          _arg("--word", required=True, help='pA word over {-1, 2}, e.g. "-1 2 2"'),
          _JSON, _MANIFEST)
def tribraid_cmd(inv, word, as_json, manifest):
    """Exact dilatation of a 3-braid pA word."""
    from .tribraid import exact_dilatation, transition_matrix
    b = BraidWord.from_text(word)
    rows = transition_matrix(b)
    lam = exact_dilatation(b)
    info = {
        "word": b.to_text(),
        "matrix": [list(r) for r in rows],
        "trace": lam.trace,
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
    _emit(inv, "tribraid", out, manifest)


# -- entropy ----------------------------------------------------------------

@_command("entropy",
          _arg("--braid", dest="word", required=True),
          _TOL, _MAX_ITER, _JSON, _MANIFEST)
def entropy_cmd(inv, word, tol, max_iter, as_json, manifest):
    """Entropy estimate log(lambda) and normalized entropy of a braid."""
    b = BraidWord.from_text(word)
    est, ent = _estimate(inv, b, tol, max_iter)
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
    _emit(inv, "entropy", out, manifest)


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


@_command("family",
          _arg("name", choices=CLOSED_FORM + SEEDED),
          _arg("--p", dest="p_range", required=True,
               help="parameter or range, e.g. 1..8"),
          _arg("--seed-blocks", help='blocks like "-1 | -1" for seeded families'),
          _arg("--with-entropy", action="store_true"),
          _TOL, _MAX_ITER, _CSV, _MANIFEST)
def family_cmd(inv, name, p_range, seed_blocks, with_entropy,
               tol, max_iter, csv_path, manifest):
    """Generate family members; optionally with (ent, Ent) columns.  A
    seeded member is a cone class over its seed: z is (p + 1, 1), beta is
    (p + 1, p) and b_p is (1, p)."""
    seed = (StandardForm.from_blocks_text(seed_blocks)
            if seed_blocks is not None else None)
    dynnikov.check_budget(tol, max_iter)   # --manifest records it either way
    header = ["p", "degree", "word"]
    if with_entropy:
        header += ["ent", "Ent", "converged"]
    rows = []
    for p in _parse_range(p_range):
        w = generate(FamilySpec(name, p, seed=seed)).word
        row = [p, w.degree, " ".join(map(str, w.letters))]
        if with_entropy:
            est, ent = _estimate(inv, w, tol, max_iter)
            row += [repr(est.value), repr(ent), est.converged]
        rows.append(row)
    _emit(inv, f"family {name}", _csv_text(header, rows), manifest, csv_path)


# -- cone -------------------------------------------------------------------

def _parse_class(text: str) -> tuple[int, int]:
    try:
        x, y = text.split(",")
        return int(x), int(y)
    except ValueError:
        raise ValueError(f"expected a class like 5,14; got {text!r}")


@_command("cone norm",
          _arg("--n", type=int, required=True),
          _arg("--u", type=int, required=True),
          _arg("--class", dest="cls", required=True, help="x,y"))
def cone_norm(inv, n, u, cls):
    """Thurston norm of a class in the seed's cone."""
    x, y = _parse_class(cls)
    _emit(inv, "cone norm", str(thurston_norm(n, u, x, y)))


@_command("cone table",
          _arg("--seed-blocks", required=True),
          _arg("--xmax", type=_at_least(1), default=4),
          _arg("--ymax", type=_at_least(1), default=4),
          _TOL, _MAX_ITER, _CSV)
def cone_table(inv, seed_blocks, xmax, ymax, tol, max_iter, csv_path):
    """(x, y, norm, ent, Ent) over primitive interior classes."""
    seed = StandardForm.from_blocks_text(seed_blocks)
    rows = []
    for x in range(1, xmax + 1):
        for y in range(1, ymax + 1):
            if math.gcd(x, y) != 1:
                continue
            # class_to_braid asserts norm = degree - 1, so Ent = norm * ent
            est, ent = _estimate(inv, class_to_braid(seed, x, y).to_braid_word(),
                                 tol, max_iter)
            rows.append([x, y, thurston_norm(seed.degree, seed.u, x, y),
                         repr(est.value), repr(ent), est.converged])
    out = _csv_text(["x", "y", "norm", "ent", "Ent", "converged"], rows)
    _emit(inv, "cone table", out, csv_path=csv_path)


@_command("cone braid",
          _arg("--seed-blocks", required=True),
          _arg("--class", dest="cls", required=True, help="x,y"))
def cone_braid(inv, seed_blocks, cls):
    """Monodromy braid word of a primitive cone class."""
    seed = StandardForm.from_blocks_text(seed_blocks)
    x, y = _parse_class(cls)
    _emit(inv, "cone braid", class_to_braid(seed, x, y).to_braid_word().to_text())


# -- prongs -----------------------------------------------------------------

@_command("prongs",
          _arg("--orbit", default="1,0:2,1",
               help="axis:strand orbit classes like 1,0:2,1 or a preset name"),
          _arg("--twist", type=_at_least(0), default=0,
               help="full twists composed onto the orbit"),
          _arg("--class", dest="cls", required=True,
               help='class "x,y"; either coordinate may be the symbol p'),
          _arg("--sweep", help="p=1..10"),
          _arg("--epsilon", type=int, default=1),
          _CSV)
def prongs_cmd(inv, orbit, twist, cls, sweep, epsilon, csv_path):
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
    try:                                   # None stands for the symbol p
        xs, ys = (None if t.strip() == "p" else int(t) for t in cls.split(","))
    except ValueError:
        raise ValueError(f"expected a class like 2,1 or p,1; got {cls!r}") from None
    values = [None]
    if sweep:
        var, _, rng = sweep.partition("=")
        if var.strip() != "p" or not rng or "=" in rng:
            raise ValueError(f"expected --sweep p=LO..HI; got {sweep!r}")
        values = _parse_range(rng)
    rows = []
    for pval in values:
        x = pval if xs is None else xs
        y = pval if ys is None else ys
        if x is None or y is None:
            raise ValueError("class contains p but no --sweep given")
        axis_p, strand_p = foliation.prong_counts(data, epsilon, x, y)
        rows.append([pval if pval is not None else "-", x, y, axis_p, strand_p,
                     foliation.puncture_fill_validity(strand_p)])
    out = _csv_text(["p", "x", "y", "axis_prongs", "strand_prongs", "fill"], rows)
    _emit(inv, "prongs", out, csv_path=csv_path)


# -- spin -------------------------------------------------------------------

@_command("spin check",
          _arg("--family", dest="family_name", choices=["odd", "even"],
               required=True, help="odd = o family vs q1, even = v family vs q0"),
          _arg("--p", type=int, required=True))
def spin_check(inv, family_name, p):
    """Lift the spin family word and verify form preservation."""
    from .spin import lift_braid, preserves_form, q0, q1
    name = "o" if family_name == "odd" else "v"
    member = generate(FamilySpec(name, p))
    lifted = lift_braid(member.companion)
    g = lifted.genus
    word = " ".join(f"t{t}" if t > 0 else f"t{-t}^-1" for t in lifted.letters)
    _emit(inv, "spin check", "\n".join([
        f"family:     {name}_{p} (companion {member.companion.to_text()})",
        f"genus:      {g}",
        f"lift:       {word}",
        f"preserves q0: {preserves_form(lifted, q0(g))}",
        f"preserves q1: {preserves_form(lifted, q1(g))}",
    ]))


@_command("spin lift",
          _arg("--word", required=True))
def spin_lift(inv, word):
    """Lift any braid word and print the q0/q1 verdicts."""
    from .spin import lift_braid, preserves_form, q0, q1
    lifted = lift_braid(BraidWord.from_text(word))
    g = lifted.genus
    _emit(inv, "spin lift", f"genus {g}; preserves q0: {preserves_form(lifted, q0(g))}; "
                            f"preserves q1: {preserves_form(lifted, q1(g))}")


# -- reproduce --------------------------------------------------------------

@_command("reproduce",
          _arg("target", choices=["thm1.1", "thm5.2"]),
          _arg("--pmax", type=_at_least(1), default=8),
          _TOL, _MAX_ITER, _CSV, _MANIFEST)
def reproduce_cmd(inv, target, pmax, tol, max_iter, csv_path, manifest):
    """End-to-end convergence experiments behind the headline sequences."""
    if target == "thm1.1":
        family, seed = "z", None
        column, footer = "abs_error_vs_limit", "# limit 2*log(2+sqrt(3)) = "
        limit = 2 * math.log(2 + math.sqrt(3))
    else:
        family, seed = "beta", StandardForm(3, ((-1,), (-1,)))
        column, footer = "abs_error_vs_Ent_b1", "# Ent(b_1) = "
        b1 = generate(FamilySpec("b_p", 1, seed=seed)).word
        limit = _estimate(inv, b1, tol, max_iter)[1]
    rows: list[list] = []
    for p in range(1, pmax + 1):
        w = generate(FamilySpec(family, p, seed=seed)).word
        est, ent = _estimate(inv, w, tol, max_iter)
        rows.append([p, w.degree, repr(est.value), repr(ent),
                     repr(abs(ent - limit)), est.converged])
    header = ["p", "degree", "ent", "Ent", column, "converged"]
    out = _csv_text(header, rows) + f"{footer}{limit!r}\n"
    _emit(inv, f"reproduce {target}", out, manifest, csv_path)


if __name__ == "__main__":
    main()
