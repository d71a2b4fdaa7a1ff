"""Command line surface: parse, dispatch, emit, exit.

Exit codes: 0 everything agrees, 1 a disagreement was found (first
witness goes to stderr), 2 bad usage or unparsable input, 3 a sweep was
asked to enumerate past the size gate without --nightly (the env var
NTO1_NIGHTLY=1 lifts gates the same way).  walsh and lowdeg --degree 4
have no gate: their library caps (2^12 and 343) sit below it.

Output is deterministic: the same arguments and seed produce the same
bytes.  CSV tables start with a '#schema=' comment naming the columns;
JSON is emitted with sorted keys and no whitespace.
"""

import argparse
import json
import os
import random
import re
import sys
from dataclasses import asdict

from .counting import classify, is_n_to_1
from .diagrams import DiagramSpec, random_diagram, transfer, verify_diagram
from .errors import GateExceeded, NTo1Error
from .families import (
    BRANCH_FAMILIES, Q1_VARIANTS, SHIFT_POWER_VARIANTS, branch_case_predicate,
    build_branch_interpolation, build_shift_power, shift_power_poly,
)
from .fields import Field, SubfieldEmbed, _prime_factors, exact_log, field_from_spec
from .lowdeg import quartic_3to1_search
from .polys import Poly, value_table
from .walsh import _transform, char_sum_rows, phi, walsh_zero_table
from . import verify

_GATE = 1 << 13


class UsageError(Exception):
    pass


# -- input parsing ----------------------------------------------------------

def _parse_kv(text, what):
    out = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise UsageError(f"{what}: expected key=value, got {item!r}")
        k, v = item.split("=", 1)
        out[k.strip()] = v.strip()
    return out

def _parse_int(text, what):
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{what}: {text!r} is not an integer")

def _parse_digits(text, p, what):
    """Base-p digits c0:c1:..., or a list of ints as read from JSON; a
    digit outside [0, p) is refused, not reduced mod p as Field does for
    library callers."""
    digits = text if isinstance(text, list) else [_parse_int(c, what) for c in text.split(":")]
    for d in digits:
        if not 0 <= d < p:
            raise UsageError(f"{what}: digit {d} is outside [0, {p})")
    return digits

def _refuse_unknown_keys(kv, keys, what):
    unknown = sorted(kv.keys() - set(keys))
    if unknown:
        raise UsageError(f"{what}: unknown key {unknown[0]!r}; "
                         f"the keys are {', '.join(keys[:-1])} and {keys[-1]}")

def _spec_field(path):
    """The field of a --spec file, checked as --field is: a JSON object
    with int p and m, digit lists in [0, p) for modulus and beta when
    given, and no other key."""
    what = f"--spec {path}"
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise UsageError(f"{what}: {e}")
    if not isinstance(spec, dict):
        raise UsageError(f"{what}: a field spec is a JSON object with keys p, m, modulus and beta")
    _refuse_unknown_keys(spec, ("p", "m", "modulus", "beta"), what)
    for key in ("p", "m"):
        if key not in spec:
            raise UsageError(f"{what}: missing key {key!r}")
        if type(spec[key]) is not int:
            raise UsageError(f"{what}: {key} must be an integer, got {json.dumps(spec[key])}")
    for key in ("modulus", "beta"):
        if key in spec:
            if not (isinstance(spec[key], list) and all(type(c) is int for c in spec[key])):
                raise UsageError(f"{what}: {key} must be a list of digits, got {json.dumps(spec[key])}")
            _parse_digits(spec[key], spec["p"], f"{what} {key}")
    return field_from_spec(spec)

def _build_field(args):
    if getattr(args, "spec", None):
        return _spec_field(args.spec)
    if getattr(args, "field", None):
        kv = _parse_kv(args.field, "--field")
        _refuse_unknown_keys(kv, ("p", "m", "modulus"), "--field")
        if "p" not in kv or "m" not in kv:
            raise UsageError("--field needs p=<prime>,m=<degree>")
        p = _parse_int(kv["p"], "--field p")
        m = _parse_int(kv["m"], "--field m")
        modulus = None
        if "modulus" in kv:
            modulus = _parse_digits(kv["modulus"], p, "--field modulus")
        return Field(p, m, modulus)
    raise UsageError("a field is required: --field p=..,m=.. or --spec file.json")

def _parse_elem(ctx, text, what):
    text = text.strip()
    if ":" in text:
        return ctx.element(_parse_digits(text, ctx.p, what))
    return ctx.check(_parse_int(text, what))

def _parse_poly(ctx, text):
    """Sums of integer-coded monomial terms: '2*x^3 + x + 5', minus allowed."""
    # a '-' right after '^' stays in its term, so x^-1 is reported whole
    src = re.sub(r"(?<!\^)-", "+-", text.replace(" ", ""))
    terms = []
    for tok in src.split("+"):
        if not tok:
            continue
        neg = tok.startswith("-")
        if neg:
            tok = tok[1:]
            if not tok:
                raise UsageError(f"--poly: dangling '-' in {text!r}")
        coeff, exp = 1, 0
        if "x" in tok:
            head, _, tail = tok.partition("x")
            head = head.rstrip("*")
            if head:
                coeff = _parse_int(head, "--poly coefficient")
            if tail:
                if not tail.startswith("^"):
                    raise UsageError(f"--poly: bad term {tok!r}")
                exp = _parse_int(tail[1:], "--poly exponent")
                if exp < 0:
                    raise UsageError(f"--poly: negative exponent in {tok!r}")
            else:
                exp = 1
        else:
            coeff = _parse_int(tok, "--poly coefficient")
        if not 0 <= coeff < ctx.order:  # refused, not reduced mod q
            raise UsageError(f"--poly: coefficient {coeff} is outside [0, {ctx.order})")
        if neg:
            coeff = ctx.neg(coeff)
        terms.append((exp, coeff))
    if not terms:
        raise UsageError(f"--poly: no terms in {text!r}")
    return Poly(ctx, terms)

def _parse_map(ctx, args):
    if getattr(args, "poly", None):
        return _parse_poly(ctx, args.poly)
    if getattr(args, "table", None):
        vals = [_parse_elem(ctx, t, "--table") for t in args.table.split(",")]
        if len(vals) != ctx.order:
            raise UsageError(f"--table needs {ctx.order} values, got {len(vals)}")
        import numpy as np
        return np.asarray(vals, dtype=np.int64)
    raise UsageError("a map is required: --poly or --table")

def _gate(size, args):
    if os.environ.get("NTO1_NIGHTLY") == "1" or getattr(args, "nightly", False):
        return
    if size > _GATE:
        raise GateExceeded(f"{args.command} over {size} elements exceeds the gate {_GATE}; pass --nightly or set NTO1_NIGHTLY=1")


# -- output -----------------------------------------------------------------

def _emit_json(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")

def _emit_csv(schema_id, columns, rows, comments=()):
    w = sys.stdout.write
    w(f"#schema={schema_id}:{columns}\n")
    for line in comments:
        w(f"#{line}\n")
    for row in rows:
        w(",".join("" if v is None else str(v) for v in row) + "\n")

def _elem_str(ctx, x):
    return ":".join(str(d) for d in ctx.coeffs(x))

def _verdict(witness):
    """Exit status after the output: 1 with the witness on stderr, else 0."""
    if witness:
        sys.stderr.write(witness + "\n")
        return 1
    return 0

def _emit_agreement(schema_id, columns, rows, witness, comments=()):
    """agreement rows as CSV with an agree column; exit 1 on a witness."""
    _emit_csv(schema_id, columns + ",agree",
              [row + (int(row[-2] == row[-1]),) for row in rows], comments)
    return _verdict(witness)


# -- subcommands -------------------------------------------------------------

def cmd_field(args):
    ctx = _build_field(args)
    if args.element is not None:
        x = _parse_elem(ctx, args.element, "--element")
        _emit_json({"code": x, "coeffs": list(ctx.coeffs(x)),
                    "order": ctx.element_order(x) if x else 0})
        return 0
    _emit_json(ctx.spec_dict())
    return 0


def cmd_classify(args):
    ctx = _build_field(args)
    _gate(ctx.order, args)
    f = _parse_map(ctx, args)
    rep = classify(f)
    sys.stdout.write(rep.to_json() + "\n")
    return 0


def cmd_walsh(args):
    ctx = _build_field(args)
    f = _parse_map(ctx, args)
    gadget = phi(args.n, ctx.p, ctx.m)
    _, values = value_table(f, ctx)  # one evaluation and one zero table serve every reading
    table = walsh_zero_table(values, ctx)
    cs = char_sum_rows(ctx, _transform(ctx, table[None]), gadget)[0][0]
    verdict = cs == gadget.bound
    brute = is_n_to_1(values, None, gadget.n)
    rows = [(_elem_str(ctx, v),) + tuple(int(c) for c in table[v])
            for v in range(ctx.order)]
    cols = "v," + ",".join(f"c{j}" for j in range(ctx.p))
    _emit_csv("walsh.v1", cols, rows, comments=(
        f"n={gadget.n}",
        f"char_sum={cs.numerator}/{cs.denominator}",
        f"bound={gadget.bound.numerator}/{gadget.bound.denominator}",
        f"verdict={int(verdict)}",
        f"brute={int(brute)}",
    ))
    return _verdict(None if verdict == brute else
                    f"spectral verdict {verdict} but brute force says {brute} at n={gadget.n}")


def cmd_lowdeg(args):
    ctx = _build_field(args)
    if args.degree == 3:
        # the cubic sweep enumerates every (a, b) in characteristic 3
        _gate(ctx.order ** 2 if ctx.p == 3 else ctx.order, args)
        rows, bad = verify.agreement(
            verify.cubic_sweep(ctx),
            lambda a, b: f"a={a} b={b}" if ctx.p == 3 else f"b={b}")
        return _emit_agreement("lowdeg3.v1", "a,b,predicted,brute_force", rows, bad)
    res = quartic_3to1_search(ctx)
    return _emit_agreement(
        "lowdeg4.v1", "a,b,c,predicted,brute_force", [(*hit, 0, 1) for hit in res.hits],
        f"{len(res.hits)} 3-to-1 quartics found, first (a,b,c)={res.hits[0]}" if res.hits else None,
        comments=("exhaustive=1", f"tried={res.tried}"))


def cmd_diagram(args):
    if args.infile:
        _refuse("diagram --in", args, "n", "max_set", "seed")
        try:
            with open(args.infile) as fh:
                d = DiagramSpec.from_json_dict(json.load(fh))
        except (OSError, ValueError) as e:  # a JSONDecodeError is a ValueError
            raise UsageError(f"--in {args.infile}: {e}")
        except KeyError as e:
            raise UsageError(f"--in {args.infile}: missing key {e}")
    else:
        rng = random.Random(verify.SEED if args.seed is None else args.seed)
        d = random_diagram(rng, n=args.n, max_set=100 if args.max_set is None else args.max_set)
    _gate(len(d.A), args)
    rep = verify_diagram(d)
    out = {"spec": d.to_json_dict(), "verified": rep.ok,
           "violations": [v.hypothesis for v in rep.violations]}
    if not rep.ok:
        _emit_json(out)
        return _verdict(f"diagram hypotheses fail: {rep.violations[0].hypothesis}")
    v = transfer(d, rep)
    out["transfer"] = asdict(v)
    _emit_json(out)
    return _verdict(None if v.forward_ok and v.backward_ok else
                    f"transfer fails: forward {v.forward_ok}, backward {v.backward_ok}")


def _refuse(who, args, *names):
    """UsageError naming the first given option of names, which who never reads."""
    for name in names:
        if getattr(args, name, None) is not None:
            raise UsageError(f"{who} takes no --{name.replace('_', '-')}")

def _shift_power_tower(args):
    """The quadratic tower of a shift-power variant over its subfield:
    --field (or --spec) when one is given, else GF(q1) from --q1."""
    _refuse(args.family, args, "r", "values")
    if args.q1 is None and not (args.field or args.spec) and args.family in Q1_VARIANTS:
        raise UsageError(f"{args.family} needs a subfield: --q1 <prime power>, "
                         "--field p=..,m=.. or --spec file.json")
    if args.q1 is None or args.field or args.spec:
        sub = _build_field(args)
    else:
        primes = _prime_factors(args.q1)
        if len(primes) != 1:
            raise UsageError(f"--q1 {args.q1} is not a prime power")
        sub = Field(primes[0], exact_log(args.q1, primes[0]))
    # gated before the tower is built: an embedding needs the big field's log tables
    _gate(sub.order ** 2, args)
    return SubfieldEmbed(Field(sub.p, 2 * sub.m), sub)

def _branch_field(args):
    """A branch family's field, gated, and its number of branches."""
    _refuse(args.family, args, "q1", "delta")
    ctx = _build_field(args)
    _gate(ctx.order, args)
    return ctx, BRANCH_FAMILIES[args.family]

def _emit_construct(family, inst, fields, params, fpoly, pred):
    """One construct record: the built map, its predicate against brute
    force, and the broken hypotheses; exit 1 on a clean disagreement."""
    brute = inst.holds()
    _emit_json({
        "family": family,
        **fields,
        "params": params,
        "f": fpoly.term_pairs(),
        "predicate": pred,
        "brute_force": brute,
        "agree": pred == brute,
        "violations": [v.hypothesis for v in inst.violations],
    })
    # the predicate is only claimed under the hypotheses; a broken one
    # is reported in the JSON, not as a disagreement
    return _verdict(f"{family}: predicate {pred} but brute force {brute}"
                    if inst.ok and pred != brute else None)

def cmd_construct(args):
    family = args.family
    if family in SHIFT_POWER_VARIANTS:
        emb, q1 = _shift_power_tower(args), args.q1
        big = emb.big
        if args.delta is None:
            raise UsageError("construct needs --delta (big-field element)")
        delta = _parse_elem(big, args.delta, "--delta")
        inst = build_shift_power(emb, family, delta, q1=q1)
        return _emit_construct(
            family, inst, {"field": big.spec_dict(), "subfield": emb.sub.spec_dict()},
            {"q1": q1, "delta": list(big.coeffs(delta)), "e": inst.meta["e"], "n": inst.n,
             "trace": list(emb.sub.coeffs(inst.meta["trace"]))},
            shift_power_poly(big, emb.sub.order, inst.meta["e"], delta),
            bool(inst.meta["predicate"]))
    ctx, ell = _branch_field(args)
    r = args.r
    if r is None or args.values is None:
        raise UsageError(f"{family} needs --r and --values")
    values = [_parse_elem(ctx, t, "--values") for t in args.values.split(",")]
    if len(values) != ell:
        raise UsageError(f"{family} takes exactly {ell} branch values")
    inst = build_branch_interpolation(ctx, r, values)
    h, s = inst.meta["h"], inst.meta["s"]
    return _emit_construct(
        family, inst, {"field": ctx.spec_dict()},
        {"r": r, "s": s, "n": ell, "values": [list(ctx.coeffs(v)) for v in values],
         "h": h.term_pairs()},
        Poly(ctx, [(r + s * e, c) for e, c in h.terms]).reduce_exponents(),
        branch_case_predicate(ctx, r, values))


def cmd_sweep(args):
    family = args.family
    if family in SHIFT_POWER_VARIANTS:
        emb = _shift_power_tower(args)
        rows, bad = verify.shift_power_sweep(emb, family, args.q1)
        return _emit_agreement(
            f"sweep-{family}.v1", "trace,delta,predicate,brute",
            [(_elem_str(emb.sub, t), _elem_str(emb.big, d), pred, got)
             for t, d, pred, got in rows],
            bad, comments=(f"positives={sum(row[2] for row in rows)}",))
    ctx, ell = _branch_field(args)
    if args.r is None:
        raise UsageError(f"sweep {family} needs --r")
    # branch_sweep enumerates ell-tuples: of every element at ell = 2, else of ell + 1 classes
    _gate((ctx.order if ell == 2 else ell + 1) ** ell, args)
    rows, bad = verify.agreement(verify.branch_sweep(ctx, args.r, ell),
                                 lambda *values: f"values={values}")
    cols = ",".join(f"v{i}" for i in range(ell)) + ",predicate,brute"
    return _emit_agreement(f"sweep-{family}.v1", cols, rows, bad)


def cmd_verify_theorem(args):
    if args.all:
        if args.field:
            raise UsageError("--all conflicts with --field: --all runs every sweep "
                             "unfiltered; use --field with one theorem id")
        if args.id:
            raise UsageError(f"--all conflicts with the theorem id {args.id!r}: "
                             "--all runs every sweep; give one or the other")
        rows, failures = [], []
        for tid in verify.RUNNERS:
            r = verify.run(tid, seed=args.seed)
            rows.append((tid, len(r.rows), int(r.ok)))
            if not r.ok:
                failures.append(f"{tid}: {r.witness}")
        _emit_csv("verify-all.v1", "id,rows,ok", rows)
        return _verdict("\n".join(failures))
    if not args.id:
        raise UsageError("verify-theorem needs a theorem id or --all")
    q = _build_field(args).order if args.field else None
    try:
        r = verify.run(args.id, seed=args.seed)
    except KeyError as e:
        raise UsageError(str(e.args[0]))
    rows = r.rows
    if q is not None:
        first = r.schema.split(",")[0]
        if first in ("q", "order"):
            rows = [row for row in rows if row[0] == q]
        else:
            raise UsageError(f"{args.id} rows are not keyed by field; drop --field")
    _emit_csv(f"{args.id}.v1", r.schema, rows)
    return _verdict(r.witness)


# -- wiring -----------------------------------------------------------------

def _add_field_opts(p):
    source = p.add_mutually_exclusive_group()
    source.add_argument("--field", help="inline field spec p=<prime>,m=<degree>[,modulus=c0:c1:...]")
    source.add_argument("--spec", help="path to a field spec JSON file")

def _add_gate_opts(p):
    p.add_argument("--nightly", action="store_true",
                   help=f"lift the size gate of {_GATE} elements (NTO1_NIGHTLY=1 does the same)")

def build_parser():
    ap = argparse.ArgumentParser(
        prog="nto1",
        description="exact n-to-1 classification, spectral tests, and construction families over GF(p^m)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="resolve and print a field spec")
    _add_field_opts(p)
    p.add_argument("--element", help="also decode one element (code or c0:c1:...)")
    p.set_defaults(fn=cmd_field)

    p = sub.add_parser("classify", help="brute-force n-to-1 report for a map")
    _add_field_opts(p)
    _add_gate_opts(p)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--poly", help='polynomial like "x^3 + 2*x + 1" (integer-coded coefficients)')
    source.add_argument("--table", help="comma-separated value table over the whole field")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("walsh", help="exact Walsh zero-row table and spectral verdict")
    _add_field_opts(p)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--poly")
    source.add_argument("--table")
    p.add_argument("--n", type=int, default=2, help="the n tested: n | q, or n = 2 (default)")
    p.set_defaults(fn=cmd_walsh)

    p = sub.add_parser("lowdeg", help="cubic criterion sweep or quartic 3-to-1 search")
    _add_field_opts(p)
    _add_gate_opts(p)
    p.add_argument("--degree", type=int, choices=(3, 4), required=True)
    p.set_defaults(fn=cmd_lowdeg)

    p = sub.add_parser("diagram", help="verify a commutative square and its transfer")
    _add_gate_opts(p)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--in", dest="infile", help="diagram JSON file")
    source.add_argument("--random", action="store_true", help="draw a random verified square")
    p.add_argument("--n", type=int)
    p.add_argument("--max-set", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_diagram)

    families = SHIFT_POWER_VARIANTS + tuple(BRANCH_FAMILIES)
    p = sub.add_parser("construct", help="build one family instance and check its predicate")
    p.add_argument("family", choices=families)
    _add_field_opts(p)
    _add_gate_opts(p)
    p.add_argument("--q1", type=int, help="tower variants: the subfield is GF(q1) unless --field gives it")
    p.add_argument("--delta", help="shift element of the big field (code or c0:c1:...)")
    p.add_argument("--r", type=int, help="power exponent for the branch families")
    p.add_argument("--values", help="comma-separated branch values")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("sweep", help="sweep a family over its parameter classes, CSV out")
    p.add_argument("family", choices=families)
    _add_field_opts(p)
    _add_gate_opts(p)
    p.add_argument("--q1", type=int)
    p.add_argument("--r", type=int)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("verify-theorem", help="run the frozen verification sweep for a theorem id")
    p.add_argument("id", nargs="?", help=f"one of: {', '.join(verify.RUNNERS)}")
    p.add_argument("--all", action="store_true", help="run the whole suite")
    p.add_argument("--field", help="restrict emitted rows to one field (p=..,m=..)")
    p.add_argument("--seed", type=int, default=verify.SEED)
    p.set_defaults(fn=cmd_verify_theorem)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        rc = args.fn(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # downstream closed the pipe (e.g. | head): not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except GateExceeded as e:
        sys.stderr.write(f"nto1: {e}\n")
        return 3
    except (UsageError, NTo1Error, ValueError) as e:
        sys.stderr.write(f"nto1: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
