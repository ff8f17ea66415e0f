"""Command-line harness: randomized verification suites and point evaluation.

``verify`` runs a named property suite over seeded random instances and
writes a JSON report (byte-identical for identical config and seed).
``eval`` computes a single quantity from a JSON point file, with a
cross-method oracle residual unless suppressed.  The point file, group or
flag-torus, is read and written here only, and every matrix of it is read by
``linalg.matrix_stack_from_json``, the one matrix reader.  ``eval`` pauses the
cycle collector from the read until the decoded file, a tree, is dropped.

Exit codes: 0 pass, 1 check failure, 2 input error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import itertools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np
import orjson

from . import fibers, forms, projectors, sampling, weyl
from .contour import CutCirclePoint
from .errors import EvaluationError, GerbeError, SchemaError
from .linalg import (
    TangentVector,
    UnitaryMatrix,
    _field,
    embed_block,
    embed_tangent,
    matrix_from_json,
    matrix_stack_from_json,
    matrix_to_json,
    random_unitary,
    spectral_decompose,
    tangent_random,
)
from .projectors import classify

DEFAULT_DIM = 4
DEFAULT_SAMPLES = 500
DEFAULT_SEED = 0


@dataclass
class SuiteConfig:
    suite: str
    dim: int = DEFAULT_DIM
    samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED
    tolerances: dict = field(default_factory=dict)


def _max_abs(m) -> float:
    return float(np.max(np.abs(m)))


# ---------------------------------------------------------------------------
# suites: a check table {name: (identity, default tolerance)} and a function
# computing one sample's {name: error}; a check absent from a sample's dict
# was not run on it


_PROJECTORS = {
    "residue-vs-quadrature": (
        "arc projector: eigenprojector sum vs resolvent contour integral",
        1e-10,
    ),
    "projector-algebra": (
        "arc projector idempotent and Hermitian",
        1e-10,
    ),
    "integer-trace": ("trace of the arc projector is an integer", 1e-10),
    "derivative-residue-vs-fd": (
        "projector derivative: residue formula vs central differences",
        1e-6,
    ),
    "derivative-off-diagonal": (
        "P dP P = 0 and dP = P dP (1-P) + (1-P) dP P",
        1e-10,
    ),
    "derivative-sum-zero": (
        "sum of single-eigenvalue projector derivatives vanishes",
        1e-10,
    ),
}


def _projectors(cfg: SuiteConfig, i: int, rng) -> dict:
    g, spec = sampling.well_separated_unitary(cfg.dim, rng)
    ctx = sampling.random_positive_context(spec, rng)
    x = tangent_random(g, rng)

    p_res = projectors.arc_projector(ctx, "residue")
    p_quad = projectors.arc_projector(ctx, "quadrature")
    tr = complex(np.trace(p_res))
    dp = projectors.projector_derivative(ctx, x)
    dp_fd = projectors.projector_derivative(ctx, x, method="fd")
    q = np.eye(cfg.dim) - p_res
    total = sum(
        projectors.single_projector_derivative(spec, k, x)
        for k in range(cfg.dim)
    )
    return {
        "residue-vs-quadrature": _max_abs(p_res - p_quad),
        "projector-algebra": max(
            _max_abs(p_res @ p_res - p_res), _max_abs(p_res - p_res.conj().T)
        ),
        "integer-trace": abs(tr - round(tr.real)),
        "derivative-residue-vs-fd": _max_abs(dp - dp_fd),
        "derivative-off-diagonal": max(
            _max_abs(p_res @ dp @ p_res),
            _max_abs(dp - p_res @ dp @ q - q @ dp @ p_res),
        ),
        "derivative-sum-zero": _max_abs(total),
    }


_CURVATURE = {
    "three-route": (
        "curvature: tr(P dP dP) vs contour quadrature vs residue form",
        1e-8,
    ),
    "projector-insertion": (
        "projector-inserted contour integral equals the curvature",
        1e-9,
    ),
    "torus-directions": ("curvature vanishes on commuting directions", 1e-10),
    "bilinear-antisymmetric": (
        "curvature antisymmetric and bilinear in the tangents",
        1e-10,
    ),
}


def _curvature(cfg: SuiteConfig, i: int, rng) -> dict:
    g, spec = sampling.well_separated_unitary(cfg.dim, rng)
    ctx = sampling.random_positive_context(spec, rng)
    x = tangent_random(g, rng)
    y = tangent_random(g, rng)
    f1 = forms.curvature_via_projectors(ctx, x, y)
    f2 = forms.curvature_via_contour(ctx, x, y, "residue")
    f3 = forms.curvature_via_contour(ctx, x, y, "quadrature")

    # two distinct directions commuting with g: functions of g itself
    gm, gh = spec.matrix, spec.matrix.conj().T
    xc, yc = (TangentVector(g, a / max(1.0, np.linalg.norm(a)))
              for a in (1j * (gm + gh), gm @ gm - gh @ gh))

    s = float(rng.uniform(0.5, 2.0))
    xs = TangentVector(g, s * x.direction)
    return {
        "three-route": max(abs(f1 - f2), abs(f1 - f3), abs(f2 - f3)),
        "projector-insertion": abs(
            forms.projector_inserted_curvature(ctx, x, y) - f2
        ),
        "torus-directions": abs(forms.curvature_via_contour(ctx, xc, yc)),
        "bilinear-antisymmetric": max(
            abs(f2 + forms.curvature_via_contour(ctx, y, x)),
            abs(forms.curvature_via_contour(ctx, xs, y) - s * f2),
        ),
    }


_DELTA_CURVING = {
    "residue-vs-quadrature": (
        "curving: residue closed form vs log-weighted contour quadrature",
        1e-9,
    ),
    "contour-deformation": (
        "curving quadrature unchanged under contour deformation",
        1e-10,
    ),
    "cut-derivative-zero": (
        "derivative of the curving in the cut direction vanishes",
        1e-6,
    ),
    "delta-positive": (
        "difference of curvings across a positive pair equals the curvature",
        1e-8,
    ),
    "delta-null": ("difference of curvings across a null pair vanishes", 1e-8),
    "delta-swap": ("delta of the curving flips sign under cut swap", 1e-10),
}


def _delta_curving(cfg: SuiteConfig, i: int, rng) -> dict:
    g, spec = sampling.well_separated_unitary(cfg.dim, rng)
    x = tangent_random(g, rng)
    y = tangent_random(g, rng)
    ctx = sampling.random_positive_context(spec, rng)
    z1, z2 = ctx.z1, ctx.z2

    f_res = forms.curving_eval(z1, spec, x, y, "residue")
    f_quad = forms.curving_eval(z1, spec, x, y, "quadrature")
    f_quad2 = forms.curving_eval(z1, spec, x, y, "quadrature", rho=0.25)
    delta = forms.delta_pairs(z1, z2, spec, x, y)
    w1, w2 = sampling.random_null_pair(spec, rng)
    return {
        "residue-vs-quadrature": abs(f_res - f_quad),
        "contour-deformation": abs(f_quad - f_quad2),
        "cut-derivative-zero": abs(forms.curving_z_derivative_fd(z1, spec, x, y)),
        "delta-positive": abs(delta - forms.curvature_via_projectors(ctx, x, y)),
        "delta-swap": abs(
            forms.delta_pairs(z2, z1, spec, x, y)
            - forms.curvature_via_projectors(classify(z2, z1, spec), x, y)
        ),
        "delta-null": abs(forms.delta_pairs(w1, w2, spec, x, y)),
    }


_THREE_CURVATURE = {
    "fd-exterior-derivative": (
        "exterior derivative of the curving equals 2 pi i times the "
        "basic three-form",
        1e-4,
    ),
    "raw-vs-simplified": (
        "pulled-back three-curvature: raw two-term sum vs simplified form",
        1e-9,
    ),
    "closed-vs-group": (
        "pulled-back three-curvature matches the group three-form",
        1e-8,
    ),
}


def _three_curvature(cfg: SuiteConfig, i: int, rng) -> dict:
    pt = weyl.sample_regular(cfg.dim, rng)
    tans = [weyl.random_flag_tangent(pt, rng) for _ in range(3)]
    raw = weyl.pullback_nu_closed(pt, *tans)
    g = weyl.weyl_apply(pt)
    omega = forms.three_curvature(g, *(weyl.weyl_tangent(t) for t in tans))
    out = {
        "raw-vs-simplified": abs(raw - weyl.pullback_df_closed(pt, *tans)),
        "closed-vs-group": abs(raw - omega),
    }
    # the nested finite difference runs on the first fifth of the samples
    if i < max(1, cfg.samples // 5):
        gg, spec = sampling.well_separated_unitary(cfg.dim, rng)
        z = sampling.random_cuts(spec, rng, 1)[0]
        xs = [tangent_random(gg, rng) for _ in range(3)]
        d_fd = forms.exterior_derivative_fd(z, spec, *xs)
        out["fd-exterior-derivative"] = abs(d_fd - forms.three_curvature(gg, *xs))
    return out


_WEYL = {
    "preimage-count": (
        "the parametrization has n! preimages over a regular element",
        0.5,
    ),
    "mc-pullback": (
        "pullback of the Maurer-Cartan form matches its closed form",
        1e-10,
    ),
    "pullback-curving": (
        "closed pulled-back curving matches the curving at the image",
        1e-8,
    ),
    "df-closed-vs-raw": (
        "closed exterior-derivative form equals the raw pulled-back "
        "three-curvature",
        1e-9,
    ),
}


def _weyl(cfg: SuiteConfig, i: int, rng) -> dict:
    pt = weyl.sample_regular(cfg.dim, rng)
    g = weyl.weyl_apply(pt)
    tans = [weyl.random_flag_tangent(pt, rng) for _ in range(3)]
    # exact linearization of sum lambda_i P_i: dg = [A, g] + Q diag(dlam) Q^H
    t = tans[0]
    q = pt.frame
    a = q @ t.generator @ q.conj().T
    dg = a @ g.mat - g.mat @ a + (q * t.dlam) @ q.conj().T
    spec = spectral_decompose(g)
    z = sampling.random_cuts(spec, rng, 1)[0]
    closed = weyl.pullback_curving_closed(pt, z, tans[0], tans[1])
    direct = forms.curving_eval(
        z, spec, weyl.weyl_tangent(tans[0]), weyl.weyl_tangent(tans[1])
    )
    return {
        "preimage-count": abs(weyl.preimage_count(spec) - math.factorial(cfg.dim)),
        "mc-pullback": _max_abs(weyl.weyl_tangent(t).ambient - dg),
        "pullback-curving": abs(closed - direct),
        "df-closed-vs-raw": abs(
            weyl.pullback_df_closed(pt, *tans) - weyl.pullback_nu_closed(pt, *tans)
        ),
    }


_EQUIVARIANCE = {
    "projector-conjugation": (
        "arc projector commutes with conjugation of the group element",
        1e-9,
    ),
    "product-conjugation": (
        "fiber conjugation commutes with the gerbe product",
        1e-9,
    ),
    "section-conjugation": (
        "the multiplication section is conjugation invariant",
        1e-9,
    ),
    "fiber-map-products": (
        "the flag-torus fiber map respects gerbe products",
        1e-9,
    ),
}


def _equivariance(cfg: SuiteConfig, i: int, rng) -> dict:
    g, spec = sampling.well_separated_unitary(cfg.dim, rng)
    k = random_unitary(cfg.dim, rng)
    z1, z2, z3 = sampling.descending_cuts(spec, rng, 3)
    gk = g.conjugate_by(k)
    speck = spectral_decompose(gk)
    out = {}

    # z1 > z2 lie in distinct gaps, so (z1, z2) is a positive pair
    p = projectors.arc_projector(classify(z1, z2, spec))
    pk = projectors.arc_projector(classify(z1, z2, speck))
    out["projector-conjugation"] = _max_abs(pk - k.mat @ p @ k.mat.conj().T)

    a = fibers.random_element(classify(z1, z2, spec), rng)
    b = fibers.random_element(classify(z2, z3, spec), rng)
    lhs = fibers.conjugate_fiber(k, fibers.gerbe_product(a, b), speck)
    rhs = fibers.gerbe_product(
        fibers.conjugate_fiber(k, a, speck), fibers.conjugate_fiber(k, b, speck)
    )
    out["product-conjugation"] = fibers.same_element(lhs, rhs)[1]
    sv = fibers.section_value(z1, z2, z3, spec)
    svk = fibers.section_value(z1, z2, z3, speck)
    out["section-conjugation"] = abs(sv - svk)

    pt = weyl.sample_regular(cfg.dim, rng)
    tmat = UnitaryMatrix(np.diag(pt.torus_values))
    tspec = spectral_decompose(tmat)
    w1, w2, w3 = sampling.descending_cuts(tspec, rng, 3)
    av = fibers.random_element(classify(w1, w2, tspec), rng)
    bv = fibers.random_element(classify(w2, w3, tspec), rng)
    gf = random_unitary(cfg.dim, rng)
    tspecf = spectral_decompose(tmat.conjugate_by(gf))
    lhs2 = fibers.weyl_line_map(gf, fibers.gerbe_product(av, bv), tspecf)
    rhs2 = fibers.gerbe_product(
        fibers.weyl_line_map(gf, av, tspecf), fibers.weyl_line_map(gf, bv, tspecf)
    )
    out["fiber-map-products"] = fibers.same_element(lhs2, rhs2)[1]
    return out


_GERBE_AXIOMS = {
    "section-unit-norm": ("the multiplication section has length one", 1e-10),
    "antisymmetry": (
        "section values over argument permutations follow the sign rule",
        1e-9,
    ),
    "associativity": (
        "the gerbe product is associative (the section has trivial delta)",
        1e-9,
    ),
    "norm-multiplicative": ("the gerbe product multiplies norms", 1e-10),
    "swap-pairing": (
        "swap transport pairs to one against the original element",
        1e-9,
    ),
}


def _gerbe_axioms(cfg: SuiteConfig, i: int, rng) -> dict:
    g, spec = sampling.well_separated_unitary(cfg.dim, rng)
    cuts = sampling.descending_cuts(spec, rng, min(4, cfg.dim + 1))
    while len(cuts) < 4:
        w1, w2 = sampling.random_null_pair(spec, rng)
        cuts.extend([w1, w2])
    z1, z2, z3, z4 = cuts[:4]

    sv = fibers.section_value(z1, z2, z3, spec)
    base = fibers.section_value(*sorted([z1, z2, z3], key=lambda c: -c.angle), spec)
    worst = 0.0
    for perm in itertools.permutations([z1, z2, z3]):
        sign = fibers._sorted_desc(list(perm))[1]
        got = fibers.section_value(*perm, spec)
        want = base if sign > 0 else 1.0 / base
        worst = max(worst, abs(got - want))
    out = {
        "section-unit-norm": abs(abs(sv) - 1.0),
        "antisymmetry": worst,
        "associativity": fibers.associativity_check(z1, z2, z3, z4, spec, rng),
    }

    a = fibers.random_element(classify(z1, z2, spec), rng)
    b = fibers.random_element(classify(z2, z3, spec), rng)
    ab = fibers.gerbe_product(a, b)
    out["norm-multiplicative"] = abs(ab.norm - a.norm * b.norm)
    # z1 > z2 lie in distinct gaps, so (z1, z2) is a positive pair
    pairing = fibers.dual_pairing(fibers.swap_transport(a), a)
    out["swap-pairing"] = abs(pairing - 1.0)
    return out


_TRUNCATION = {
    "curvature-invariance": (
        "curvature unchanged under unital block embedding",
        1e-10,
    ),
    "curving-invariance": (
        "curving unchanged under unital block embedding",
        1e-10,
    ),
    "three-form-invariance": (
        "basic three-form unchanged under unital block embedding",
        1e-10,
    ),
    "section-invariance": (
        "section value unchanged under unital block embedding",
        1e-9,
    ),
}


def _truncation(cfg: SuiteConfig, i: int, rng) -> dict:
    g, spec = sampling.well_separated_unitary(cfg.dim, rng)
    ctx = sampling.random_positive_context(spec, rng)
    z1, z2 = ctx.z1, ctx.z2
    x = tangent_random(g, rng)
    y = tangent_random(g, rng)
    w = tangent_random(g, rng)
    big = cfg.dim + int(rng.integers(1, 5))
    ge = embed_block(g, big)
    spece = spectral_decompose(ge)
    xe, ye, we = (embed_tangent(v, big) for v in (x, y, w))
    ctxe = classify(z1, z2, spece)
    z3 = sampling.descending_cuts(spec, rng, 3)[2]
    return {
        "curvature-invariance": abs(
            forms.curvature_via_projectors(ctxe, xe, ye)
            - forms.curvature_via_projectors(ctx, x, y)
        ),
        "curving-invariance": abs(
            forms.curving_eval(z1, spece, xe, ye) - forms.curving_eval(z1, spec, x, y)
        ),
        "three-form-invariance": abs(
            forms.basic_three_form(ge, xe, ye, we) - forms.basic_three_form(g, x, y, w)
        ),
        "section-invariance": abs(
            fibers.section_value(z1, z2, z3, spece)
            - fibers.section_value(z1, z2, z3, spec)
        ),
    }


SUITES = {
    "projectors": (_projectors, _PROJECTORS),
    "curvature-equivalence": (_curvature, _CURVATURE),
    "delta-curving": (_delta_curving, _DELTA_CURVING),
    "three-curvature": (_three_curvature, _THREE_CURVATURE),
    "weyl": (_weyl, _WEYL),
    "equivariance": (_equivariance, _EQUIVARIANCE),
    "gerbe-axioms": (_gerbe_axioms, _GERBE_AXIOMS),
    "truncation": (_truncation, _TRUNCATION),
}


def run_suite(cfg: SuiteConfig) -> dict:
    """Execute a suite and return the report as a JSON-ready dict."""
    if cfg.suite not in SUITES:
        raise ValueError(
            f"unknown suite {cfg.suite!r}; choose from {sorted(SUITES)}"
        )
    if cfg.dim < 1 or cfg.samples < 1:
        raise ValueError("dim and samples must be positive")
    sample, table = SUITES[cfg.suite]
    for name, tol in cfg.tolerances.items():
        if name not in table or not 0.0 <= float(tol) < math.inf:
            raise ValueError(
                f"tolerance {name!r}={tol!r}: needs a check of suite "
                f"{cfg.suite!r} ({', '.join(table)}) and a finite value >= 0"
            )
    errors = {name: [] for name in table}
    for i in range(cfg.samples):
        rng = sampling.sample_rng(cfg.seed, cfg.suite, i)
        for name, err in sample(cfg, i, rng).items():
            errors[name].append(float(err))
    checks = []
    for name, (identity, tol) in table.items():
        tol = float(cfg.tolerances.get(name, tol))
        errs = errors[name]
        # null for a NaN or infinite error: max() can skip a NaN, and
        # json.dumps writes a bare NaN or Infinity, which is not JSON
        finite = all(math.isfinite(e) for e in errs)
        checks.append(
            {
                "name": name,
                "identity": identity,
                "samples": len(errs),
                "max_abs_error": max(errs, default=0.0) if finite else None,
                "mean_abs_error": sum(errs) / max(1, len(errs)) if finite else None,
                "tolerance": tol,
                # a NaN error fails: it is not within any tolerance
                "failures": sum(1 for e in errs if not e <= tol),
            }
        )
    return {
        "suite": cfg.suite,
        "config": {
            "dim": cfg.dim,
            "samples": cfg.samples,
            "seed": cfg.seed,
            "tolerances": dict(sorted(cfg.tolerances.items())),
        },
        "checks": checks,
        "passed": all(c["failures"] == 0 for c in checks),
    }


# ---------------------------------------------------------------------------
# point evaluation: every field of the eval point file, group or flag-torus,
# is read here, and a bad one is reported at its JSON path ("$" is the top)


def _at(path: str, build, *args):
    """``build(*args)``, with a GerbeError it raises reported at ``path``."""
    try:
        return build(*args)
    except GerbeError as exc:
        raise SchemaError(path, str(exc)) from None


def _complex(obj, path: str) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(v, (int, float)) for v in obj)
    ):
        raise SchemaError(path, "expected [re, im]")
    try:
        return complex(obj[0], obj[1])
    except OverflowError:
        raise SchemaError(path, "[re, im] is beyond the double range") from None


def _items(obj, key: str, path: str, parse) -> list:
    """``parse(item, item_path)`` of each item of the non-empty list ``obj[key]``."""
    items = _field(obj, key, path)
    path = f"{path}.{key}"
    if not isinstance(items, (list, tuple)) or not items:
        raise SchemaError(path, "expected a non-empty list")
    return [parse(v, f"{path}[{i}]") for i, v in enumerate(items)]


def _matrices(obj, key: str, path: str) -> np.ndarray:
    """The stack of the matrices listed under ``obj[key]``, all of one size."""
    return matrix_stack_from_json(_items(obj, key, path, lambda *item: item))


def flag_point_from_json(obj, path: str) -> weyl.FlagTorusPoint:
    """Parse {"lambda": [[re, im], ...], "projections": [matrix, ...]}.

    The projections must be a full flag: n rank-one Hermitian projectors of
    U(n) whose unit vectors make a unitary frame.
    """
    lam = np.array(_items(obj, "lambda", path, _complex))
    frame = _at(path, weyl._flag_frame, _matrices(obj, "projections", path))
    return _at(path, weyl.FlagTorusPoint, frame, lam)


def flag_tangent_from_json(pt: weyl.FlagTorusPoint, obj, path: str) -> weyl.FlagTangent:
    """Parse {"dlambda", "dP"} into a tangent at the already parsed ``pt``."""
    dlam = np.array(_items(obj, "dlambda", path, _complex))
    gen = _at(path, weyl._flag_generator, pt.frame, _matrices(obj, "dP", path))
    return _at(path, weyl.FlagTangent, pt, dlam, gen)


def flag_point_to_json(pt: weyl.FlagTorusPoint) -> dict:
    return {
        "lambda": [[v.real, v.imag] for v in pt.torus_values],
        "projections": [matrix_to_json(p) for p in pt.projections],
    }


def flag_tangent_to_json(tan: weyl.FlagTangent) -> dict:
    return {
        "dlambda": [[v.real, v.imag] for v in tan.dlam],
        "dP": [matrix_to_json(p) for p in tan.dP],
    }


# tangents each flag-torus quantity is evaluated on
FLAG_TANGENTS = {"curving": 2, "nu": 3, "df": 3}

# the route of a quantity computed by its closed formula, whatever --method asks
CLOSED_FORM = "closed-form"

# the cross-check route of each route that has one
_ORACLE = {"residue": "quadrature", "quadrature": "residue", "fd": "residue"}


def _flag_tangents(pt: weyl.FlagTorusPoint, obj: dict, quantity: str) -> list:
    """The tangents ``quantity`` is evaluated on, parsed at ``pt``."""
    if quantity not in FLAG_TANGENTS:
        raise SchemaError("$", f"flag-torus input does not support {quantity!r}")
    tans = _items(obj, "tangents", "$", functools.partial(flag_tangent_from_json, pt))
    need = FLAG_TANGENTS[quantity]
    if len(tans) < need:
        raise SchemaError(
            "$.tangents", f"{quantity!r} needs {need} tangents, got {len(tans)}"
        )
    return tans[:need]


def eval_point(obj: dict, quantity: str, method: str, with_oracle: bool) -> dict:
    """Evaluate one quantity at a JSON-described point."""
    record = {"quantity": quantity, "residual_vs_oracle": None}
    # each branch sets the route that ran, the complex value (None for the
    # projector matrix) and, where the quantity has a cross-check, the oracle
    # giving its residual
    value, oracle = None, None

    def cut(key: str) -> CutCirclePoint:
        path = f"$.{key}"
        return _at(path, CutCirclePoint, _complex(_field(obj, key, "$"), path))

    # a flag-torus point has "lambda", or no "g" but a flag field; else a group point
    keys = obj.keys() if isinstance(obj, dict) else set()
    if "lambda" in keys or "g" not in keys and keys & {"projections", "tangents"}:
        pt = flag_point_from_json(obj, "$")
        tans = _flag_tangents(pt, obj, quantity)
        ran = CLOSED_FORM
        if quantity == "curving":
            z = cut("z")
            value = weyl.pullback_curving_closed(pt, z, *tans)

            def oracle():
                spec = spectral_decompose(weyl.weyl_apply(pt))
                xs = (weyl.weyl_tangent(t) for t in tans)
                return abs(value - forms.curving_eval(z, spec, *xs))
        elif quantity == "nu":
            raw = weyl.pullback_nu_closed(pt, *tans)
            value = raw / (2j * math.pi)
            oracle = lambda: abs(raw - weyl.pullback_df_closed(pt, *tans))
        else:
            value = weyl.pullback_df_closed(pt, *tans)
            oracle = lambda: abs(value - weyl.pullback_nu_closed(pt, *tans))
    else:
        g = _at("$.g", UnitaryMatrix, matrix_from_json(_field(obj, "g", "$"), "$.g"))

        def tangent(key: str) -> TangentVector:
            path = f"$.{key}"
            m = matrix_from_json(_field(obj, key, "$"), path)
            return _at(path, TangentVector, g, m)

        route = "quadrature" if method == "quadrature" else "residue"
        if quantity == "projector":
            spec = spectral_decompose(g)
            ctx = classify(cut("z1"), cut("z2"), spec)
            p = projectors.arc_projector(ctx, route)
            ran = route
            record["matrix"] = matrix_to_json(p)
            oracle = lambda: _max_abs(p - projectors.arc_projector(ctx, _ORACLE[route]))
        elif quantity == "section":
            spec = spectral_decompose(g)
            value = fibers.section_value(cut("z1"), cut("z2"), cut("z3"), spec)
            ran = CLOSED_FORM
            oracle = lambda: abs(abs(value) - 1.0)
        elif quantity == "nu":
            value = forms.basic_three_form(g, tangent("X"), tangent("Y"), tangent("Z"))
            ran = CLOSED_FORM
        elif quantity == "df":
            z = cut("z")
            x, y, w = tangent("X"), tangent("Y"), tangent("Z")
            value = forms.exterior_derivative_fd(z, spectral_decompose(g), x, y, w)
            ran = "fd"
            oracle = lambda: abs(value - forms.three_curvature(g, x, y, w))
        elif quantity == "curvature":
            spec = spectral_decompose(g)
            ctx = classify(cut("z1"), cut("z2"), spec)
            x, y = tangent("X"), tangent("Y")
            ran = method
            if method == "fd":
                value = forms.curvature_via_projectors(ctx, x, y, "fd")
            else:
                value = forms.curvature_via_contour(ctx, x, y, method)
            oracle = lambda: abs(
                value - forms.curvature_via_contour(ctx, x, y, _ORACLE[method])
            )
        elif quantity == "curving":
            spec = spectral_decompose(g)
            z, x, y = cut("z"), tangent("X"), tangent("Y")
            value = forms.curving_eval(z, spec, x, y, route)
            ran = route
            oracle = lambda: abs(
                value - forms.curving_eval(z, spec, x, y, _ORACLE[route])
            )
        else:
            raise SchemaError("$", f"unknown quantity {quantity!r}")

    record["method"] = ran
    if value is not None:
        record.update(value_re=value.real, value_im=value.imag)
    if with_oracle and oracle is not None:
        record["residual_vs_oracle"] = oracle()
    # json.dumps would write a bare NaN or Infinity, which is not JSON
    if not all(math.isfinite(v) for v in record.values() if isinstance(v, float)):
        raise EvaluationError(f"{quantity}: the value or its residual is not finite")
    return record


# ---------------------------------------------------------------------------
# entry point


def _decode(data: bytes):
    """The JSON document in ``data``, decoded as ``json.loads`` decodes it.

    orjson gives the same values, floats bit for bit, except that an
    integer beyond 64 bits becomes a float.  What it rejects goes through
    ``json``, which accepts the NaN and Infinity literals, out-of-range
    numbers and lone surrogates that Python's ``json.dumps`` writes.
    """
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError:
        return json.loads(data.decode())


@contextlib.contextmanager
def _collector_paused():
    """The cycle collector off, then back to the caller's setting on any exit."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _parse_tols(pairs: list[str]) -> dict:
    out = {}
    for item in pairs:
        if "=" not in item:
            raise ValueError(f"expected key=value, got {item!r}")
        key, val = item.split("=", 1)
        out[key] = float(val)
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="basicgerbe", description="gerbe identity verification harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a randomized property suite")
    v.add_argument("--suite", required=True, choices=sorted(SUITES))
    v.add_argument("--dim", type=int, default=DEFAULT_DIM)
    v.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    v.add_argument("--seed", type=int, default=DEFAULT_SEED)
    v.add_argument(
        "--tol", action="append", default=[], metavar="NAME=VALUE",
        help="override a check tolerance",
    )
    v.add_argument("--report", default=None, help="write the JSON report here")

    e = sub.add_parser("eval", help="evaluate one quantity at a point")
    e.add_argument("--input", required=True, help="JSON point file")
    e.add_argument(
        "--quantity",
        required=True,
        choices=["curvature", "curving", "nu", "df", "section", "projector"],
    )
    e.add_argument(
        "--method", default="residue", choices=["residue", "quadrature", "fd"]
    )
    e.add_argument("--no-oracle", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "verify":
            cfg = SuiteConfig(
                suite=args.suite,
                dim=args.dim,
                samples=args.samples,
                seed=args.seed,
                tolerances=_parse_tols(args.tol),
            )
            report = run_suite(cfg)
            for c in report["checks"]:
                status = "PASS" if c["failures"] == 0 else "FAIL"
                worst = c["max_abs_error"]
                worst = "non-finite" if worst is None else f"{worst:.3e}"
                print(
                    f"{status} {report['suite']}/{c['name']}: "
                    f"max {worst} tol {c['tolerance']:.0e} "
                    f"({c['samples']} samples, {c['failures']} failures)"
                )
            text = json.dumps(report, indent=2, sort_keys=True) + "\n"
            if args.report:
                with open(args.report, "w") as fh:
                    fh.write(text)
            return 0 if report["passed"] else 1

        with _collector_paused():
            with open(args.input, "rb") as fh:
                obj = _decode(fh.read())
            record = eval_point(obj, args.quantity, args.method, not args.no_oracle)
            del obj
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    except (SchemaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GerbeError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
