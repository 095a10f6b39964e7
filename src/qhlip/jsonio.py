"""JSON views of verdicts, certificates, reports and the CLI's documents.

This is the only module that knows the output's JSON format (bar the CLI's
error object on stderr): one function here builds each stdout document.
All dictionaries are built in a fixed key order and rationals rendered as
exact strings, so serialized output is byte-deterministic for fixed inputs.
"""

from __future__ import annotations

from fractions import Fraction

from .lipclass import CritData, Pairing1D, Verdict1D
from .polyalg import BiPoly, UniPoly
from .qhdecide import (
    BetaInference,
    Certificate,
    CxdTrace,
    NecessityCondition,
    NEReason,
    PairingFailure,
    QHPoly,
    UnknownKind,
    Verdict2D,
    VerdictKind,
)
from .realalg import RealAlg
from .witness import VerificationReport
from .zygothety import Affine, BranchMap, Compose, Neg, NegConj, PLMap, Zygothety


def alg_json(a: RealAlg) -> dict:
    if a.is_rational:
        return {"rational": str(a.lo), "approx": a.to_float()}
    return {
        "defpoly": [str(c) for c in a.defpoly.coeffs],
        "interval": [str(a.lo), str(a.hi)],
        "approx": a.to_float(),
    }


def map_json(m: PLMap) -> dict:
    """A line map as a tagged tree: affine | branch | neg | neg_conj | compose."""
    if isinstance(m, Affine):
        return {"kind": "affine", "a": str(m.a), "b": str(m.b)}
    if isinstance(m, BranchMap):
        return {
            "kind": "branch",
            "c": alg_json(m.c),
            "orientation": "increasing" if m.increasing else "decreasing",
            "f": [str(c) for c in m.f.coeffs],
            "g": [str(c) for c in m.g.coeffs],
            "crits_f": [alg_json(x) for x in m.crits_f],
            "crits_g": [alg_json(x) for x in m.crits_g],
        }
    if isinstance(m, Neg):
        return {"kind": "neg", "inner": map_json(m.inner)}
    if isinstance(m, NegConj):
        return {"kind": "neg_conj", "inner": map_json(m.inner)}
    if isinstance(m, Compose):
        return {"kind": "compose", "outer": map_json(m.outer), "inner": map_json(m.inner)}
    raise TypeError(f"no JSON form for {type(m).__name__}")


def zygothety_json(z: Zygothety) -> dict:
    return {
        "lambda1": alg_json(z.lam1),
        "lambda2": alg_json(z.lam2),
        "phi1": map_json(z.phi1),
        "phi2": map_json(z.phi2),
    }


def _sign_str(lambda_sign: int) -> str:
    return "+" if lambda_sign > 0 else "-"


def pairing_json(p: Pairing1D) -> dict:
    return {
        "orientation": p.orientation.value,
        "c": alg_json(p.c_set.c) if p.c_set.is_unique else "any_positive",
    }


def certificate_json(cert: Certificate) -> dict:
    trace = cert.pairing_trace
    if isinstance(trace, CxdTrace):
        trace_json = {"map": "x -> (a/b)^(1/d) * x, y -> y", "a": str(trace.a), "b": str(trace.b)}
    else:
        trace_json = {
            "lambda_sign": _sign_str(trace.lambda_sign),
            "plus_side": pairing_json(trace.plus),
            "minus_side": pairing_json(trace.minus),
        }
    return {
        "theorem": cert.theorem_tag.value,
        "zygothety": zygothety_json(cert.zygothety),
        "pairing_trace": trace_json,
    }


def verdict1_json(v: Verdict1D) -> dict:
    out: dict = {"verdict": "Equivalent" if v.equivalent else "NotEquivalent"}
    if v.equivalent:
        out["pairings"] = [pairing_json(p) for p in v.pairings]
    else:
        out["reason"] = v.reason.value
    return out


def _necessity_json(cond: NecessityCondition) -> dict:
    out: dict = {"condition": cond.condition, "zero_side": cond.zero_side, "zeros": list(cond.zeros)}
    if cond.condition == "a":
        out["x_free_side"] = "G" if cond.zero_side == "F" else "F"
    return out


def _symbol_json(data: CritData) -> dict:
    return {"values": [alg_json(v) for v in data.values], "mults": list(data.mults)}


def _failure_json(failure: PairingFailure) -> dict:
    sides = (("plus_side", failure.plus), ("minus_side", failure.minus))
    out: dict = {"lambda_sign": _sign_str(failure.lambda_sign)}
    for tag, v in sides:
        out[tag] = "Equivalent" if v.equivalent else v.reason.value
    for tag, v in sides:
        if v.symbols is not None:
            left, right = v.symbols
            out[tag + "_symbols"] = {"left": _symbol_json(left), "right": _symbol_json(right)}
    return out


_VERDICT_NAMES = {
    VerdictKind.EQUIVALENT: "Equivalent",
    VerdictKind.NOT_EQUIVALENT: "NotEquivalent",
    VerdictKind.UNKNOWN: "Unknown",
}

#: the fixed sentence printed as the detail of each Unknown reason
_UNKNOWN_DETAILS = {
    UnknownKind.MIXED_CXD_CASE: "exactly one polynomial is a pure X-power; the necessity "
        "theorem needs real zeros of the height functions",
    UnknownKind.NECESSITY_CONDITIONS_UNAVAILABLE: "heights are not pairable but no quoted zero condition applies",
    UnknownKind.SUFFICIENCY_GAP: "r odd, s even, X and Y divide the polynomials, every height has "
        "two or more critical points, and the pairings force distinct constants",
}


def verdict2_json(v: Verdict2D) -> dict:
    out: dict = {"verdict": _VERDICT_NAMES[v.kind]}
    if v.certificate is not None:
        out["certificate"] = certificate_json(v.certificate)
    if isinstance(v.reason, NEReason):
        out["reason"] = {
            "kind": v.reason.kind.value,
            "necessity_conditions": [_necessity_json(c) for c in v.reason.necessity],
            "pairing_failures": [_failure_json(f) for f in v.reason.pairing_failures],
        }
    elif isinstance(v.reason, UnknownKind):
        out["reason"] = {"kind": v.reason.value, "detail": _UNKNOWN_DETAILS[v.reason]}
    return out


def report_json(rep: VerificationReport) -> dict:
    keys = ("lambda_est", "k_est", "alpha_tail_max", "shell_1e4", "shell_1e6")
    return {
        "max_rel_residual": rep.max_rel_residual,
        "tol": rep.tol,
        "conjugacy_pass": rep.conjugacy_pass,
        "lipschitz_ratio_min": rep.lipschitz_ratio_min,
        "lipschitz_ratio_max": rep.lipschitz_ratio_max,
        "asymptotic": dict(zip(keys, rep.asymptotic)),
        "samples": rep.samples,
        "delta": rep.delta,
    }


def classify1_json(f: UniPoly, g: UniPoly, v: Verdict1D) -> dict:
    return {"f": str(f), "g": str(g), **verdict1_json(v)}


def classify2_json(F: QHPoly, G: QHPoly, v: Verdict2D, report: VerificationReport | None = None) -> dict:
    """classify2's document; witness's, with the report of its float check."""
    out = {"F": str(F.poly), "G": str(G.poly), "beta": f"{F.r}/{F.s}", "degree": F.d, **verdict2_json(v)}
    if report is not None:
        out["report"] = report_json(report)
    return out


def scan_json(family: str, param: str, values: list[Fraction], partition: list[list[int]], unknown_pairs) -> dict:
    """scan's document; partition and unknown_pairs hold indices into values."""
    values, unknown = [str(v) for v in values], [list(p) for p in unknown_pairs]
    return {"family": family, "param": param, "values": values, "partition": partition, "unknown_pairs": unknown}


def infer_beta_json(F: BiPoly, inference: BetaInference) -> dict:
    matches = [{"beta": f"{q.r}/{q.s}", "degree": q.d} for q in inference.matches]
    return {"F": str(F), "matches": matches, "ambiguous": inference.ambiguous}
