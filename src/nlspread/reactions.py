"""Cooperative reaction models with two equilibria: extinction and a positive state.

A ReactionModel bundles the rate field F, its Jacobian, per-component
dispersal rates d_i (zero for non-dispersing components), an optional
componentwise ceiling, and the positive equilibrium.  Rate fields accept
values of shape (m,) or (m, n) so simulators can evaluate whole windows.

Presets:
  cholera(a, b, c, alpha, beta)   pathogen/host pair with saturating infection
  wnv(a1, a2, b1, b2, e1, e2)     two-population cross-infection with ceilings
  concave(a, b, alpha, beta)      smooth concave cross-activation pair
  custom(...)                     rate expressions parsed from text
"""

from __future__ import annotations

import ast
import inspect
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class ReactionError(ValueError):
    """Invalid reaction model or evaluation request."""


class OutOfCone(ReactionError):
    """Rate fields are defined for componentwise nonnegative states."""


class AboveCeiling(ReactionError):
    """State exceeds the model's componentwise ceiling."""


class NoPositiveRoot(ReactionError):
    """The rate field has no strictly positive equilibrium."""


class NonConvergence(RuntimeError):
    """Root search exhausted its iteration budget."""


class ExpressionError(ReactionError):
    """Rate expression failed to parse or used a disallowed construct."""


class InvalidParameter(ReactionError):
    """A preset parameter is missing, unknown or not positive; ``name`` names it."""

    def __init__(self, message: str, name: str):
        super().__init__(message)
        self.name = name


@dataclass
class ReactionModel:
    name: str
    m: int
    m0: int
    d: np.ndarray
    rate: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray] | None = None
    u_ceiling: np.ndarray | None = None
    _closed_form: Callable[[], np.ndarray] | None = field(default=None, repr=False)
    # facts computed on first use; init=False so that replace() recomputes them
    _u_star: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _lipschitz: float | None = field(default=None, init=False, repr=False, compare=False)
    _drain: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.d = np.asarray(self.d, dtype=float)
        if self.d.shape != (self.m,):
            raise ReactionError(f"d must have one rate per component, got shape {self.d.shape}")
        if not (1 <= self.m0 <= self.m):
            raise ReactionError(f"need 1 <= m0 <= m, got m0={self.m0}, m={self.m}")
        if np.any(self.d[:self.m0] <= 0):
            raise ReactionError("dispersing components need positive rates")
        if np.any(self.d[self.m0:] != 0):
            raise ReactionError("non-dispersing components must have zero rates")
        if self.u_ceiling is not None:
            self.u_ceiling = np.asarray(self.u_ceiling, dtype=float)
            if self.u_ceiling.shape != (self.m,) or np.any(self.u_ceiling <= 0):
                raise ReactionError("u_ceiling must be a positive vector of length m")


def eval_F(model: ReactionModel, u: np.ndarray, validate: bool = True) -> np.ndarray:
    """Evaluate the rate field; shape (m,) or (m, n) in and out."""
    u = np.asarray(u, dtype=float)
    if u.shape[0] != model.m:
        raise ReactionError(f"state has {u.shape[0]} components, model has {model.m}")
    if validate:
        if np.any(u < 0):
            raise OutOfCone("state components must be nonnegative")
        if model.u_ceiling is not None:
            ceil = model.u_ceiling if u.ndim == 1 else model.u_ceiling[:, None]
            if np.any(u > ceil * (1 + 1e-12) + 1e-12):
                raise AboveCeiling("state exceeds the model ceiling")
    return np.asarray(model.rate(u), dtype=float)


def jacobian(model: ReactionModel, u: np.ndarray) -> np.ndarray:
    """Jacobian of the rate field at one state; analytic when available."""
    u = np.asarray(u, dtype=float)
    if u.shape != (model.m,):
        raise ReactionError("jacobian is evaluated at a single state vector")
    if model.jac is not None:
        return np.asarray(model.jac(u), dtype=float)
    return _fd_jacobian(model, u)


def _fd_jacobian(model: ReactionModel, u: np.ndarray) -> np.ndarray:
    """Central differences; where the backward point would leave the cone,
    the one-sided (-3F(u) + 4F(u + h) - F(u + 2h)) / 2h, exact for quadratics."""
    J = np.zeros((model.m, model.m))
    for j in range(model.m):
        step = 1e-6 * max(1.0, abs(u[j]))
        up = u.copy()
        up[j] += step
        fp = eval_F(model, up, validate=False)
        if u[j] - step >= 0.0:
            um = u.copy()
            um[j] -= step
            J[:, j] = (fp - eval_F(model, um, validate=False)) / (up[j] - um[j])
        else:
            up2 = u.copy()
            up2[j] += 2.0 * step
            J[:, j] = (4.0 * fp - 3.0 * eval_F(model, u, validate=False)
                       - eval_F(model, up2, validate=False)) / (2.0 * step)
    return J


# ----------------------------------------------------------------------
# equilibrium

def positive_equilibrium(model: ReactionModel) -> np.ndarray:
    """Strictly positive root of F, cached on the model."""
    if model._u_star is not None:
        return model._u_star.copy()
    if model._closed_form is not None:
        seed = model._closed_form()
        root = _newton(model, seed, iterations=8)
        if root is None:
            root = seed            # closed form already satisfies the tolerance
    else:
        root = _newton_multistart(model)
    if root is None:
        raise NoPositiveRoot(f"no strictly positive equilibrium found for {model.name}")
    resid = float(np.max(np.abs(eval_F(model, root, validate=False))))
    if resid >= 1e-12 * max(1.0, float(np.max(np.abs(root)))):
        raise NonConvergence(f"equilibrium residual {resid} too large for {model.name}")
    model._u_star = root
    return root.copy()


def _newton(model: ReactionModel, seed: np.ndarray, iterations: int = 50) -> np.ndarray | None:
    u = np.asarray(seed, dtype=float).copy()
    for _ in range(iterations):
        f = eval_F(model, u, validate=False)
        if not np.all(np.isfinite(f)):
            return None
        J = jacobian(model, u)
        try:
            delta = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError:
            return None
        u = np.maximum(u + delta, 0.0)       # F is defined on the cone only
        if not np.all(np.isfinite(u)):
            return None
        if np.max(np.abs(delta)) < 1e-14 * max(1.0, float(np.max(np.abs(u)))):
            break
    resid = float(np.max(np.abs(eval_F(model, u, validate=False))))
    if resid < 1e-12 * max(1.0, float(np.max(np.abs(u)))) and np.all(u > 0):
        if model.u_ceiling is not None and np.any(u > model.u_ceiling * (1 + 1e-9)):
            return None
        return u
    return None


def _newton_multistart(model: ReactionModel) -> np.ndarray | None:
    ones = np.ones(model.m)
    seeds = []
    if model.u_ceiling is not None:
        seeds.append(model.u_ceiling / 2.0)
    seeds.extend([0.1 * ones, 1.0 * ones, 10.0 * ones])
    roots = []
    for seed in seeds:
        root = _newton(model, seed)
        if root is not None:
            if not any(np.allclose(root, r, rtol=1e-8, atol=1e-12) for r in roots):
                roots.append(root)
    if not roots:
        return None
    # the componentwise-largest root is the attractor of interest
    return max(roots, key=lambda r: float(np.sum(r)))


# ----------------------------------------------------------------------
# presets

def _positive(kind: str, **params) -> None:
    """Check that each of the preset's parameters, by name, is positive."""
    for name, v in params.items():
        if not v > 0:
            raise InvalidParameter(f"{kind} parameter {name} must be positive", name)


def cholera(a: float, b: float, c: float, alpha: float, beta: float,
            d=(1.0, 1.0)) -> ReactionModel:
    """Pathogen u1 shed by hosts u2; infection saturates in the pathogen level.

    Rates: f1 = -a*u1 + c*u2, f2 = -b*u2 + alpha*u1/(1 + beta*u1).
    Reproduction number: alpha*c/(a*b); a positive equilibrium needs it > 1.
    """
    _positive("cholera", a=a, b=b, c=c, alpha=alpha, beta=beta)

    def rate(u):
        u1, u2 = u[0], u[1]
        return np.stack([-a * u1 + c * u2, -b * u2 + alpha * u1 / (1.0 + beta * u1)])

    def jac(u):
        u1 = u[0]
        return np.array([[-a, c], [alpha / (1.0 + beta * u1) ** 2, -b]])

    def closed_form():
        if alpha * c <= a * b:
            raise NoPositiveRoot(
                f"reproduction number {alpha * c / (a * b):.6g} <= 1: no positive equilibrium")
        u1 = (alpha * c - a * b) / (a * b * beta)
        return np.array([u1, a * u1 / c])

    return ReactionModel(name="cholera", m=2, m0=2, d=d, rate=rate, jac=jac,
                         u_ceiling=None, _closed_form=closed_form)


def wnv(a1: float, a2: float, b1: float, b2: float, e1: float, e2: float,
        d=(1.0, 1.0)) -> ReactionModel:
    """Cross-infection between two capped populations u1 <= e1, u2 <= e2.

    Rates: f1 = a1*(e1 - u1)*u2 - b1*u1, f2 = a2*(e2 - u2)*u1 - b2*u2.
    Reproduction number: sqrt(a1*a2*e1*e2/(b1*b2)); positive equilibrium
    exists exactly when it exceeds 1.
    """
    _positive("wnv", a1=a1, a2=a2, b1=b1, b2=b2, e1=e1, e2=e2)

    def rate(u):
        # the operations of the two formulas above, in their order, written
        # into one buffer; out[0, ...] stays an array view for 1-D states
        u1, u2 = u[0], u[1]
        out = np.empty((2,) + np.shape(u1))
        f1, f2 = out[0, ...], out[1, ...]
        np.subtract(e1, u1, out=f1)
        f1 *= a1
        f1 *= u2
        f1 -= b1 * u1
        np.subtract(e2, u2, out=f2)
        f2 *= a2
        f2 *= u1
        f2 -= b2 * u2
        return out

    def jac(u):
        u1, u2 = u[0], u[1]
        return np.array([[-a1 * u2 - b1, a1 * (e1 - u1)],
                         [a2 * (e2 - u2), -a2 * u1 - b2]])

    def closed_form():
        gap = a1 * a2 * e1 * e2 - b1 * b2
        if gap <= 0:
            r0 = math.sqrt(a1 * a2 * e1 * e2 / (b1 * b2))
            raise NoPositiveRoot(f"reproduction number {r0:.6g} <= 1: no positive equilibrium")
        return np.array([gap / (a1 * a2 * e2 + b1 * a2),
                         gap / (a1 * a2 * e1 + a1 * b2)])

    return ReactionModel(name="wnv", m=2, m0=2, d=d, rate=rate, jac=jac,
                         u_ceiling=np.array([e1, e2]), _closed_form=closed_form)


def concave(a: float, b: float, alpha: float, beta: float, d=(1.0, 1.0)) -> ReactionModel:
    """Mutual activation with concave saturating gains.

    Rates: f1 = -a*u1 + alpha*u2/(1 + u2), f2 = -b*u2 + beta*ln(1 + u1).
    Positive equilibrium needs alpha*beta > a*b.
    """
    _positive("concave", a=a, b=b, alpha=alpha, beta=beta)

    def rate(u):
        u1, u2 = u[0], u[1]
        return np.stack([-a * u1 + alpha * u2 / (1.0 + u2),
                         -b * u2 + beta * np.log1p(u1)])

    def jac(u):
        u1, u2 = u[0], u[1]
        return np.array([[-a, alpha / (1.0 + u2) ** 2],
                         [beta / (1.0 + u1), -b]])

    model = ReactionModel(name="concave", m=2, m0=2, d=d, rate=rate, jac=jac,
                          u_ceiling=None)
    if alpha * beta <= a * b:
        def no_root():
            raise NoPositiveRoot(
                f"gain product {alpha * beta:.6g} <= loss product {a * b:.6g}")
        model._closed_form = no_root
    return model


# ----------------------------------------------------------------------
# custom models from rate expressions

_ALLOWED_FUNCS = {"ln": np.log, "exp": np.exp}
_ALLOWED_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Call, ast.Name,
                  ast.Constant, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow,
                  ast.USub, ast.UAdd, ast.Load)


def compile_rate_expression(expr: str, m: int, params: dict) -> Callable:
    """Compile an arithmetic rate expression over u1..um and named parameters.

    Grammar: + - * / ^ (power), ln(...), exp(...), parentheses, numbers.
    """
    source = expr.replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse rate expression {expr!r}: {exc.msg}") from None
    allowed_names = {f"u{i + 1}" for i in range(m)} | set(params) | set(_ALLOWED_FUNCS)
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ExpressionError(
                f"disallowed construct {type(node).__name__} in rate expression {expr!r}")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_FUNCS:
                raise ExpressionError(f"only ln() and exp() calls are allowed in {expr!r}")
            if len(node.args) != 1 or node.keywords:
                raise ExpressionError(f"{node.func.id}() takes exactly one argument")
        if isinstance(node, ast.Name) and node.id not in allowed_names:
            raise ExpressionError(f"unknown identifier {node.id!r} in rate expression {expr!r}")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ExpressionError(f"only numeric constants are allowed in {expr!r}")
    code = compile(tree, "<rate-expression>", "eval")
    env_const = dict(params)
    env_const.update(_ALLOWED_FUNCS)

    def component_rate(u):
        env = {f"u{i + 1}": u[i] for i in range(m)}
        env.update(env_const)
        return eval(code, {"__builtins__": {}}, env)

    return component_rate


def custom(exprs: list[str], params: dict, m0: int | None = None,
           d=None, u_ceiling=None) -> ReactionModel:
    """Build a model from per-component rate expressions."""
    m = len(exprs)
    if m < 1:
        raise ReactionError("need at least one rate expression")
    if m0 is None:
        m0 = m
    if d is None:
        d = (np.arange(m) < m0).astype(float)
    fns = [compile_rate_expression(e, m, params) for e in exprs]

    def rate(u):
        rows = [np.broadcast_to(np.asarray(fn(u), dtype=float), np.shape(u[0]))
                for fn in fns]
        return np.stack(rows)

    return ReactionModel(name="custom", m=m, m0=m0, d=d, rate=rate, jac=None,
                         u_ceiling=u_ceiling)


_PRESETS = {f.__name__: f for f in (wnv, cholera, concave)}
#: preset name -> its parameter names: the builder's arguments, less ``d``
PRESET_PARAMS = {kind: tuple(p for p in inspect.signature(f).parameters if p != "d")
                 for kind, f in _PRESETS.items()}


def model_from_json(obj: dict) -> ReactionModel:
    """Build a model from a config mapping like {"model": "wnv", "params": {...}}.

    A preset takes exactly the parameters in PRESET_PARAMS, plus an
    optional ``d``; a custom model takes its rate expressions ``f``, the
    ``params`` they name and optional ``m0``, ``d`` and ``u_ceiling``.
    """
    if not isinstance(obj, dict) or "model" not in obj:
        raise ReactionError("model config must be a mapping with a 'model' key")
    kind = obj["model"]
    params = obj.get("params", {})
    if kind == "custom":
        return custom(obj.get("f", []), params, m0=obj.get("m0"), d=obj.get("d"),
                      u_ceiling=obj.get("u_ceiling"))
    if not isinstance(kind, str) or kind not in _PRESETS:
        raise ReactionError(f"unknown model kind {kind!r}")
    need = PRESET_PARAMS[kind]
    for name in (*need, *params):
        if name not in need:
            raise InvalidParameter(f"model {kind!r} takes no parameter {name!r}; "
                                   f"its parameters are {', '.join(need)}", name)
        if name not in params:
            raise InvalidParameter(f"model {kind!r} is missing parameter {name!r}", name)
    rates = {"d": obj["d"]} if "d" in obj else {}
    return _PRESETS[kind](**params, **rates)


# ----------------------------------------------------------------------
# assumption checks

@dataclass(frozen=True)
class CheckResult:
    status: str                  # "pass" | "fail" | "not_checked"
    detail: str
    witness: tuple | None = None


@dataclass(frozen=True)
class AssumptionReport:
    model: str
    n_samples: int
    seed: int
    results: dict

    @property
    def failures(self) -> list[str]:
        return [k for k, v in self.results.items() if v.status == "fail"]

    @property
    def passed_all_static(self) -> bool:
        return not self.failures


#: check name -> short description of the structural property probed
ASSUMPTION_CHECKS = {
    "equilibrium_structure": "rate field vanishes at 0 and at a strictly positive state",
    "cooperative_offdiagonal": "off-diagonal Jacobian entries nonnegative on the box",
    "irreducible_unstable_origin": "Jacobian at 0 irreducible with positive principal eigenvalue",
    "diffusing_drives_nondiffusing": "dispersing components strictly drive the others",
    "subhomogeneous": "F(k*u) dominates k*F(u) for 0 < k < 1",
    "equilibrium_stability": "Jacobian at the positive state invertible and dissipative",
    "ode_attraction": "space-free orbits attracted to the positive state (dynamic)",
    "whole_line_attraction": "spatially uniform attraction on the line (dynamic)",
    "positive_ray_drift": "strict drift toward the positive state along its ray",
}


def _box_lattice(hi: np.ndarray, k: int) -> np.ndarray:
    """k points per axis on the box [0, hi], its 2^m corners included; shape (m, k^m)."""
    axes = np.meshgrid(*(np.linspace(0.0, 1.0, k) * v for v in hi), indexing="ij")
    return np.stack(axes).reshape(len(hi), -1)


def _state_box(model: ReactionModel, u_star: np.ndarray | None) -> np.ndarray:
    """Upper corner of the sampled state box: the ceiling, else 2 u*, else ones."""
    return model.u_ceiling if model.u_ceiling is not None else (
        2.0 * u_star if u_star is not None else np.ones(model.m))


def _strongly_connected(A: np.ndarray, tol: float) -> bool:
    """Whether the pattern |A| > tol is irreducible: every node reaches every other.

    Each squaring of R = (|A| > tol) | I doubles the path length R
    covers, so ceil(log2 m) squarings cover the m - 1 steps of every path.
    """
    reach = (np.abs(A) > tol) | np.eye(A.shape[0], dtype=bool)
    for _ in range((A.shape[0] - 1).bit_length()):
        reach = reach @ reach
    return bool(reach.all())


def verify_assumptions(model: ReactionModel, n_samples: int = 256,
                       seed: int = 0) -> AssumptionReport:
    """Sampled structural checks of the cooperative monostable assumptions.

    Static properties are probed on a lattice of the state box, corners
    included, with ceil(n_samples^(1/m)) points per axis; ``seed`` draws
    the subhomogeneity factors.  Dynamical properties are reported as
    not_checked.  Sampling can only refute, never prove; a pass means no
    witness was found.
    """
    results: dict[str, CheckResult] = {}
    u_star = None
    star_err = None
    try:
        u_star = positive_equilibrium(model)
    except (NoPositiveRoot, NonConvergence) as exc:
        star_err = str(exc)

    k = max(2, math.ceil(n_samples ** (1.0 / model.m) - 1e-9))    # 3125 ** (1/5) > 5
    box = _box_lattice(_state_box(model, u_star), k)
    f0 = eval_F(model, np.zeros(model.m), validate=False)
    f_scale = max(float(np.max(np.abs(eval_F(model, box, validate=False)))), 1e-300)
    tol = 1e-9 * f_scale

    # --- roots at 0 and at a positive state
    if np.max(np.abs(f0)) > tol:
        results["equilibrium_structure"] = CheckResult(
            "fail", f"rate at the origin has magnitude {np.max(np.abs(f0)):.3e}")
    elif u_star is None:
        results["equilibrium_structure"] = CheckResult("fail", star_err or "no positive root")
    else:
        results["equilibrium_structure"] = CheckResult(
            "pass", f"origin root exact; positive root at {np.array2string(u_star, precision=6)} "
                    "(absence of further interior roots not established by sampling)")

    # --- off-diagonal cooperation
    jac_samples = [jacobian(model, u) for u in box.T]
    jscale = max(max(float(np.max(np.abs(J))) for J in jac_samples), 1e-300)
    coop_witness = None
    for u, J in zip(box.T, jac_samples):
        off = J - np.diag(np.diag(J))
        if np.min(off) < -1e-9 * jscale:
            coop_witness = (u, float(np.min(off)))
            break
    if coop_witness is None:
        results["cooperative_offdiagonal"] = CheckResult(
            "pass", f"{len(jac_samples)} Jacobian samples, all off-diagonal entries >= 0")
    else:
        results["cooperative_offdiagonal"] = CheckResult(
            "fail", f"off-diagonal entry {coop_witness[1]:.3e} at a sampled state",
            witness=(coop_witness[0].tolist(),))

    # --- irreducible, unstable origin
    J0 = jacobian(model, np.zeros(model.m))
    irreducible = _strongly_connected(J0, 1e-12 * max(1.0, float(np.max(np.abs(J0)))))
    lam0 = float(np.max(np.linalg.eigvals(J0).real))
    if irreducible and lam0 > 0:
        results["irreducible_unstable_origin"] = CheckResult(
            "pass", f"principal eigenvalue at origin {lam0:.6g} > 0, pattern irreducible")
    else:
        results["irreducible_unstable_origin"] = CheckResult(
            "fail", f"irreducible={irreducible}, principal eigenvalue {lam0:.6g}")

    # --- dispersing components drive the others
    if model.m0 == model.m:
        results["diffusing_drives_nondiffusing"] = CheckResult(
            "not_checked", "every component disperses; nothing to check")
    elif u_star is None:
        results["diffusing_drives_nondiffusing"] = CheckResult(
            "not_checked", "needs the positive state, which was not found")
    else:
        seg = np.linspace(0.0, 1.0, 33)[None, :] * u_star[:, None]
        bad = None
        for u in seg.T:      # from the origin out; the first weak coupling is the witness
            coupling = jacobian(model, u)[model.m0:, :model.m0]
            weak = np.argwhere(coupling <= 1e-9 * jscale)
            if weak.size:
                i, j = weak[0]
                # components counted from 1, as in every other message
                bad = (u, model.m0 + int(i) + 1, int(j) + 1, float(coupling[i, j]))
                break
        if bad is None:
            results["diffusing_drives_nondiffusing"] = CheckResult(
                "pass", "strictly positive coupling on the equilibrium segment")
        else:
            results["diffusing_drives_nondiffusing"] = CheckResult(
                "fail", f"coupling ({bad[1]},{bad[2]}) = {bad[3]:.3e} not strictly positive "
                        "at a state on the equilibrium segment", witness=(bad[0].tolist(),))

    # --- subhomogeneity
    rng = np.random.default_rng(seed + 1)
    ks = rng.uniform(0.02, 0.98, size=box.shape[1])
    fu = eval_F(model, box, validate=False)
    fku = eval_F(model, box * ks[None, :], validate=False)
    gap = fku - ks[None, :] * fu
    worst = float(np.min(gap))
    if worst >= -tol:
        results["subhomogeneous"] = CheckResult(
            "pass", f"min of F(k*u) - k*F(u) over {box.shape[1]} samples: {worst:.3e}")
    else:
        idx = np.unravel_index(np.argmin(gap), gap.shape)
        results["subhomogeneous"] = CheckResult(
            "fail", f"F(k*u) - k*F(u) = {worst:.3e} at k={ks[idx[1]]:.4f}",
            witness=(box[:, idx[1]].tolist(), float(ks[idx[1]])))

    # --- stability structure at the positive state
    if u_star is None:
        results["equilibrium_stability"] = CheckResult(
            "not_checked", "needs the positive state, which was not found")
    else:
        Jstar = jacobian(model, u_star)
        det = float(np.linalg.det(Jstar))
        invertible = abs(det) > 1e-12 * max(1.0, float(np.max(np.abs(Jstar))) ** model.m)
        right = Jstar @ u_star
        msgs = [f"det={det:.6g}", f"J(u*)u*={np.array2string(right, precision=4)}"]
        strict = right < -tol
        near_zero = np.abs(right) <= tol
        rows_ok = True
        affine_components = []
        for i in range(model.m):
            if strict[i]:
                continue
            if near_zero[i]:
                # a vanishing row sum is admissible when the rate is affine
                # near u*; probe with a midpoint test on [0.9 u*, u*]
                pts = [0.9, 0.95, 1.0]
                vals = [float(eval_F(model, t * u_star, validate=False)[i]) for t in pts]
                if abs(vals[1] - 0.5 * (vals[0] + vals[2])) <= tol:
                    affine_components.append(i)
                    continue
            rows_ok = False
            msgs.append(f"component {i}: J(u*)u* = {right[i]:.3e}")
        if invertible and rows_ok:
            note = (f"; components {affine_components} on the affine branch"
                    if affine_components else "")
            results["equilibrium_stability"] = CheckResult("pass", "; ".join(msgs) + note)
        else:
            results["equilibrium_stability"] = CheckResult("fail", "; ".join(msgs))

    # --- dynamic properties are out of scope for static sampling
    results["ode_attraction"] = CheckResult(
        "not_checked", "verified dynamically by simulation, not by static sampling")
    results["whole_line_attraction"] = CheckResult(
        "not_checked", "verified dynamically by simulation, not by static sampling")

    # --- strict drift along the equilibrium ray
    if u_star is None:
        results["positive_ray_drift"] = CheckResult(
            "not_checked", "needs the positive state, which was not found")
    else:
        J0u = J0 @ u_star
        Jsu = jacobian(model, u_star) @ u_star
        etas = np.linspace(0.02, 0.98, 49)
        ray = eval_F(model, etas[None, :] * u_star[:, None], validate=False)
        ray_min = float(np.min(ray))
        ok = bool(np.all(J0u > tol) and np.all(Jsu < -tol) and ray_min > tol)
        detail = (f"J(0)u* = {np.array2string(J0u, precision=4)}, "
                  f"J(u*)u* = {np.array2string(Jsu, precision=4)}, "
                  f"min rate on the open ray = {ray_min:.3e}")
        if ok:
            results["positive_ray_drift"] = CheckResult("pass", detail)
        else:
            eta_idx = int(np.argmin(np.min(ray, axis=0)))
            results["positive_ray_drift"] = CheckResult(
                "fail", detail, witness=(float(etas[eta_idx]),))

    return AssumptionReport(model=model.name, n_samples=box.shape[1], seed=seed,
                            results=results)


def lipschitz_bound(model: ReactionModel) -> float:
    """1.5 x the largest row sum of |J| on the state box, cached on the model.

    Read on the lattice of ``diagonal_drain``: exact when every |J_ij| is
    monotone in each u_k, as for the presets, since the lattice holds the
    corners; otherwise a sample, and the 1.5 pad covers what it misses.
    """
    if model._lipschitz is None:
        u_star = None
        try:
            u_star = positive_equilibrium(model)
        except (NoPositiveRoot, NonConvergence):
            pass
        lattice = _box_lattice(_state_box(model, u_star), 9 if model.m <= 3 else 3)
        model._lipschitz = 1.5 * max(float(np.max(np.sum(np.abs(jacobian(model, u)), axis=1)))
                                     for u in lattice.T)
    return model._lipschitz


def diagonal_drain(model: ReactionModel) -> float:
    """D = max of (-dF_i/du_i)^+ over the box [0, u*], cached on the model.

    A step dtau keeps u + dtau F(u) order preserving on the box exactly
    when dtau D <= 1: the off-diagonal entries are cooperative, so only
    the diagonal can turn an increase of u_i into a decrease.  D is read
    on a lattice of the box, 9 points per axis for up to three
    components and 3 beyond; the lattice holds the 2^m corners, and
    rounding is monotone, so D is exact whenever each diagonal entry is
    monotone in every u_j, as the constant or affine diagonals of the
    presets are.  For other models it is a sample.
    """
    if model._drain is None:
        lattice = _box_lattice(positive_equilibrium(model), 9 if model.m <= 3 else 3)
        model._drain = max(0.0, *(float(np.max(-np.diag(jacobian(model, u))))
                                  for u in lattice.T))
    return model._drain
