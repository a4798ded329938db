"""Ground-truth price simulation with time-varying drift and volatility.

Prices follow dS = mu(t) S dt + sqrt(v(t)) S dB with deterministic mu
and v, so each interval log-return is exactly Gaussian with mean
int(mu - v/2) dt and variance int(v) dt.  Sampling draws those Gaussians
directly; the only numerical approximation is the quadrature of the two
integrals (composite Simpson, 16 panels per interval), which is exact
for constant and linear specs and accurate far beyond the statistical
noise for sinusoids.

`sample_paths` is the one sampler: it integrates the interval means of
a scenario once per sample size and draws every seed's path from them,
so the paths of one (scenario, n) share their read-only v_bar and
mu_bar.  `generate_path` is its one-seed case.  A path whose prices or
observations leave the float range raises ScenarioError.
`decomposition_diagnostics` splits a path's observations into signal,
shift and noise from that path's own v_bar and mu_bar alone.

The random generator is numpy's default PCG64 seeded explicitly, so
paths are reproducible bit for bit per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import DataError, ScenarioError
from .ioutil import csv_text, float_repr

__all__ = [
    "FuncSpec",
    "Scenario",
    "PathResult",
    "NoiseDecomposition",
    "generate_path",
    "sample_paths",
    "compute_heteroscedasticity",
    "decomposition_diagnostics",
    "parse_scenario_config",
    "format_scenario_config",
    "path_csv_text",
]

_PARAM_COUNTS = {"constant": 1, "linear": 2, "sinusoid": 4}
# the data fields each kind reads; a kind refuses every other field
_FIELDS = dict(dict.fromkeys(_PARAM_COUNTS, ("params",)),
               regime_switch=("levels", "breakpoints"), sum=("terms",))
_QUAD_PANELS = 16
_QUAD_BLOCK = 32768  # intervals per quadrature block, so huge paths stay cheap on memory
# Simpson's weighted sums reach 48 times a node value; scaling by an exact
# power of two keeps them finite up to the float maximum, and changes no
# bit of any result whose scaled values stay normal.
_QUAD_SCALE = 2.0**-6


@dataclass(frozen=True)
class FuncSpec:
    """Descriptor for a deterministic function of time on [0, T].

    Kinds: constant(c); linear(c0, c1); sinusoid(base, amplitude,
    frequency, phase) meaning base + amplitude*sin(2*pi*frequency*t +
    phase); regime_switch(levels, breakpoints) holding levels[i] between
    consecutive breakpoints; sum of non-sum terms.  A kind takes only
    its own fields.  `smoothness_order` states the function's class.
    """

    kind: str
    params: tuple[float, ...] = ()
    levels: tuple[float, ...] = ()
    breakpoints: tuple[float, ...] = ()
    terms: tuple["FuncSpec", ...] = ()

    def __post_init__(self):
        if self.kind not in _FIELDS:
            raise ValueError(f"unknown spec kind {self.kind!r}")
        for name in ("params", "levels", "breakpoints", "terms"):
            if len(getattr(self, name)) and name not in _FIELDS[self.kind]:
                raise ValueError(f"{self.kind} spec takes no {name}")
        if self.kind in _PARAM_COUNTS:
            want = _PARAM_COUNTS[self.kind]
            if len(self.params) != want:
                raise ValueError(f"{self.kind} spec needs {want} params")
            if not all(math.isfinite(p) for p in self.params):
                raise ValueError("spec params must be finite")
        elif self.kind == "regime_switch":
            if len(self.levels) != len(self.breakpoints) + 1:
                raise ValueError("regime_switch needs len(levels) == len(breakpoints)+1")
            if not all(math.isfinite(v) for v in (*self.levels, *self.breakpoints)):
                raise ValueError("regime_switch levels and breakpoints must be finite")
            if any(b2 <= b1 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
                raise ValueError("breakpoints must be strictly increasing")
        elif self.kind == "sum":
            if len(self.terms) < 1:
                raise ValueError("sum spec needs at least one term")
            if any(t.kind == "sum" for t in self.terms):
                raise ValueError("sum specs do not nest")

    def values(self, t: np.ndarray) -> np.ndarray:
        """Evaluate the function at times t (any array shape)."""
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.full_like(t, self.params[0])
        if self.kind == "linear":
            return self.params[0] + self.params[1] * t
        if self.kind == "sinusoid":
            base, amp, freq, phase = self.params
            return base + amp * np.sin(2.0 * math.pi * freq * t + phase)
        if self.kind == "regime_switch":
            idx = np.searchsorted(np.asarray(self.breakpoints), t, side="right")
            return np.asarray(self.levels)[idx]
        out = np.zeros_like(t)
        for term in self.terms:
            out = out + term.values(t)
        return out

    @property
    def smoothness_order(self) -> float:
        """The largest k of the k-times differentiable class the function
        lies in: inf for the smooth kinds, 0 where it jumps (not Lipschitz)."""
        if self.kind == "regime_switch":
            return 0.0
        if self.kind == "sum":
            return min(t.smoothness_order for t in self.terms)
        return math.inf


@dataclass(frozen=True)
class Scenario:
    """Drift and volatility descriptors plus horizon and initial price.

    The volatility and drift specs must be finite and strictly positive;
    both are checked on a dense grid over [0, T].
    """

    mu_spec: FuncSpec
    v_spec: FuncSpec
    horizon_t: float = 1.0
    s0: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.horizon_t) and self.horizon_t > 0.0):
            raise ScenarioError("horizon_t must be positive and finite")
        if not (math.isfinite(self.s0) and self.s0 > 0.0):
            raise ScenarioError("s0 must be positive and finite")
        grid = np.linspace(0.0, self.horizon_t, 2049)
        # a value that overflows is refused below as not finite
        with np.errstate(all="ignore"):
            v = self.v_spec.values(grid)
            mu = self.mu_spec.values(grid)
        if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
            raise ScenarioError("volatility spec must be finite and strictly positive on [0, T]")
        if not np.all(np.isfinite(mu)) or np.any(mu <= 0.0):
            raise ScenarioError("drift spec must be finite and strictly positive on [0, T]")


@dataclass(frozen=True)
class PathResult:
    """One simulated path with its observation series and ground truth."""

    prices: np.ndarray
    xs: np.ndarray
    v_bar: np.ndarray
    mu_bar: np.ndarray
    delta: float
    seed: int


@dataclass(frozen=True)
class NoiseDecomposition:
    """Per-interval split X = v_bar + theta + eta.

    theta is the deterministic O(delta) shift, eta the zero-mean noise,
    sigma_sq its per-interval variance.
    """

    eta: np.ndarray
    theta: np.ndarray
    sigma_sq: np.ndarray


def _interval_means(
    spec: FuncSpec,
    horizon: float,
    n: int,
    require_positive: bool = False,
) -> np.ndarray:
    """Per-interval averages (1/delta) int f dt by composite Simpson."""
    delta = horizon / n
    h = delta / _QUAD_PANELS
    offsets = np.arange(_QUAD_PANELS + 1) * h
    out = np.empty(n)
    for start in range(0, n, _QUAD_BLOCK):
        stop = min(n, start + _QUAD_BLOCK)
        t0 = np.arange(start, stop, dtype=float) * delta
        nodes = t0[:, None] + offsets[None, :]
        y = np.asarray(spec.values(nodes), dtype=float)
        if require_positive and np.any(y <= 0.0):
            bad = int(start + np.argwhere(y <= 0.0)[0][0])
            raise ScenarioError(f"volatility non-positive inside interval {bad}")
        y *= _QUAD_SCALE  # in place: a scaled copy would double the block's memory
        # composite Simpson, the expression scipy.integrate.simpson evaluates
        simpson = np.sum(y[:, 0:-1:2] + 4.0 * y[:, 1::2] + y[:, 2::2], axis=1) * (h / 3.0)
        out[start:stop] = simpson / delta / _QUAD_SCALE
    return out


def sample_paths(scenario: Scenario, n: int, seeds: Iterable[int]) -> Iterator[PathResult]:
    """Yield one price path of n intervals per seed, in the order given.

    The interval means are integrated once and shared, read-only, by
    every path.  Log-return i is drawn as Normal(delta*(mu_bar[i] -
    v_bar[i]/2), delta*v_bar[i]); the observation series is then
    recomputed from the realized prices so it reconstructs exactly.
    Every seed is checked before the first path is drawn.
    """
    if n < 2:
        raise ValueError(f"sample size n must be at least 2, got {n}")
    delta = scenario.horizon_t / n
    if delta == 0.0:
        raise ScenarioError(f"interval length T/n underflows to zero at n = {n}")
    seeds = list(seeds)
    for seed in seeds:
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
    with np.errstate(all="ignore"):
        v_bar = _interval_means(scenario.v_spec, scenario.horizon_t, n, require_positive=True)
        mu_bar = _interval_means(scenario.mu_spec, scenario.horizon_t, n)
        drift = delta * (mu_bar - 0.5 * v_bar)
        scale = np.sqrt(delta * v_bar)
    v_bar.setflags(write=False)
    mu_bar.setflags(write=False)
    log_s0 = math.log(scenario.s0)
    for seed in seeds:
        z = np.random.default_rng(seed).standard_normal(n)
        # an overflow shows as a price or observation out of range, refused below
        with np.errstate(all="ignore"):
            log_prices = log_s0 + np.cumsum(drift + scale * z)
            prices = np.concatenate(([scenario.s0], np.exp(log_prices)))
            _refuse_out_of_range(np.isfinite(prices[1:]) & (prices[1:] > 0.0), "price")
            xs = compute_heteroscedasticity(prices, delta)
            _refuse_out_of_range(np.isfinite(xs), "observation")
        prices.setflags(write=False)
        xs.setflags(write=False)
        yield PathResult(
            prices=prices, xs=xs, v_bar=v_bar, mu_bar=mu_bar, delta=delta, seed=int(seed)
        )


def _refuse_out_of_range(ok: np.ndarray, what: str) -> None:
    """Raise ScenarioError naming the first interval where ok is False."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise ScenarioError(
            f"simulated {what} leaves the float range in interval {int(bad[0])}"
        )


def generate_path(scenario: Scenario, n: int, seed: int) -> PathResult:
    """Sample the price path of n intervals for one seed (see sample_paths)."""
    return next(sample_paths(scenario, n, (seed,)))


def compute_heteroscedasticity(prices, delta: float) -> np.ndarray:
    """Squared log-returns scaled by 1/delta: X_i = ln^2(S_i/S_{i-1})/delta."""
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"delta must be positive and finite, got {delta}")
    p = np.asarray(prices, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise ValueError("need at least two prices")
    bad = np.flatnonzero(~(np.isfinite(p) & (p > 0.0)))
    if bad.size:
        raise DataError(f"non-positive price at index {int(bad[0])}")
    # a ratio or a scaling beyond the float range gives a non-finite X,
    # which run() and sample_paths refuse, naming its index
    with np.errstate(over="ignore", divide="ignore"):
        r = np.log(p[1:] / p[:-1])
        return r * r / delta


def decomposition_diagnostics(path: PathResult) -> NoiseDecomposition:
    """Split a path's observations into signal, deterministic shift and noise.

    Everything is read from the path's own v_bar, mu_bar and delta.
    theta_i = 0.25*delta*(2*mu_bar - v_bar)^2 comes from expanding the
    squared log-return; eta_i = X_i - v_bar - theta_i has mean zero and
    variance sigma_sq_i = delta*v_bar*(2*mu_bar - v_bar)^2 + 2*v_bar^2.
    """
    swing = 2.0 * path.mu_bar - path.v_bar
    theta = 0.25 * path.delta * swing**2
    eta = path.xs - path.v_bar - theta
    sigma_sq = path.delta * path.v_bar * swing**2 + 2.0 * path.v_bar**2
    return NoiseDecomposition(eta=eta, theta=theta, sigma_sq=sigma_sq)


# --- flat key-value scenario configs -----------------------------------------

def _format_spec(prefix: str, spec: FuncSpec, lines: list[str]) -> None:
    lines.append(f"{prefix}.kind = {spec.kind}")
    if spec.kind == "sum":
        lines.append(f"{prefix}.terms = {len(spec.terms)}")
        for i, term in enumerate(spec.terms, start=1):
            _format_spec(f"{prefix}.term{i}", term, lines)
        return
    for name in _FIELDS[spec.kind]:
        lines.append(f"{prefix}.{name} = " + ", ".join(map(float_repr, getattr(spec, name))))


def format_scenario_config(scenario: Scenario) -> str:
    """Serialize a scenario to the flat key-value config format."""
    lines = [
        f"T = {float_repr(scenario.horizon_t)}",
        f"s0 = {float_repr(scenario.s0)}",
    ]
    _format_spec("mu", scenario.mu_spec, lines)
    _format_spec("v", scenario.v_spec, lines)
    return "\n".join(lines) + "\n"


def _floats(text: str, key: str) -> tuple[float, ...]:
    # an empty value is the empty list, as _format_spec writes it; FuncSpec
    # decides whether a field may be empty
    if not text:
        return ()
    try:
        return tuple(float(piece) for piece in text.split(","))
    except ValueError as exc:
        raise DataError(f"bad number list for {key}: {text!r}") from exc


def _take(kv: dict[str, str], key: str, used: set[str]) -> str:
    if key not in kv:
        raise DataError(f"missing config key {key}")
    used.add(key)
    return kv[key]


def _parse_spec(prefix: str, kv: dict[str, str], used: set[str]) -> FuncSpec:
    kind = _take(kv, f"{prefix}.kind", used)
    if kind == "sum":
        count_key = f"{prefix}.terms"
        count_text = _take(kv, count_key, used)
        try:
            count = int(count_text)
        except ValueError as exc:
            raise DataError(f"bad term count for {count_key}: {count_text!r}") from exc
        terms = tuple(
            _parse_spec(f"{prefix}.term{i}", kv, used) for i in range(1, count + 1)
        )
        return FuncSpec(kind=kind, terms=terms)
    if kind not in _FIELDS:
        raise DataError(f"unknown spec kind {kind!r} for {prefix}")
    fields = {}
    for name in _FIELDS[kind]:
        key = f"{prefix}.{name}"
        fields[name] = _floats(_take(kv, key, used), key)
    return FuncSpec(kind=kind, **fields)


def parse_scenario_config(text: str) -> Scenario:
    """Parse the flat key-value config format into a Scenario.

    Lines look like "key = value"; blank lines and #-comments are
    ignored.  Keys: T, s0, mu.* and v.* spec descriptors (see FuncSpec).
    """
    kv: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"config line {line_no}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in kv:
            raise DataError(f"config line {line_no}: duplicate key {key}")
        kv[key] = value
    used: set[str] = set()
    fields: dict[str, float] = {}
    for key, default in (("T", 1.0), ("s0", 1.0)):
        if key in kv:
            used.add(key)
            try:
                fields[key] = float(kv[key])
            except ValueError as exc:
                raise DataError(f"bad value for {key}: {kv[key]!r}") from exc
        else:
            fields[key] = default
    try:
        mu_spec = _parse_spec("mu", kv, used)
        v_spec = _parse_spec("v", kv, used)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    unknown = sorted(set(kv) - used)
    if unknown:
        raise DataError(f"unknown config keys: {', '.join(unknown)}")
    return Scenario(mu_spec=mu_spec, v_spec=v_spec, horizon_t=fields["T"], s0=fields["s0"])


def path_csv_text(path: PathResult) -> str:
    """Render a path as CSV with columns t, price, x, v_bar.

    Row 0 holds the initial price; x and v_bar describe the interval
    ending at t, so they are empty on the first row.  Floats use their
    shortest round-tripping representation.
    """
    t = np.arange(path.xs.size + 1) * path.delta
    header = ("t", "price", "x", "v_bar")
    # rows 1..n are all ndarray columns, which csv_text writes from tolist()
    # without a check per cell; row 0 is written on its own, once
    head = csv_text(header, t[:1], path.prices[:1], [None], [None])
    body = csv_text(header, t[1:], path.prices[1:], path.xs, path.v_bar)
    return head + body.partition("\n")[2]
