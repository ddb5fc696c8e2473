"""Exact spectra, Gibbs states, entropy functionals and model configuration.

Energy levels are exact rationals (`fractions.Fraction`), so level-matching
questions (which joint states share a total energy, which heat values are
equal) are decided by exact arithmetic and never by a floating tolerance.
Populations, temperatures and entropies are ordinary double-precision
floats.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .unitaries import UnitarySpec

__all__ = [
    "ModelError",
    "ConsistencyError",
    "EnumerationCapError",
    "parse_rational",
    "format_rational",
    "Spectrum",
    "ThermalState",
    "gibbs_state",
    "shannon_entropy",
    "kl_divergence",
    "AncillaSpec",
    "ModelConfig",
    "truncated_model",
    "single_collision_model",
]


class ModelError(ValueError):
    """A model document or configuration violates a structural invariant."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""


class EnumerationCapError(RuntimeError):
    """An exact enumeration would exceed the configured path cap."""


def parse_rational(value: object) -> Fraction:
    """Parse an exact energy value.

    Accepts integers, `Fraction` instances and strings like ``"3"`` or
    ``"-7/2"``.  Floats are rejected: they silently stand for binary
    fractions and would break the exactness contract.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ModelError(f"invalid rational {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelError(f"invalid rational {value!r}: {exc}") from None
    raise ModelError(
        f"invalid rational {value!r}: use an integer or a 'num/den' string"
    )


def format_rational(value: Fraction) -> str:
    """Canonical ``"num/den"`` form (denominator written even when 1)."""
    return f"{value.numerator}/{value.denominator}"


def _real_number(value: object, name: str) -> float:
    """``value`` as a float; a bool or a non-number raises a ModelError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ModelError(f"{name} must be a real number, not {value!r}")
    return float(value)


def _integer_at_least(value: object, least: int, name: str) -> int:
    """``value`` as an int of at least ``least``; a bool or a non-integer raises a ModelError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ModelError(f"{name} must be an integer of at least {least}, not {value!r}")
    return int(value)


@dataclass(frozen=True)
class Spectrum:
    """Strictly non-degenerate energy levels, stored sorted ascending."""

    levels: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ModelError("a spectrum needs at least one level")
        ordered = tuple(sorted(self.levels))
        for lo, hi in zip(ordered, ordered[1:]):
            if lo == hi:
                raise ModelError(
                    f"degenerate spectrum: level {format_rational(lo)} appears twice"
                )
        try:  # the ends hold the largest magnitudes
            float(ordered[0]), float(ordered[-1])
        except OverflowError:
            raise ModelError("an energy level is too large for a float") from None
        object.__setattr__(self, "levels", ordered)
        # Spectra key the realization caches, and a Fraction hashes slowly.
        object.__setattr__(self, "_hash", hash((ordered,)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_values(cls, values: Iterable[object]) -> "Spectrum":
        return cls(tuple(parse_rational(v) for v in values))

    @property
    def dim(self) -> int:
        return len(self.levels)

    def as_floats(self) -> np.ndarray:
        return np.array([float(e) for e in self.levels], dtype=float)


@dataclass(frozen=True, eq=False)
class ThermalState:
    """Gibbs populations over a spectrum at inverse temperature beta."""

    beta: float
    populations: np.ndarray
    log_z: float

    def __post_init__(self) -> None:
        self.populations.flags.writeable = False


def gibbs_state(spectrum: Spectrum, beta: float) -> ThermalState:
    """Thermal populations ``exp(-beta*E_j)/Z`` with the log-sum-exp shift.

    beta may be zero (uniform populations) or negative; it only has to be
    finite.  The one-row case of :func:`_gibbs_rows`.
    """
    if not math.isfinite(beta):
        raise ModelError(f"inverse temperature must be finite, got {beta!r}")
    populations, (log_z,) = _gibbs_rows(spectrum, [beta])
    return ThermalState(beta=float(beta), populations=populations[0], log_z=log_z)


def _gibbs_rows(spectrum: Spectrum, betas: Sequence[float]) -> tuple[np.ndarray, list[float]]:
    """Every Gibbs state: the populations at each of ``betas``, a row each, and each ``log Z``."""
    x = -np.array(betas, dtype=float)[:, None] * spectrum.as_floats()
    shift = x.max(axis=1)
    weights = np.exp(x - shift[:, None])
    totals = weights.sum(axis=1)
    log_z = [offset + math.log(total) for offset, total in zip(shift.tolist(), totals.tolist())]
    return weights / totals[:, None], log_z


def _check_probability_vector(populations: Sequence[float]) -> np.ndarray:
    p = np.asarray(populations, dtype=float)
    if p.ndim != 1:
        raise ValueError("expected a one-dimensional probability vector")
    if (p < 0).any():
        raise ValueError("probability vector has a negative entry")
    total = float(p.sum())
    if not abs(total - 1.0) <= 1e-9:  # a NaN entry fails too
        raise ValueError(f"probability vector sums to {total!r}, not 1")
    return p


def shannon_entropy(populations: Sequence[float]) -> float:
    """``-sum p ln p`` in nats, with the convention ``0 ln 0 = 0``."""
    p = _check_probability_vector(populations)
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def kl_divergence(p_post: Sequence[float], p_ref: Sequence[float]) -> float:
    """Relative entropy ``sum p_post (ln p_post - ln p_ref)``, in nats.

    Raises ValueError when p_post puts mass where p_ref has none (the
    divergence would be infinite).
    """
    p = _check_probability_vector(p_post)
    q = _check_probability_vector(p_ref)
    if p.shape != q.shape:
        raise ValueError("distributions must have the same length")
    mask = p > 0
    if (q[mask] <= 0).any():
        raise ValueError("infinite divergence: reference has zero mass on the support")
    value = float((p[mask] * (np.log(p[mask]) - np.log(q[mask]))).sum())
    return max(value, 0.0)


@dataclass(frozen=True)
class AncillaSpec:
    """One ancilla of the chain: its spectrum, temperature and interaction."""

    spectrum: Spectrum
    beta: float
    unitary: "UnitarySpec"


@dataclass(frozen=True)
class ModelConfig:
    """A validated collision chain.

    ``master_seed`` is the single source of randomness: unitary sampling
    derives all of its streams from it, so a config realizes the same
    collision unitaries every time.
    """

    system: Spectrum
    system_beta: float
    ancillas: tuple[AncillaSpec, ...]
    master_seed: int = 0

    def __post_init__(self) -> None:
        ancillas = tuple(self.ancillas)
        if not ancillas:
            raise ModelError("a model needs at least one ancilla")
        if not math.isfinite(self.system_beta):
            raise ModelError("system beta must be finite")
        for anc in ancillas:
            if not math.isfinite(anc.beta):
                raise ModelError("ancilla beta must be finite")
        if not (0 <= self.master_seed < 2**64):
            raise ModelError("master_seed must be an unsigned 64-bit integer")
        # Equal configs share one cached realization, so each beta is held in
        # one form: a float, with -0.0 as 0.0.  Each ancilla's unitary stream
        # tag is pinned to its 1-based position, so sub-models built from a
        # subset of ancillas realize identical blocks.  The constructors cost
        # less than dataclasses.replace.
        object.__setattr__(self, "system_beta", float(self.system_beta) + 0.0)
        resolved = []
        for position, anc in enumerate(ancillas, start=1):
            spec, beta = anc.unitary, float(anc.beta) + 0.0
            if spec.stream_tag is None:
                spec = type(spec)(
                    kind=spec.kind, theta=spec.theta, shift=spec.shift, cycles=spec.cycles,
                    blocks=spec.blocks, stream_tag=position,
                )
            if spec is not anc.unitary or type(anc.beta) is not float or anc.beta == 0.0:  # maybe -0.0
                anc = type(anc)(spectrum=anc.spectrum, beta=beta, unitary=spec)
            resolved.append(anc)
        object.__setattr__(self, "ancillas", tuple(resolved))
        # Configs key the realization caches; the generated hash would walk every ancilla.
        object.__setattr__(self, "_hash", hash((self.system, self.system_beta, self.ancillas, self.master_seed)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # The stored hash holds salted str hashes of this process: a copy is built anew.
        return type(self), (self.system, self.system_beta, self.ancillas, self.master_seed)

    @property
    def n_collisions(self) -> int:
        return len(self.ancillas)

    @property
    def ancilla_betas(self) -> tuple[float, ...]:
        return tuple(anc.beta for anc in self.ancillas)

    @property
    def beta_gaps(self) -> tuple[float, ...]:
        return tuple(anc.beta - self.system_beta for anc in self.ancillas)


def _collision_number(
    i: object, count: int, message: str = "collision index {} out of range 1..{}"
) -> int:
    """``i`` as an int in ``1..count``, else a ValueError of ``message`` with ``i`` and ``count``.

    A bool or a non-integer is never in range; a numpy integer is read as an int.
    """
    try:
        number = operator.index(i)
    except TypeError:
        number = 0
    if isinstance(i, bool) or not 1 <= number <= count:
        raise ValueError(message.format(i, count))
    return number


def truncated_model(model: ModelConfig, n: int) -> ModelConfig:
    """The chain restricted to its first ``n`` collisions."""
    n = _collision_number(n, model.n_collisions, "cannot keep {} of {} collisions")
    return replace(model, ancillas=model.ancillas[:n])


def single_collision_model(model: ModelConfig, i: int) -> ModelConfig:
    """A fresh one-collision chain using ancilla ``i`` (1-based) alone.

    The ancilla keeps its stream tag, so a haar unitary comes out identical
    to the one realized inside the full chain.
    """
    i = _collision_number(i, model.n_collisions)
    return replace(model, ancillas=(model.ancillas[i - 1],))
