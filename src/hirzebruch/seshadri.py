"""Seshadri-type constants and minimality of non-positive-at-infinity valuations."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cluster import DivisorialValuation, npi_excess, _Stage
from .errors import InvariantBroken, NotBig, NotNPI, NotNefBig


@dataclass(frozen=True)
class BigDivisor:
    """The class ``a F + b M`` on the base surface."""

    a: int
    b: int

    def __post_init__(self):
        if not type(self.a) is type(self.b) is int:  # a bool is refused too
            raise ValueError(f"divisor coordinates must be integers: {self.a!r}, {self.b!r}")

    def is_nef(self) -> bool:
        return self.a >= 0 and self.b >= 0

    def is_big(self, delta: int) -> bool:
        return self.b > 0 and self.a > -delta * self.b


def as_divisor(d) -> BigDivisor:
    if isinstance(d, BigDivisor):
        return d
    a, b = d
    return BigDivisor(a, b)


def _require_npi(val: DivisorialValuation) -> None:
    excess = npi_excess(val)
    if excess < 0:
        sign = "+" if val.is_special else "-"
        raise NotNPI(
            f"not non-positive at infinity: 2*phi_m*phi_f1 {sign} delta*phi_f1^2 = "
            f"{val.last_contact + excess} < beta_bar[-1] = {val.last_contact}"
        )


def _require_big(val: DivisorialValuation, d: BigDivisor) -> None:
    if not d.is_big(val.delta):
        raise NotBig(f"{d.a} F + {d.b} M is not big on the delta={val.delta} surface")


def _require_nef_big(val: DivisorialValuation, d: BigDivisor) -> None:
    if not (d.is_nef() and d.is_big(val.delta)):
        raise NotNefBig(f"{d.a} F + {d.b} M is not nef and big (delta={val.delta})")


def _positive_scale(delta: int, d: BigDivisor) -> Fraction:
    """Coefficient ``b + a/delta`` of ``M`` in the positive part of a non-nef class."""
    return d.b + Fraction(d.a, delta)


def theta(val: DivisorialValuation, d) -> int:
    """The sign invariant steering every breakpoint formula.

    Special valuations: ``a*phi_f1 - b*phi_m``; non-special ones replace the
    section value by its excess over ``delta`` fibers.
    """
    d = as_divisor(d)
    if val.is_special:
        return d.a * val.phi_f1 - d.b * val.phi_m
    return d.a * val.phi_f1 - d.b * (val.phi_m - val.delta * val.phi_f1)


def vol(val: DivisorialValuation, d) -> Fraction:
    """Volume of a big class on the base surface: the self-pairing of its
    positive part."""
    d = as_divisor(d)
    _require_big(val, d)
    if d.is_nef():
        return Fraction(2 * d.a * d.b + d.b * d.b * val.delta)
    scale = _positive_scale(val.delta, d)
    return scale * scale * val.delta


def mu_hat(val: DivisorialValuation, d) -> Fraction:
    """The Seshadri-type constant of the pair, in closed form.

    Special valuations: ``(a + b*delta)*phi_f1 + b*phi_m`` for every big
    class (the fiber-and-section witness stays effective even when ``a`` is
    negative).  Non-special valuations use ``a*phi_f1 + b*phi_m`` on nef
    classes and reduce along the positive part otherwise.
    """
    d = as_divisor(d)
    _require_npi(val)
    _require_big(val, d)
    return _mu_hat(val, d)


def _mu_hat(val: DivisorialValuation | _Stage, d: BigDivisor) -> Fraction:
    """:func:`mu_hat` of a valuation or stage record and a class the caller
    has checked."""
    if val.is_special:
        return Fraction((d.a + d.b * val.delta) * val.phi_f1 + d.b * val.phi_m)
    if d.a >= 0:
        return Fraction(d.a * val.phi_f1 + d.b * val.phi_m)
    return _positive_scale(val.delta, d) * val.phi_m


def lower_bound(val: DivisorialValuation, d) -> tuple[Fraction, Fraction, bool]:
    """Squared comparison ``mu_hat^2 >= vol(D) * beta_bar[-1]``.

    Returns both sides and the verified inequality.  Both sides are
    integers on a nef class, and are then compared as integers.
    """
    d = as_divisor(d)
    mu = mu_hat(val, d)  # refuses a valuation that is not NPI first
    volume = vol(val, d)
    if mu.denominator == volume.denominator == 1:
        mu, volume = mu.numerator, volume.numerator
    mu2, rhs = mu * mu, volume * val.last_contact
    return mu2, rhs, mu2 >= rhs


def is_minimal(val: DivisorialValuation, d) -> bool:
    """Whether the constant attains the volume lower bound for this class.

    On a nef and big class the valuation is checked once, by
    :func:`lower_bound`.
    """
    d = as_divisor(d)
    if not (d.is_nef() and d.is_big(val.delta)):
        _require_npi(val)  # a valuation that is not NPI is refused first
        _require_nef_big(val, d)
    mu2, rhs, holds = lower_bound(val, d)
    result = npi_excess(val) == 0 and theta(val, d) == 0
    if not (holds and (mu2 == rhs) == result):
        raise InvariantBroken(
            "minimality", f"bound {mu2} vs {rhs} contradicts minimality {result}"
        )
    return result


def never_minimal(val: DivisorialValuation) -> bool:
    """Strict inequality form: non-minimal with respect to every big class."""
    _require_npi(val)
    return npi_excess(val) > 0

