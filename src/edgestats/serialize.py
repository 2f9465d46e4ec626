"""Exact-value serialization helpers shared by file formats, JSON reports
and the CLI: rationals travel as "num/den" strings and unbounded integers
as plain decimal strings (``str``), so nothing is ever rounded."""

from __future__ import annotations

from fractions import Fraction

__all__ = ["format_rational", "parse_rational"]


def format_rational(x: Fraction | int) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def parse_rational(text: str) -> Fraction:
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(int(num.strip()), int(den.strip()))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational literal {text!r}: {exc}") from None

