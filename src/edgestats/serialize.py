"""Exact-value serialization helpers shared by file formats, JSON reports
and the CLI: rationals travel as "num/den" strings and unbounded integers
as plain decimal strings (``str``), so nothing is ever rounded.

Both text formats, ``.hg`` and ``.mlp``, are read by ``_read_records``
under one set of rules: '#' starts a comment, blank lines are skipped,
the first other line is a header of integers, and every later line is a
record of strictly ascending integer ids, after a label and a colon
where the format has one.  A repeated record is refused, and every
refusal of a line starts with its 1-based number, as "line N: ".
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

__all__ = ["format_rational", "parse_rational"]

Ids = tuple[int, ...]


def _text(x: Fraction | int, form: Callable[[Fraction | int], str] = str) -> str | Fraction | int:
    """``form(x)``, the text a report gives the number x; or, where x has
    more digits than Python converts to text, x itself, which json.dumps
    then refuses and the CLI names by its field (cli._unprintable)."""
    try:
        return form(x)
    except ValueError:
        return x


def format_rational(x: Fraction | int) -> str | Fraction:
    return _text(Fraction(x), lambda f: f"{f.numerator}/{f.denominator}")


def parse_rational(text: str) -> Fraction:
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(int(num.strip()), int(den.strip()))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational literal {text!r}: {exc}") from None


def _read_records(
    text: str,
    header: str,
    check_header: Callable[..., None],
    record: Callable[..., Ids],
    noun: str,
    label: tuple[str, Callable[[str], object]] | None = None,
) -> tuple[Ids, list]:
    """The header integers and the records of a text in a line format,
    the records in file order.

    ``header`` names the header's integers ("<n> <r>"), which go to
    ``check_header``.  ``record(ids, *head)`` checks one record's ids and
    returns them as a canonical tuple; ids not written as that tuple, and
    a repeated one (a duplicate ``noun``), are refused here.  Without a
    ``label`` a record is its ids; with a label (name, parse) it is
    "<name> : <ids>" and reads as (ids, parse(text before the colon)).
    """
    head: Ids | None = None
    seen: set[Ids] = set()
    records: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if head is not None and label is not None:
                if ":" not in line:
                    raise ValueError(f"expected '<{label[0]}> : <ids>', got {line!r}")
                tag, line = line.split(":", 1)
            try:
                ids = tuple(map(int, line.split()))
            except ValueError:
                raise ValueError(f"expected integers, got {line.strip()!r}") from None
            if head is None:
                if len(ids) != len(header.split()):
                    raise ValueError(f"header must be '{header}', got {line!r}")
                check_header(*ids)
                head = ids
                continue
            key = record(ids, *head)
            if key != ids:
                raise ValueError(f"{noun} {ids} is not written strictly ascending")
            if key in seen:
                raise ValueError(f"duplicate {noun} {key}")
            seen.add(key)
            records.append(key if label is None else (key, label[1](tag)))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if head is None:
        raise ValueError(f"empty input: missing '{header}' header line")
    return head, records
