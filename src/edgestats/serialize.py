"""Exact-value serialization helpers shared by file formats, JSON reports
and the CLI: rationals travel as "num/den" strings and unbounded integers
as plain decimal strings (``str``), so nothing is ever rounded.

Both text formats, ``.hg`` and ``.mlp``, are read by ``_read_records``
under one set of rules: '#' starts a comment, blank lines are skipped,
the first other line is a header of integers, and every later line is a
record of strictly ascending integer ids, after a label and a colon
where the format has one.  A repeated record is refused, and every
refusal of a line starts with its 1-based number, as "line N: ".
``_read_clean`` reads a clean ``.hg`` text in bulk to the same ids, and
leaves every other text, and every refusal, to ``_read_records``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

__all__ = ["format_rational", "parse_rational"]

Ids = tuple[int, ...]


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


def _read_clean(
    text: str, header: str, check_header: Callable[..., None]
) -> tuple[Ids, list[int]] | None:
    """The header integers and every record's ids, as one flat list in file
    order, of a clean text: no '#', no blank line, and each record line
    holding as many ids as the header's last integer (the .hg rule).

    Tokens are split and converted as ``_read_records`` converts them, so
    a clean text means the same here; any other text, a token that is not
    an integer or a header that ``check_header`` refuses gives None, and
    the caller reads the text with ``_read_records`` instead, which gives
    each refusal its message.  Nothing is checked per record here.
    """
    if "#" in text:
        return None
    lines = text.splitlines()
    try:
        head = tuple(map(int, lines[0].split())) if lines else ()
        if len(head) != len(header.split()):
            return None
        check_header(*head)
    except ValueError:
        return None
    body = lines[1:]
    if set(map(len, map(str.split, body))) - {head[-1]}:
        return None
    from itertools import chain

    try:
        return head, list(map(int, chain.from_iterable(map(str.split, body))))
    except ValueError:
        return None
