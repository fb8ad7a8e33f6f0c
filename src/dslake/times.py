"""Text of times, durations and numbers shared by the file formats.

Python 3.10's ``fromisoformat`` rejects the trailing ``Z``, so parsing is
done by hand here. All datetimes in the package are timezone-aware UTC.
"""

from __future__ import annotations

from datetime import datetime, timezone

UTC = timezone.utc


def parse_utc(text: str) -> datetime:
    """Parse an ISO-8601 UTC timestamp such as ``2011-01-01T00:00Z``.

    Accepts an optional seconds field and either ``Z`` or ``+00:00``.
    """
    s = text.strip()
    if s.endswith("Z"):
        s = s[:-1]
    elif s.endswith("+00:00"):
        s = s[:-6]
    dt = datetime.fromisoformat(s)
    if dt.tzinfo is None:
        return dt.replace(tzinfo=UTC)
    try:
        return dt.astimezone(UTC)
    except OverflowError:
        raise ValueError(f"{text!r} is out of range in UTC") from None


def iso_minutes(dt: datetime) -> str:
    """Render to minute precision, e.g. ``2011-01-01T00:00Z``."""
    return dt.astimezone(UTC).isoformat(timespec="minutes")[:-6] + "Z"


def iso_seconds(dt: datetime) -> str:
    """Render to second precision, e.g. ``2011-01-01T00:00:00Z``."""
    return dt.astimezone(UTC).isoformat(timespec="seconds")[:-6] + "Z"


def duration_hours(text: str) -> int:
    """The hours of ``<ASCII digits>h`` or ``<ASCII digits>d``, e.g. ``96h``
    or ``4d``. Any other text raises ``ValueError``."""
    count, unit = text[:-1], text[-1:]
    if not (count.isascii() and count.isdigit() and unit in ("h", "d")):
        raise ValueError(f"malformed duration {text!r}")
    return int(count) * (24 if unit == "d" else 1)


def decimal_text(x: float) -> str:
    """``repr`` of ``x``, which reads back exactly, except where repr would
    use an exponent: there twelve fixed decimals, trailing zeros dropped."""
    s = repr(float(x))
    if "e" in s or "E" in s:
        s = f"{x:.12f}".rstrip("0")
        if s.endswith("."):
            s += "0"
    return s
