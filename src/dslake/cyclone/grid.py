"""Pressure-grid snapshots: text format, parsing, bilinear refinement.

Snapshot format (bit-exact, UTF-8 text):

    grid <lat0> <lon0> <dlat> <dlon> <nlat> <nlon> <ISO-8601 timestamp>
    <nlon space-separated pressures>      # southernmost row first
    ... (nlat rows total)

Pressures are hPa rendered with two decimals; the southernmost row comes
first, so ``values[i, j]`` sits at ``(lat0 + i*dlat, lon0 + j*dlon)``.

The canonical body, which ``render_body`` writes for pressures in
[0, 10000), is exactly ``nlat`` rows of ``nlon`` cells: each cell 1-5
digits, a point and 2 digits, one space between cells and a newline after
each row. It parses in a few numpy passes, each cell's digit integer over
100.0, which is ``float(cell)`` bit for bit. Every other accepted spelling
(tabs, ``\r\n``, exponents, signs, blank lines, a missing last newline, ...)
goes to the general parser, with the same checks and error lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import TYPE_CHECKING

from dslake.errors import FormatError, undecodable_at
from dslake.times import decimal_text, iso_minutes, parse_utc

if TYPE_CHECKING:
    import numpy as np

PRESSURE_MIN_HPA = 850.0
PRESSURE_MAX_HPA = 1100.0


@dataclass
class GridSnapshot:
    lat0: float
    lon0: float
    dlat: float
    dlon: float
    nlat: int
    nlon: int
    timestamp: datetime
    values: np.ndarray  # (nlat, nlon) float64, hPa

    def __eq__(self, other):
        if not isinstance(other, GridSnapshot):
            return NotImplemented
        import numpy as np

        return (
            (self.lat0, self.lon0, self.dlat, self.dlon, self.nlat, self.nlon)
            == (other.lat0, other.lon0, other.dlat, other.dlon, other.nlat, other.nlon)
            and self.timestamp == other.timestamp
            and np.array_equal(self.values, other.values)
        )

    def lat_of(self, i: int) -> float:
        return self.lat0 + i * self.dlat

    def lon_of(self, j: int) -> float:
        return self.lon0 + j * self.dlon

    @property
    def lats(self) -> np.ndarray:
        import numpy as np

        return self.lat0 + self.dlat * np.arange(self.nlat)

    @property
    def lons(self) -> np.ndarray:
        import numpy as np

        return self.lon0 + self.dlon * np.arange(self.nlon)


def parse_grid_snapshot(data: bytes) -> GridSnapshot:
    """Parse and validate a snapshot from its byte representation; a byte
    that is not UTF-8 raises ``FormatError`` naming its line before any
    other check."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(undecodable_at(exc)[0], "not UTF-8 text") from None
    header, _, body = text.partition("\n")
    lat0, lon0, dlat, dlon, nlat, nlon, ts = parse_header(header)
    values = _canonical_values(data.partition(b"\n")[2], nlat, nlon)
    if values is None:
        values = _general_values(body, nlat, nlon)
    _check_values(values)
    return GridSnapshot(lat0, lon0, dlat, dlon, nlat, nlon, ts, values)


def _canonical_values(body: bytes, nlat: int, nlon: int) -> np.ndarray | None:
    """The values of a canonical body (see the module docstring), or None
    for any other body."""
    import numpy as np

    a = np.frombuffer(body, np.uint8)
    ends = np.flatnonzero(a <= 32)  # the separator after each cell
    if len(ends) != nlat * nlon or ends[-1] != len(a) - 1:
        return None
    seps = a[ends].reshape(nlat, nlon)
    width = np.diff(ends, prepend=-1)  # each cell's bytes and its separator
    if (seps[:, :-1] != 32).any() or (seps[:, -1] != 10).any():
        return None
    if not 5 <= width.min() <= width.max() <= 9:
        return None
    # the 8 bytes before each separator as a little-endian word, the bytes of
    # earlier cells read as "0": "ddddd.dd", the point always in byte 5
    words = np.ndarray(len(a), "<u8", b"0" * 8 + body, 0, (1,))[ends]
    zeros, low = np.uint64(0x3030303030303030), (72 - 8 * width).astype(np.uint64)
    low = (np.uint64(1) << low) - np.uint64(1)
    words = (words & ~low) | (zeros & low)
    if ((words >> np.uint64(40)) & np.uint64(0xFF) != 0x2E).any():
        return None
    words ^= np.uint64(0x1E << 40)  # the point reads as "0"
    nibbles = np.uint64(0xF0F0F0F0F0F0F0F0)  # each byte "0" to "9" (Lemire, SPE 2021)
    if ((words & nibbles) | ((words + np.uint64(0x0606060606060606)) & nibbles) >> np.uint64(4)
            != np.uint64(0x3333333333333333)).any():
        return None
    digits = (words - zeros).astype("<u8").view(np.uint8).reshape(-1, 8)
    cents = digits @ np.array([1e6, 1e5, 1e4, 1e3, 100.0, 0.0, 10.0, 1.0])  # exact
    return (cents / 100.0).reshape(nlat, nlon)


def _general_values(body: str, nlat: int, nlon: int) -> np.ndarray:
    """The values of any body ``parse_grid_snapshot`` accepts."""
    import numpy as np

    rows = body.split("\n")
    while rows and rows[-1] == "":
        rows.pop()
    if len(rows) != nlat:
        raise FormatError(1 + len(rows), f"expected {nlat} rows, found {len(rows)}")
    split_rows = [row.split() for row in rows]
    for r, cells in enumerate(split_rows):
        if len(cells) != nlon:
            raise FormatError(2 + r, f"expected {nlon} values, found {len(cells)}")
    try:
        return np.array(split_rows, dtype=np.float64)
    except ValueError:
        pass
    for r, cells in enumerate(split_rows):
        try:
            np.array(cells, dtype=np.float64)
        except ValueError:
            raise FormatError(2 + r, "non-numeric pressure value") from None
    raise FormatError(2, "malformed pressure rows")


def parse_header(header: str) -> tuple[float, float, float, float, int, int, datetime]:
    fields = header.split()
    if len(fields) != 8 or fields[0] != "grid":
        raise FormatError(1, "header must be: grid lat0 lon0 dlat dlon nlat nlon time")
    try:
        lat0, lon0, dlat, dlon = (float(x) for x in fields[1:5])
        nlat, nlon = int(fields[5]), int(fields[6])
        ts = parse_utc(fields[7])
    except ValueError as exc:
        raise FormatError(1, f"bad header field: {exc}") from None
    if dlat <= 0 or dlon <= 0:
        raise FormatError(1, "grid spacing must be positive")
    if nlat < 2 or nlon < 2:
        raise FormatError(1, "grid must be at least 2x2")
    try:
        lat1 = lat0 + (nlat - 1) * dlat
        lon1 = lon0 + (nlon - 1) * dlon
    except OverflowError:  # a row or column count past any float
        lat1 = lon1 = float("inf")
    if not (-90.0 <= lat0 and lat1 <= 90.0 and -180.0 <= lon0 and lon1 <= 180.0):
        raise FormatError(1, "grid box outside [-90, 90] x [-180, 180]")
    return lat0, lon0, dlat, dlon, nlat, nlon, ts


def _check_values(values: np.ndarray) -> None:
    import numpy as np

    if not np.all(np.isfinite(values)):
        raise FormatError(2, "non-finite pressure value")
    lo = float(values.min())
    hi = float(values.max())
    if lo < PRESSURE_MIN_HPA or hi > PRESSURE_MAX_HPA:
        raise FormatError(
            2,
            f"pressure outside [{PRESSURE_MIN_HPA:g}, {PRESSURE_MAX_HPA:g}] hPa:"
            f" range [{lo:g}, {hi:g}]",
        )


def render_grid_snapshot(snapshot: GridSnapshot) -> bytes:
    """Render to the canonical byte format (two-decimal pressures)."""
    header = render_header(
        snapshot.lat0, snapshot.lon0, snapshot.dlat, snapshot.dlon,
        snapshot.nlat, snapshot.nlon, snapshot.timestamp,
    )
    return header + render_body(snapshot.values)


def render_header(
    lat0: float, lon0: float, dlat: float, dlon: float, nlat: int, nlon: int, ts: datetime
) -> bytes:
    """The header line ``parse_header`` reads, newline included."""
    numbers = " ".join(map(decimal_text, (lat0, lon0, dlat, dlon)))
    return f"grid {numbers} {nlat} {nlon} {iso_minutes(ts)}\n".encode()


def render_body(values: np.ndarray) -> bytes:
    """The rows of ``values``: ``%.2f`` of each cell, one space between
    cells and a newline after each row, the bytes ``np.savetxt(fmt="%.2f")``
    writes. Cells all finite, in [0, 10000) and not -0.0 render exactly
    from their binary value in a few numpy passes; any other array as one
    ``%`` format."""
    import numpy as np

    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    nrow, ncol = values.shape
    if values.size and np.all((values < 10000) & ~np.signbit(values)):
        # x = m * 2**(e - 53) with integer m < 2**53: the %.2f integer is
        # 100*m < 2**60 shifted right by 53 - e (> 38), rounded half to even
        # by adding half - 1 and the parity of the truncated quotient
        f, e = np.frexp(values.ravel())
        m = (f * 2.0**53).astype(np.int64) * 100
        s = np.minimum(53 - e, 62)
        n = (m + (np.left_shift(1, s - 1, dtype=np.int64) - 1) + (m >> s & 1)) >> s
        whole, cents = np.divmod(n, 100)
        top, units = np.divmod(whole, 100)  # top <= 100: 9999.995 is "10000.00"
        i = np.arange(101) % 100
        pair = (48 + i // 10) | (48 + i % 10) << 8  # "00" to "99", little-endian
        word = (48 + (top == 100)) | pair[top] << 8 | pair[units] << 24 | 0x2E << 40
        lead = 4 - np.searchsorted(np.array([10, 100, 1000, 10000]), whole, side="right")
        cells = np.empty(n.size, [("text", "<u8"), ("end", "u1")])
        cells["text"] = (word | pair[cents] << 48) & (-1 << 8 * lead)  # leading zeros NUL
        cells["end"] = 32
        cells["end"].reshape(nrow, ncol)[:, -1] = 10
        return cells.tobytes().translate(None, b"\0")
    return ((" ".join(["%.2f"] * ncol) + "\n") * nrow % tuple(values.ravel().tolist())).encode()


def densify(snapshot: GridSnapshot, k: int) -> GridSnapshot:
    """Bilinear interpolation onto a k-times finer grid over the same box.

    k = 1 returns the snapshot unchanged. Dense values always lie within
    the hull of the four surrounding coarse values.
    """
    if k < 1:
        raise ValueError("refinement factor must be >= 1")
    if k == 1:
        return snapshot
    import numpy as np

    v = snapshot.values
    nlat_d = (snapshot.nlat - 1) * k + 1
    nlon_d = (snapshot.nlon - 1) * k + 1

    ii = np.arange(nlat_d)
    jj = np.arange(nlon_d)
    i0 = np.minimum(ii // k, snapshot.nlat - 2)
    j0 = np.minimum(jj // k, snapshot.nlon - 2)
    a = ii / k - i0
    b = jj / k - j0
    i1 = i0 + 1
    j1 = j0 + 1

    wa = a[:, None]
    wb = b[None, :]
    dense = (
        (1 - wa) * (1 - wb) * v[np.ix_(i0, j0)]
        + wa * (1 - wb) * v[np.ix_(i1, j0)]
        + (1 - wa) * wb * v[np.ix_(i0, j1)]
        + wa * wb * v[np.ix_(i1, j1)]
    )
    return GridSnapshot(
        lat0=snapshot.lat0,
        lon0=snapshot.lon0,
        dlat=snapshot.dlat / k,
        dlon=snapshot.dlon / k,
        nlat=nlat_d,
        nlon=nlon_d,
        timestamp=snapshot.timestamp,
        values=dense,
    )
