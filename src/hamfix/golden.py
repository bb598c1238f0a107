"""Embedded reference tables and the one renderer of table rows.

The reference tables are stored as the exact TSV text `hamfix classify`
prints for them, and parsed once into row dicts with the same keys and cell
types the renderer produces.  Interior surface classes are written in the
classifier's canonical form: the level-0 total has nondecreasing exceptional
coefficients, and its splitting is the least over the index permutations
that fix the total.
"""

from __future__ import annotations

from .classify6 import TFD, capacities
from .localization import betti, chern_number

FIELDS6 = (
    "label", "crit", "components", "b2", "b_odd", "c1_cubed",
    "gromov_width", "hofer_zehnder",
)
FIELDS4 = ("label", "m", "crit", "components", "b2", "euler_min")
_NUMERIC = {"b2", "b_odd", "c1_cubed", "gromov_width", "hofer_zehnder"}

GOLDEN6_TSV = """\
label\tcrit\tcomponents\tb2\tb_odd\tc1_cubed\tgromov_width\thofer_zehnder
I-1\t-3,0,3\t-3:pt | 0:S2[2u] | 3:pt\t1\t0\t54\t2\t6
I-2\t-3,-1,1,3\t-3:pt | -1:pt*3 | 1:pt*3 | 3:pt\t3\t0\t48\t2\t6
I-3\t-3,-1,0,1,3\t-3:pt | -1:pt | 0:S2[u-E1]+S2[u-E1] | 1:pt | 3:pt\t3\t0\t52\t2\t6
II-3.1\t-3,-1,0,2\t-3:pt | -1:pt | 0:S2[E1] | 2:S2(vol 5)\t2\t0\t62\t2\t5
II-3.2\t-3,-1,0,2\t-3:pt | -1:pt | 0:S2[u] | 2:S2(vol 3)\t2\t0\t54\t2\t5
II-3.3\t-3,-1,0,2\t-3:pt | -1:pt | 0:S2[2u-E1] | 2:S2(vol 1)\t2\t0\t46\t2\t5
II-4.1\t-3,-1,0,1,2\t-3:pt | -1:pt*2 | 0:S2[u-E1-E2]+S2[u-E1] | 1:pt | 2:S2(vol 1)\t4\t0\t44\t2\t5
II-4.2\t-3,-1,0,1,2\t-3:pt | -1:pt*3 | 0:S2[u-E1-E2] | 1:pt*2 | 2:S2(vol 1)\t4\t0\t42\t2\t5
III-1\t-3,1\t-3:pt | 1:P2\t1\t0\t64\t4\t4
III-2\t-3,-1,1\t-3:pt | -1:pt | 1:P2#1\t2\t0\t56\t2\t4
III-3.1\t-3,0,1\t-3:pt | 0:S2[u] | 1:P2\t2\t0\t54\t3\t4
III-3.2\t-3,0,1\t-3:pt | 0:S2[2u] | 1:P2\t2\t0\t46\t3\t4
III-3.3\t-3,0,1\t-3:pt | 0:T2[3u] | 1:P2\t2\t2\t40\t3\t4
III-4.1\t-3,-1,0,1\t-3:pt | -1:pt | 0:S2[E1] | 1:P2#1\t3\t0\t50\t2\t4
III-4.2\t-3,-1,0,1\t-3:pt | -1:pt | 0:S2[u-E1] | 1:P2#1\t3\t0\t50\t2\t4
III-4.3\t-3,-1,0,1\t-3:pt | -1:pt | 0:S2[u] | 1:P2#1\t3\t0\t46\t2\t4
III-4.4\t-3,-1,0,1\t-3:pt | -1:pt | 0:S2[2u-E1] | 1:P2#1\t3\t0\t42\t2\t4
III-4.5\t-3,-1,0,1\t-3:pt | -1:pt*2 | 0:S2[u-E1-E2] | 1:P2#2\t4\t0\t46\t2\t4
"""

GOLDEN4_TSV = """\
label\tm\tcrit\tcomponents\tb2\teuler_min
I-1\tP1xP1\t-2,0,2\t-2:pt | 0:pt*2 | 2:pt\t2\t-u
II-1\tP2\t-2,1\t-2:pt | 1:S2\t1\t-u
II-2\tP2#1\t-2,0,1\t-2:pt | 0:pt | 1:S2\t2\t-u
II-3\tP2#2\t-2,0,1\t-2:pt | 0:pt*2 | 1:S2\t3\t-u
III-1\tP1xP1\t-1,1\t-1:S2 | 1:S2\t2\t0
III-2\tP2#1\t-1,1\t-1:S2 | 1:S2\t2\t-u
III-3\tP2#2\t-1,0,1\t-1:S2 | 0:pt | 1:S2\t3\t0
III-4\tP2#3\t-1,0,1\t-1:S2 | 0:pt*2 | 1:S2\t4\t-u
"""


def parse_tsv(text: str) -> list[dict]:
    """Rows of a rendered table, numeric columns back as ints."""
    header, *lines = text.splitlines()
    fields = header.split("\t")
    return [
        {f: int(v) if f in _NUMERIC else v for f, v in zip(fields, line.split("\t"))}
        for line in lines
    ]


GOLDEN6 = parse_tsv(GOLDEN6_TSV)
GOLDEN4 = parse_tsv(GOLDEN4_TSV)


def fixed_point_columns(tfd: TFD) -> tuple[str, str]:
    """The `crit` and `components` cells of a six-dimensional row."""
    per_level = []
    for level in tfd.crit_levels:
        descs = [fc.column() for fc in tfd.at_level(level)]
        pts = descs.count("pt")
        if pts > 1:
            descs = [d for d in descs if d != "pt"] + [f"pt*{pts}"]
        per_level.append(f"{level}:{'+'.join(sorted(descs))}")
    return ",".join(str(c) for c in tfd.crit_levels), " | ".join(per_level)


def report_row_from_tfd(tfd: TFD) -> dict:
    crit, components = fixed_point_columns(tfd)
    b = betti(tfd)
    w, h = capacities(tfd)
    return {
        "label": tfd.label,
        "crit": crit,
        "components": components,
        "b2": b[2],
        "b_odd": b[1] + b[3] + b[5],
        "c1_cubed": chern_number(tfd),
        "gromov_width": w,
        "hofer_zehnder": h,
    }


def _manifold4(row) -> str:
    """The 4-manifold of a row: P2 for b2 = 1 and P2#(b2-1) for b2 >= 3.

    By Karshon (1999) it is the plane, a Hirzebruch surface F_n (P1xP1 for
    even n, P2#1 for odd n) or an equivariant blow-up of one, and F_n#1 is
    P2#2.  With b2 = 2: isolated fixed points only give P1xP1 (Tolman and
    Weitsman 2000); an isolated minimum below a sphere maximum is the plane
    blown up once, P2#1; two fixed spheres bound F_n with n = |euler_min|,
    the Euler number of the circle bundle just above the minimal sphere.
    """
    b2 = row.betti[2]
    if b2 != 2:
        return "P2" if b2 == 1 else f"P2#{b2 - 1}"
    if row.min_level == -2:
        return "P1xP1" if row.max_level == 2 else "P2#1"
    return "P2#1" if row.euler_min % 2 else "P1xP1"


def report_row_from_tfd4(row) -> dict:
    per_level = []
    for level in row.crit_levels:
        if level in (-2, 2):
            per_level.append(f"{level}:pt")
        elif level in (-1, 1):
            per_level.append(f"{level}:S2")
        else:
            per_level.append("0:pt" if row.k == 1 else f"0:pt*{row.k}")
    e = row.euler_min
    e_str = "0" if e == 0 else ("-u" if e == -1 else f"{e}u")
    return {
        "label": row.label or "?",
        "m": _manifold4(row),
        "crit": ",".join(str(c) for c in row.crit_levels),
        "components": " | ".join(per_level),
        "b2": row.betti[2],
        "euler_min": e_str,
    }


def render_tsv(rows: list[dict], fields) -> str:
    lines = ["\t".join(fields)]
    for r in rows:
        lines.append("\t".join(str(r[f]) for f in fields))
    return "\n".join(lines) + "\n"
