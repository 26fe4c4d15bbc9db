"""Self-describing CSV/JSON emitters.

Every file carries the tool version, a config hash, the seed, and the
grid in a comment header (CSV) or a meta object (JSON), and nothing
time- or host-dependent, so reruns with the same inputs are
byte-identical.
"""

from __future__ import annotations

import hashlib
import io
import json
from typing import Iterable, Sequence

from ._version import __version__
from .scenario import ScenarioConfig, config_to_dict


def config_hash(cfg: ScenarioConfig) -> str:
    canon = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def metadata(cfg: ScenarioConfig, **extra) -> dict[str, str]:
    meta = {"tool": f"ranksinr {__version__}", "config_hash": config_hash(cfg)}
    for k, v in extra.items():
        if v is not None:
            meta[k] = _fmt(v)
    return meta


def render_csv(
    columns: Sequence[str], rows: Iterable[Sequence], meta: dict[str, str]
) -> str:
    buf = io.StringIO()
    for k, v in meta.items():
        buf.write(f"# {k}: {v}\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    return buf.getvalue()


# json.dumps(..., indent=1) runs json's pure-Python encoder; without an
# indent the C encoder runs, and these separators give every item of a
# row its line and indent
_ROWS_ENCODER = json.JSONEncoder(separators=(",\n   ", ": "))


def render_json(
    columns: Sequence[str], rows: Iterable[Sequence], meta: dict[str, str]
) -> str:
    """The text of json.dumps(payload, sort_keys=True, indent=1) + "\\n".

    The payload is {"columns", "meta", "rows"}; rows hold scalars.
    """
    head = json.dumps({"columns": list(columns), "meta": meta, "rows": []},
                      sort_keys=True, indent=1)
    table = _ROWS_ENCODER.encode([list(row) for row in rows])
    if table == "[]":
        return head + "\n"
    # table is [[a,\n   b],\n   [c]]: an encoded scalar holds no raw
    # newline, so "],\n   [" only ever joins two rows.  There and at both
    # ends a row bracket moves to a line of its own, and an empty row
    # closes up again
    body = ("[\n   " + table[2:-2] + "\n  ]").replace(
        "],\n   [", "\n  ],\n  [\n   ").replace("[\n   \n  ]", "[]")
    # head ends in '"rows": []\n}'
    return f"{head[:-4]}[\n  {body}\n ]\n}}\n"


def render(
    fmt: str, columns: Sequence[str], rows: Iterable[Sequence], meta: dict[str, str]
) -> str:
    if fmt == "csv":
        return render_csv(columns, rows, meta)
    if fmt == "json":
        return render_json(columns, rows, meta)
    raise ValueError(f"format must be csv or json, got {fmt!r}")
