"""Reading and writing the on-disk document formats.

Groupoid documents name units and arrows and list the partial composition
table; omitted compose entries mean non-composable.  Cocycle documents attach
angles to composable arrow-id pairs, exact angles as "p/q" strings and
numeric ones as floats in [0, 1); omitted pairs default to angle 0.  One
float angle makes the cocycle numeric, and it serializes every angle as a
float.  A compose, inverse or cocycle entry given twice for one pair or
arrow is an input error.  A spec document bundles a groupoid, an optional
cocycle and optional run parameters, which are JSON integers.

Serialization is canonical: keys sorted, entries sorted, two-space indent,
one trailing newline, so serialize(parse(x)) is a stable canonical form and
reports can be compared byte-for-byte.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .cocycle import OneCochain, TwoCocycle
from .exact import CircleScalar
from .groupoid import FiniteGroupoid


class DocumentError(ValueError):
    pass


def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _load(text_or_obj) -> dict:
    """A document as a dict, from JSON text or an already parsed value;
    every document is a JSON object at the top."""
    doc = text_or_obj
    if isinstance(doc, (str, bytes, bytearray)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as e:
            raise DocumentError(
                f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
            ) from None
    if not isinstance(doc, dict):
        raise DocumentError(f"a document must be a JSON object, got {doc!r:.40}")
    return doc


# ---------------------------------------------------------------------------
# groupoid documents

def parse_groupoid(doc) -> FiniteGroupoid:
    doc = _load(doc)
    for key in ("units", "arrows", "compose", "inverse"):
        if key not in doc:
            raise DocumentError(f"groupoid document missing field {key!r}")
        if not isinstance(doc[key], list):
            raise DocumentError(f"groupoid field {key!r} must be a list, got {doc[key]!r:.40}")
    unit_names = [str(u) for u in doc["units"]]
    if len(set(unit_names)) != len(unit_names):
        raise DocumentError("duplicate unit names")
    uindex = {u: i for i, u in enumerate(unit_names)}

    arrow_names = []
    rng, src = [], []
    for entry in doc["arrows"]:
        try:
            name, r, s = str(entry["id"]), str(entry["range"]), str(entry["source"])
        except (KeyError, TypeError):
            raise DocumentError(f"arrow entry {entry!r} needs id/range/source") from None
        if r not in uindex or s not in uindex:
            raise DocumentError(f"arrow {name!r} references unknown unit")
        arrow_names.append(name)
        rng.append(uindex[r])
        src.append(uindex[s])
    if len(set(arrow_names)) != len(arrow_names):
        raise DocumentError("duplicate arrow ids")
    aindex = {a: i for i, a in enumerate(arrow_names)}

    compose = {}
    for triple in doc["compose"]:
        if not isinstance(triple, list) or len(triple) != 3:
            raise DocumentError(f"compose entry {triple!r} must be [a, b, c]")
        a, b, c = (str(x) for x in triple)
        for x in (a, b, c):
            if x not in aindex:
                raise DocumentError(f"compose entry references unknown arrow {x!r}")
        if (aindex[a], aindex[b]) in compose:
            raise DocumentError(f"compose entry for ({a!r}, {b!r}) repeated")
        compose[(aindex[a], aindex[b])] = aindex[c]

    inverse = [None] * len(arrow_names)
    for pair in doc["inverse"]:
        if not isinstance(pair, list) or len(pair) != 2:
            raise DocumentError(f"inverse entry {pair!r} must be [a, b]")
        a, b = (str(x) for x in pair)
        if a not in aindex or b not in aindex:
            raise DocumentError(f"inverse entry references unknown arrow")
        if inverse[aindex[a]] is not None:
            raise DocumentError(f"inverse entry for arrow {a!r} repeated")
        inverse[aindex[a]] = aindex[b]
    if any(v is None for v in inverse):
        missing = arrow_names[inverse.index(None)]
        raise DocumentError(f"arrow {missing!r} has no inverse entry")

    # unit arrows are recovered as the arrows the compose table treats as
    # two-sided identities over their unit
    unit_to_arrow = [None] * len(unit_names)
    for a in range(len(arrow_names)):
        if rng[a] == src[a] and compose.get((a, a)) == a:
            u = rng[a]
            if all(
                compose.get((a, b)) == b
                for b in range(len(arrow_names))
                if rng[b] == u
            ) and all(
                compose.get((b, a)) == b
                for b in range(len(arrow_names))
                if src[b] == u
            ):
                if unit_to_arrow[u] is None:
                    unit_to_arrow[u] = a
    if any(v is None for v in unit_to_arrow):
        u = unit_names[unit_to_arrow.index(None)]
        raise DocumentError(f"no identity arrow found over unit {u!r}")

    return FiniteGroupoid(
        len(unit_names), rng, src, compose, inverse, unit_to_arrow,
        unit_labels=unit_names, arrow_labels=arrow_names, name=str(doc.get("name", "groupoid")),
    )


# ---------------------------------------------------------------------------
# cocycle documents

def _angle_to_doc(v: CircleScalar):
    if v.is_exact:
        return f"{v.angle.numerator}/{v.angle.denominator}"
    return (cmath.phase(v.to_complex()) / (2 * math.pi)) % 1.0


def _angle_from_doc(x) -> CircleScalar:
    if isinstance(x, str):
        try:
            return CircleScalar(angle=Fraction(x))
        except (ValueError, ZeroDivisionError):
            raise DocumentError(f"bad exact angle {x!r}") from None
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        if not 0 <= x < 1:
            raise DocumentError(f"float angle {x!r} outside [0, 1)")
        return CircleScalar(z=cmath.exp(2j * math.pi * x))
    raise DocumentError(f"bad angle value {x!r}")


def parse_cocycle(doc, g: FiniteGroupoid) -> TwoCocycle:
    doc = _load(doc)
    entries = doc.get("entries")
    if entries is None:
        raise DocumentError("cocycle document missing field 'entries'")
    if not isinstance(entries, list):
        raise DocumentError(f"cocycle field 'entries' must be a list, got {entries!r:.40}")
    aindex = {name: i for i, name in enumerate(g.arrow_labels)}
    vals = {}
    for entry in entries:
        names = entry[0] if isinstance(entry, list) and len(entry) == 2 else None
        if not isinstance(names, list) or len(names) != 2:
            raise DocumentError(f"cocycle entry {entry!r} must be [[a, b], angle]")
        (a, b), angle = entry
        a, b = str(a), str(b)
        if a not in aindex or b not in aindex:
            raise DocumentError(f"cocycle entry references unknown arrow in {entry!r}")
        pair = (aindex[a], aindex[b])
        if pair not in g.compose_table:
            raise DocumentError(f"cocycle entry on non-composable pair ({a!r}, {b!r})")
        if pair in vals:
            raise DocumentError(f"cocycle entry on ({a!r}, {b!r}) repeated")
        vals[pair] = _angle_from_doc(angle)
    return TwoCocycle(g, vals)


def cocycle_to_doc(w: TwoCocycle) -> dict:
    g = w.base
    entries = []
    for (a, b), v in w.values.items():
        entries.append([[g.arrow_labels[a], g.arrow_labels[b]], _angle_to_doc(v)])
    entries.sort(key=lambda e: (e[0][0], e[0][1]))
    return {"entries": entries}


def cochain_to_doc(b: OneCochain) -> dict:
    g = b.base
    entries = [[g.arrow_labels[a], _angle_to_doc(v)] for a, v in b.values.items()]
    entries.sort(key=lambda e: e[0])
    return {"entries": entries}


# ---------------------------------------------------------------------------
# bundles

@dataclass
class SpecDocument:
    groupoid: FiniteGroupoid
    cocycle: TwoCocycle | None = None
    params: dict = field(default_factory=dict)
    _trivial: TwoCocycle | None = field(default=None, init=False, repr=False, compare=False)

    def cocycle_or_trivial(self) -> TwoCocycle:
        """The cocycle, or else the trivial cocycle, one object on every call."""
        if self.cocycle is None and self._trivial is None:
            self._trivial = TwoCocycle.trivial(self.groupoid)
        return self.cocycle if self.cocycle is not None else self._trivial


def parse_spec(doc) -> SpecDocument:
    doc = _load(doc)
    if "groupoid" not in doc:
        raise DocumentError("spec document missing field 'groupoid'")
    g = parse_groupoid(doc["groupoid"])
    w = parse_cocycle(doc["cocycle"], g) if "cocycle" in doc else None
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise DocumentError("field 'params' must be an object")
    modes = params.get("modes", [0, 0])
    if not isinstance(modes, list) or len(modes) != 2:
        raise DocumentError(f"params.modes must be [lo, hi], got {modes!r:.40}")
    numbers = [(key, params[key]) for key in ("k", "seed", "samples") if key in params]
    for key, x in numbers + [("modes", x) for x in modes]:
        if not isinstance(x, int) or isinstance(x, bool):
            raise DocumentError(f"params.{key} must be an integer, got {x!r:.40}")
    if modes[0] > modes[1]:
        raise DocumentError(f"params.modes window is empty, got {modes!r:.40}")
    if params.get("samples", 0) < 0:
        raise DocumentError(f"params.samples must be at least 0, got {params['samples']!r:.40}")
    return SpecDocument(groupoid=g, cocycle=w, params=params)


# ---------------------------------------------------------------------------
# algebra elements and reports

def _coeffs_to_doc(g: FiniteGroupoid, coeff: dict) -> dict:
    """Sparse {arrow_id: [re, im]} rendering of one coefficient map."""
    return {
        g.arrow_labels[a]: [complex(c).real, complex(c).imag] for a, c in sorted(coeff.items())
    }


def _coeffs_from_doc(coeff, g: FiniteGroupoid) -> dict:
    """Parse a {arrow_id: [re, im]} map, each coefficient two JSON numbers."""
    if not isinstance(coeff, dict):
        raise DocumentError(f"coefficients must be an object, got {coeff!r}")
    aindex = {name: i for i, name in enumerate(g.arrow_labels)}
    out = {}
    for name, pair in coeff.items():
        if name not in aindex:
            raise DocumentError(f"coefficient on unknown arrow {name!r}")
        if not (
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            raise DocumentError(f"coefficient of {name!r} must be [re, im], got {pair!r:.80}")
        if not all(_is_float(x) for x in pair):
            raise DocumentError(f"coefficient of {name!r} must be finite floats, got {pair!r:.80}")
        out[aindex[name]] = complex(pair[0], pair[1])
    return out


def _is_float(x) -> bool:
    """A JSON number that converts to a finite float."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def parse_element(doc, algebra):
    doc = _load(doc)
    coeff = doc.get("coeff")
    if coeff is None:
        raise DocumentError("element document missing field 'coeff'")
    return algebra.element(_coeffs_from_doc(coeff, algebra.groupoid))


def laurent_to_doc(F) -> dict:
    """Sparse {mode: {arrow_id: [re, im]}} rendering of a graded element."""
    g = F.algebra.groupoid
    return {
        "modes": {str(n): _coeffs_to_doc(g, comp.coeff) for n, comp in sorted(F.modes.items())}
    }


def decomposition_report_to_doc(report) -> dict:
    """Per-mode dimension, norm and center dimension, with the extension norm."""
    return {
        "modes": {
            str(n): {
                "dimension": report.mode_dimensions.get(n),
                "norm": fmt_float(report.mode_norms[n]),
                "center_dimension": report.center_dimensions.get(n),
                "faithful": report.faithful_modes.get(n),
            }
            for n in sorted(report.mode_norms)
        },
        "extension_norm": fmt_float(report.extension_norm),
    }


def norm_report_to_doc(rep, g: FiniteGroupoid) -> dict:
    return {
        "reduced_norm": fmt_float(rep.reduced_norm),
        "attained_at": None if rep.attained_at is None else g.unit_labels[rep.attained_at],
        "faithful": rep.faithful,
    }


def fmt_float(x: float) -> str:
    """Fixed-precision decimal rendering used everywhere a report carries a
    numeric value, so reports are byte-stable."""
    return f"{float(x):.10e}"
