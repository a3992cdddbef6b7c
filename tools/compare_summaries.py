"""Compare two directories of JSON run outputs kept by
`tools/digests.py --summaries DIR`.

    python tools/compare_summaries.py OLD NEW

Every file is read as a tree of fields named by their key paths (list
items by index).  For each numeric field, over all files that hold it,
prints the largest relative delta |new - old| / |old| with the file where
it occurs, and the largest absolute delta |new - old| (both are 0 where
the values are equal or both NaN and inf where only one is NaN; the
relative delta is also inf where only old is 0).  The absolute delta shows
a field at rounding level for what it is: a relative move of 1e-5 on a
value of 1e-18.  Then prints every count (an integer field) that changed,
every other field that changed, and every file or field found on one
side only.  The last line names every field whose relative delta exceeds
REL_BOUND, each with its absolute delta, or "none".
"""

import argparse
import json
import math
import sys
from pathlib import Path

# largest relative move of a summary metric that still counts as agreement
REL_BOUND = 1e-9


def leaves(node, prefix=""):
    """(key path, value) of every leaf of a JSON tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        yield prefix, node
        return
    for key, value in items:
        yield from leaves(value, f"{prefix}.{key}" if prefix else str(key))


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def deltas(old, new):
    """(relative, absolute) delta of two numbers."""
    nans = sum(isinstance(v, float) and math.isnan(v) for v in (old, new))
    if old == new or nans == 2:
        return 0.0, 0.0
    if nans:
        return math.inf, math.inf
    return (abs(new - old) / abs(old) if old else math.inf), abs(new - old)


def compare(old_dir: Path, new_dir: Path):
    """Lines of the comparison report."""
    files = sorted({p.relative_to(d).as_posix() for d in (old_dir, new_dir)
                    for p in d.rglob("*.json")})
    worst = {}  # field -> (relative delta, file)
    worst_abs = {}  # field -> absolute delta
    changed, one_side = [], []
    for name in files:
        paths = [d / name for d in (old_dir, new_dir)]
        if not all(p.is_file() for p in paths):
            one_side.append(f"file {name}: only in {'OLD' if paths[0].is_file() else 'NEW'}")
            continue
        old, new = (dict(leaves(json.loads(p.read_text()))) for p in paths)
        for field in sorted(old.keys() | new.keys()):
            if field not in old or field not in new:
                one_side.append(f"field {name} {field}: only in {'OLD' if field in old else 'NEW'}")
                continue
            a, b = old[field], new[field]
            if is_number(a) and is_number(b):
                delta, delta_abs = deltas(a, b)
                if field not in worst or delta > worst[field][0]:
                    worst[field] = (delta, name)
                worst_abs[field] = max(worst_abs.get(field, 0.0), delta_abs)
                if isinstance(a, int) and isinstance(b, int) and a != b:
                    changed.append(f"count {name} {field}: {a} -> {b}")
                    continue
            if a != b and not (is_number(a) and is_number(b)):
                changed.append(f"changed {name} {field}: {a!r} -> {b!r}")
    width = max((len(f) for f in worst), default=5)
    lines = [f"{'field':<{width}}  max rel delta  max abs delta  file"]
    lines += [f"{field:<{width}}  {delta:13.3g}  {worst_abs[field]:13.3g}  {name}"
              for field, (delta, name) in sorted(worst.items())]
    over = [f"{field} {worst_abs[field]:.3g}" for field, (delta, _) in sorted(worst.items())
            if delta > REL_BOUND]
    return lines + changed + one_side + [
        f"over {REL_BOUND:g} relative (absolute delta): {', '.join(over) or 'none'}"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args()
    for d in (args.old, args.new):
        if not d.is_dir():
            parser.error(f"{d} is not a directory")
    print("\n".join(compare(args.old, args.new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
