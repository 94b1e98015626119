"""Compare two fingerprint trees of ``tools/fingerprint.py``, value by value.

    python3 tools/fingerprint_diff.py fp_base fp_new

A ``.json`` file is compared value by value, and a ``.jsonl`` file as the
list of its lines' values.  A changed or removed value fails; floats are
compared by ``repr``, which tells every bit apart, the sign of zero
included, and so is every other scalar (an int that became a float
fails).  A key that only the new tree has is listed without failing: a new
report field leaves every existing value as it was.  A ``.txt`` file must
have its lines in the same number; a line that differs is compared by the
same rules when both sides are a Python ``repr`` after an optional
``name: `` prefix (the reports in ``library.txt`` are dict reprs), its
dicts by key and every other node by its source text, else it fails.  A
file missing from the new tree fails; a file only the new tree has is
listed.

Prints one line per difference and exits 1 when any of them fails, else 0.
"""

import argparse
import ast
import json
import sys
from pathlib import Path


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def compare(base, new, path: str, failed: list, added: list):
    """Append to failed each changed or removed value of base in new, and to
    added each key that only new has."""
    if isinstance(base, dict) and isinstance(new, dict):
        for key, value in base.items():
            if key in new:
                compare(value, new[key], f"{path}/{key}", failed, added)
            else:
                failed.append(f"{path}/{key}: removed")
        added += [f"{path}/{key}" for key in new if key not in base]
    elif isinstance(base, list) and isinstance(new, list) and len(base) == len(new):
        for i, (a, b) in enumerate(zip(base, new)):
            compare(a, b, f"{path}[{i}]", failed, added)
    elif repr(base) != repr(new):
        failed.append(f"{path}: {_short(base)} -> {_short(new)}")


def _literal(node):
    """A repr's syntax tree as `compare` takes it: a dict by key, a list by
    item, and any other node (a number, a tuple, np.float64(x)) as its
    source text, which repr'd floats keep to the bit."""
    if isinstance(node, ast.Dict) and None not in node.keys:
        return {ast.unparse(k): _literal(v) for k, v in zip(node.keys, node.values)}
    if isinstance(node, ast.List):
        return [_literal(item) for item in node.elts]
    return ast.unparse(node)


def _txt_value(line: str):
    """(prefix, value) of a .txt line that is a repr after an optional
    `name: ` prefix, or None."""
    name, sep, text = line.partition(": ")
    for prefix, source in (("", line), (name + sep, text)):
        try:
            return prefix, _literal(ast.parse(source, mode="eval").body)
        except SyntaxError:
            pass
    return None


def _compare_txt(rel, base: str, new: str, failed: list, added: list):
    base_lines, new_lines = base.splitlines(), new.splitlines()
    if len(base_lines) != len(new_lines):
        failed.append(f"{rel}: {len(base_lines)} lines -> {len(new_lines)}")
        return
    for i, (b, n) in enumerate(zip(base_lines, new_lines), 1):
        if b == n:
            continue
        bv, nv = _txt_value(b), _txt_value(n)
        if bv is None or nv is None or bv[0] != nv[0]:
            failed.append(f"{rel}:{i}: differs")
        else:
            compare(bv[1], nv[1], f"{rel}:{i} {bv[0].rstrip(': ')}", failed, added)


def _load(path: Path):
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in path.read_text().splitlines()]
    return json.loads(path.read_text())


def diff_trees(base: Path, new: Path):
    """(failed, listed): the differences that fail, and the added keys and
    files, each a line naming its file."""
    failed, listed = [], []
    for b in sorted(p for p in base.rglob("*") if p.is_file()):
        rel = b.relative_to(base)
        n = new / rel
        if not n.is_file():
            failed.append(f"{rel}: missing")
        else:
            added = []
            if b.suffix in (".json", ".jsonl"):
                compare(_load(b), _load(n), str(rel), failed, added)
            else:
                _compare_txt(rel, b.read_text(), n.read_text(), failed, added)
            listed += [f"{key}: added" for key in added]
    listed += [f"{p.relative_to(new)}: only in the new tree" for p in sorted(new.rglob("*"))
               if p.is_file() and not (base / p.relative_to(new)).is_file()]
    return failed, listed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", type=Path, help="the base commit's fingerprint directory")
    p.add_argument("new", type=Path, help="the change's fingerprint directory")
    args = p.parse_args(argv)
    failed, listed = diff_trees(args.base, args.new)
    for line in listed:
        print(f"fingerprint_diff: {line}")
    for line in failed:
        print(f"fingerprint_diff: CHANGED {line}")
    print(f"fingerprint_diff: {len(failed)} changed or removed, {len(listed)} added")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
