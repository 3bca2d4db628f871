"""Seeded mutation fuzz of the command line: whatever an input file
holds, every command either answers or prints one coded error line."""

import copy
import json
import random
import re

import pytest

from locmult.cli import main

from conftest import DATASETS

ERROR_LINE = re.compile(r"error: [a-z0-9-]+: ")
# commands whose exit code 1 may be a verdict on valid input, not an error
VERDICTS = {"verify-qr", "oracle-check", "weyl-decompose"}
VALUES = (None, True, 0, -1, 2, 7, "1/2", "-3", "x", "", [], [0], [1, -1],
          [[1]], [[0]], {}, {"label": "Q"})
DATASET_COMMANDS = (
    ("validate",),
    ("mult", "--mu", "0", "--m", "3"),
    ("character", "--m", "2"),
    ("series", "--mu", "1", "--m-range", "1..6"),
    ("series", "--mu", "0", "--m-range", "2..5", "--mode", "fixed"),
    ("verify-qr", "--mu", "0", "--m-max", "12"),
    ("oracle-check", "--m-max", "3"),
    ("fit", "--mu", "0", "--m-range", "1..8", "--period", "2", "--degree", "1"),
)
CHARACTER_COMMANDS = (
    ("weyl-decompose",),
    ("weyl-decompose", "--format", "records"),
)


def nodes(doc, path=()):
    """Every path into the document, the root included."""
    yield path
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        return
    for key, value in children:
        yield from nodes(value, path + (key,))


def mutate(doc, rng):
    """The document with one node replaced or deleted."""
    path = rng.choice(list(nodes(doc)))
    value = copy.deepcopy(rng.choice(VALUES))
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if rng.random() < 0.5:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("name, flag, commands, cases", [
    ("cp2_weighted.json", "--dataset", DATASET_COMMANDS, 200),
    ("char_a1_tensor.json", "--character", CHARACTER_COMMANDS, 100),
])
def test_mutated_documents_never_crash(name, flag, commands, cases, capsys, tmp_path):
    rng = random.Random(name)
    original = json.loads((DATASETS / name).read_text())
    path = tmp_path / name
    for case in range(cases):
        doc = mutate(original, rng)
        path.write_text(json.dumps(doc))
        command = rng.choice(commands)
        argv = [command[0], flag, str(path), *command[1:]]
        code = main(argv)
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error")]
        context = (case, argv, doc, err)
        if code == 0:
            assert errors == [], context
        elif errors or command[0] not in VERDICTS:
            assert len(errors) == 1 and ERROR_LINE.match(errors[0]), context
