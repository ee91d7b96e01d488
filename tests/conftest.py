import functools

import pytest

from pcells import verify
from pcells.cells import _partition_from_graph
from pcells.stars import DihedralStrings


@pytest.fixture(scope="session")
def a2():
    return verify.get_system("A2")


@pytest.fixture(scope="session")
def a3():
    return verify.get_system("A3")


@pytest.fixture(scope="session")
def b2():
    return verify.get_system("B2")


@pytest.fixture(scope="session")
def b3():
    return verify.get_system("B3")


@pytest.fixture(scope="session")
def c3():
    return verify.get_system("C3")


@pytest.fixture(scope="session")
def g2():
    return verify.get_system("G2")


@pytest.fixture(scope="session")
def kl_a2():
    return verify.get_kl("A2")


@pytest.fixture(scope="session")
def kl_a3():
    return verify.get_kl("A3")


@pytest.fixture(scope="session")
def kl_b2():
    return verify.get_kl("B2")


@pytest.fixture(scope="session")
def kl_b3():
    return verify.get_kl("B3")


@pytest.fixture(scope="session")
def kl_c3():
    return verify.get_kl("C3")


@pytest.fixture(scope="session")
def c3_p2():
    return verify.get_table("C3", 2)


@pytest.fixture(scope="session")
def b2_p2():
    return verify.get_table("B2", 2)


def _rebuilt(partition, system, edit):
    """A copy of the partition condensed from its full preorder graph
    (y -> x whenever x <= y) after edit(succ) changed the graph."""
    succ = {y: set().union(*(partition.cells[j] for j in
                             partition.downsets[partition.cell_of[y]]))
            for y in system.elements()}
    edit(succ)
    return _partition_from_graph(system, succ, partition.side,
                                 partition.prime)


def _mutants(partition, system, i, j):
    """Broken copies of the partition by edit name, with a and b the
    minima of cells i and j: the two cells merged, cell i split with a
    strictly above the rest of it, and a moved into cell j, with b's
    relations."""
    a, b = partition.cells[i][0], partition.cells[j][0]

    def merge(succ):
        succ[a].add(b)
        succ[b].add(a)

    def split(succ):
        for y in partition.cells[i][1:]:
            succ[y].discard(a)

    def move(succ):
        for row in succ.values():
            row.discard(a)
        succ[a] = succ[b] | {a}
        for row in succ.values():
            if b in row:
                row.add(a)

    return {name: _rebuilt(partition, system, edit)
            for name, edit in (("merge", merge), ("split", split),
                               ("move", move))}


@functools.cache
def _left_mutants(label):
    system = verify.get_system(label)
    left = verify.get_cells(label, 0, "left")
    star = DihedralStrings(system, 0, 1).star
    image = {i: left.cell_of[star[c[0]]] for i, c in enumerate(left.cells)
             if all(x in star for x in c)}
    i = next(i for i in image if image[i] != i and len(left.cells[i]) > 1)
    j = next(j for j in image
             if j != i and not {image[i], image[j]} & {i, j})
    return _mutants(left, system, i, j)


@pytest.fixture(scope="session")
def left_mutants():
    """Broken copies of the p = 0 left cells of a group by label: two cells
    merged, one split in two, one element moved into another cell.  The
    cells are inside D_R(1, 2), and neither star image is one of them, so
    each mutant breaks star invariance on D_R(1, 2) as well as inverse
    duality."""
    return _left_mutants


@functools.cache
def _right_mutants(label):
    system = verify.get_system(label)
    right = verify.get_cells(label, 0, "right")
    i, j = [k for k, c in enumerate(right.cells) if len(c) > 1][:2]
    mutants = _mutants(right, system, i, j)
    return {name: mutants[name] for name in ("split", "move")}


@pytest.fixture(scope="session")
def right_mutants():
    """Broken copies of the p = 0 right cells of a group by label: the
    first cell with two elements or more split in two, and its minimum
    moved into the next such cell."""
    return _right_mutants
