"""Every per-value cache is a functools.cache keyed by the value of Field
and FiniteTateModel, never by identity: equal values built separately get
the same object from every cached builder."""

from toyshtlab import tate
from conftest import PACKAGE_CACHES
from toyshtlab.charts import canonical_chart, jtype_probe_base, rank_le1_locus
from toyshtlab.divisors import incidence_lists, singer_table
from toyshtlab.gf import Field
from toyshtlab.linalg import echelonize, packing, rational_subspaces
from toyshtlab.toysht import flags, toy_points


def _jtype_base(f):
    J = echelonize(f, [(1, 0, 0)], 3)
    return jtype_probe_base(f, 3, 1, J, next(x for x in flags(f, 3, 1, "right")
                                             if x.small.contains(J)))


def _standard(model, dim):
    return model.subspace([tuple(int(k == i) for k in range(model.D)) for i in range(dim)])


def test_equal_values_share_every_cached_table():
    # F_4 has one modulus, so seed 1 builds the same value
    F, G = Field(2, 1, 2), Field(2, 1, 2, seed=1)
    assert F is not G and F == G and hash(F) == hash(G)
    # the same order and modulus over another base field is another value
    assert Field(2, 2, 1) != F and Field(2, 1, 2) != Field(3, 1, 1)
    W = rational_subspaces(F, 4, 2)[3]
    field_builders = [
        lambda f: packing(f, 3),
        lambda f: rational_subspaces(f, 4, 2),
        lambda f: toy_points(f, 4, 2),
        lambda f: flags(f, 3, 1, "right"),
        lambda f: flags(f, 3, 2, "left"),
        lambda f: canonical_chart(f, W),
        lambda f: rank_le1_locus(f, 2, 3),
        lambda f: incidence_lists(f, 3),
        lambda f: singer_table(f, 3),
        lambda f: singer_table(f, 4),
        _jtype_base,
    ]
    for build in field_builders:
        assert build(F) is build(G)
    # odd characteristic, where there is no packing
    F9, G9 = Field(3, 1, 2), Field(3, 1, 2)
    assert rational_subspaces(F9, 3, 1) is rational_subspaces(G9, 3, 1)
    assert singer_table(F9, 3) is singer_table(G9, 3)
    assert toy_points(F9, 3, 2) is toy_points(G9, 3, 2)
    assert flags(F9, 3, 1, "right") is flags(G9, 3, 1, "right")

    # two models over separately built F_3, each with its own subspaces
    m, n = (tate.FiniteTateModel(Field(3, 1, 1), 4, -2) for _ in range(2))
    assert m is not n and m.field is not n.field and m == n and hash(m) == hash(n)
    assert tate.FiniteTateModel(Field(3, 1, 1), 4, -1) != m
    chains = [tuple(_standard(x, d) for d in (1, 2, 3)) for x in (m, n)]
    model_builders = [
        lambda x, c: x.vectors(),
        lambda x, c: x.line_index(),
        lambda x, c: x.lines(),
        lambda x, c: x.pair_zero_table(),
        lambda x, c: tate.shell_keys(x, c[0], c[2]),
        lambda x, c: tate._extension_gathers(x, c[0], c[2]),
        lambda x, c: tate.canonical_generators(x, list(c)),
    ]
    for build in model_builders:
        assert build(m, chains[0]) is build(n, chains[1])


def test_conftest_clears_every_package_cache():
    # the scan that empties caches between tests finds those that count
    names = {f"{c.__module__}.{c.__qualname__}" for c in PACKAGE_CACHES}
    assert names >= {"toyshtlab.toysht._toy_points", "toyshtlab.toysht._flags",
                     "toyshtlab.charts.canonical_chart", "toyshtlab.linalg.packing",
                     "toyshtlab.charts.jtype_probe_base", "toyshtlab.gf._field",
                     "toyshtlab.divisors.singer_table"}
    # and the caches of methods, which live on their classes
    assert names >= {"toyshtlab.tate.FiniteTateModel.vectors",
                     "toyshtlab.tate.FiniteTateModel.line_index",
                     "toyshtlab.tate.FiniteTateModel.pair_zero_table"}
    assert len(names) == len(PACKAGE_CACHES)
