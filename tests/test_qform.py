import tracemalloc
from math import isqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polysum import catalog, sumset
from polysum.polycore import SumDomain, parse_sum
from polysum.qform import (
    CongruenceCondition,
    DiagonalTernaryForm,
    Family,
    FamilySet,
    ReductionEntry,
    _progression_bitmap,
    _reachable,
    _streams,
    _variable_values,
    canonical_reduction,
    mapped_exception_scan,
    qf_exception_set,
    qf_represents,
    represented_among,
    rep_count_constrained,
    three_square_excluded,
    verify_catalog_form,
    verify_reduction,
)

N, Z = SumDomain.NATURALS, SumDomain.INTEGERS


def _members(families, bound):
    return np.flatnonzero(FamilySet(tuple(families)).bitmap(bound)).tolist()


def test_qf_represents_examples():
    assert qf_represents(DiagonalTernaryForm((1, 1, 1)), 7) is None
    x, y, z = qf_represents(DiagonalTernaryForm((1, 3, 24)), 1)
    assert x * x + 3 * y * y + 24 * z * z == 1
    sol = qf_represents(DiagonalTernaryForm((185, 888, 120)), 42617)
    assert sol is not None
    x, y, z = sol
    assert 185 * x * x + 888 * y * y + 120 * z * z == 42617


def test_qf_represents_honors_conditions():
    odd_x = DiagonalTernaryForm(
        (1, 3, 3), (CongruenceCondition(2, (1,)), None, None))
    sol = qf_represents(odd_x, 4)
    assert sol is not None and sol[0] % 2 == 1
    # 0 forces x = 0, which the odd-x condition refuses
    assert qf_represents(odd_x, 0) is None


@pytest.mark.parametrize("coeffs,bound,expected", [
    ((1, 3, 2), 100, [10, 26, 40, 42, 58, 74, 90]),
    ((5, 1, 1), 50, [3, 11, 12, 19, 27, 35, 43, 44, 48]),
    ((1, 1, 1), 0, []),
])
def test_qf_exception_set(coeffs, bound, expected):
    found = qf_exception_set(DiagonalTernaryForm(coeffs), bound)
    assert found.tolist() == expected


def test_family_examples():
    fam = FamilySet((Family(1, 9, 3, 2),))
    assert _members(fam.families, 30) == [2, 5, 8, 11, 14, 17, 18, 20, 23, 26, 29]
    gauss = FamilySet((Family(1, 4, 8, 7),))
    assert gauss.contains(28)
    assert not gauss.contains(24)
    assert not FamilySet(()).contains(7)


def test_family_enumerate_matches_contains():
    fam = FamilySet((Family(1, 4, 16, 10), Family(1, 1, 3, 2)))
    members = set(_members(fam.families, 500))
    for n in range(501):
        assert (n in members) == fam.contains(n)


_FAMILY = st.integers(1, 40).flatmap(lambda modulus: st.builds(
    Family, st.integers(1, 60), st.sampled_from([1, 4, 9, 16, 25]),
    st.just(modulus), st.integers(0, modulus - 1)))


@settings(max_examples=150, deadline=None)
@given(st.lists(_FAMILY, max_size=3), st.integers(0, 3000))
def test_family_bitmap_equals_contains(families, bound):
    fam = FamilySet(tuple(families))
    bits = fam.bitmap(bound)
    assert bits.shape == (bound + 1,)
    assert bits.tolist() == [fam.contains(n) for n in range(bound + 1)]
    for f in families:
        assert _members([f], bound) == [
            n for n in range(bound + 1) if f.contains(n)]


@pytest.mark.parametrize("family,bound,expected", [
    (Family(7, 4, 3, 0), 6, [0]),        # scale above the bound, residue 0
    (Family(7, 4, 3, 1), 6, []),         # scale above the bound
    (Family(1, 25, 5, 0), 0, [0]),       # bound 0
    (Family(3, 1, 5, 2), 0, []),
    (Family(2, 9, 3, 0), 20, [0, 6, 12, 18]),
    (Family(1, 16, 16, 14), 300, [14, 30, 46, 62, 78, 94, 110, 126, 142, 158,
                                  174, 190, 206, 222, 224, 238, 254, 270,
                                  286]),
])
def test_family_members_edge_cases(family, bound, expected):
    assert _members([family], bound) == expected
    assert expected == [n for n in range(bound + 1) if family.contains(n)]


def _brute_values(coef, cond, top):
    r = isqrt(top // coef)
    ys = range(0, r + 1) if cond is None else \
        [y for y in range(-r, r + 1) if cond.allows(y)]
    return {coef * y * y for y in ys}


def _brute_reachable(form, top):
    first, second, third = (_brute_values(c, cond, top) for c, cond in
                            zip(form.coefficients, form.conditions))
    pairs = {a + b for a in first for b in second if a + b <= top}
    return sorted({p + c for p in pairs for c in third if p + c <= top})


@st.composite
def _conditions(draw):
    if draw(st.booleans()):
        return None
    modulus = draw(st.integers(1, 9))
    residues = draw(st.sets(st.integers(0, modulus - 1), max_size=modulus))
    if draw(st.booleans()):
        # symmetric, as over Z: residues closed under negation
        residues |= {-r % modulus for r in residues}
        return CongruenceCondition(modulus, tuple(sorted(residues)))
    return CongruenceCondition(modulus, tuple(sorted(residues)),
                               lower=draw(st.integers(-60, 5)))


# The third value is the one with the smallest coefficient; across
# coefficients 1-30 its values fall in every residue class mod 8, and the
# tops in every class too.  A pair chunk of 1 sum scatters one row per value,
# and a fold window of 8 bytes cuts a top of 3000 into 47 windows.
# A condition with no residues empties its variable's stream; with the
# coefficients falling by slot, slot i is the i-th stream of _reachable.
@settings(max_examples=150, deadline=None)
@given(st.tuples(*[st.integers(1, 30)] * 3), st.tuples(*[_conditions()] * 3),
       st.integers(0, 3000), st.sampled_from([1, 64, sumset._PAIR_CHUNK]),
       st.sampled_from([8, sumset._FOLD_WINDOW]))
@example((7, 3, 1), (CongruenceCondition(4, ()), None, None), 2000, 64, 8)
@example((7, 3, 1), (None, CongruenceCondition(5, ()), None), 2000, 64, 8)
@example((7, 3, 1), (None, None, CongruenceCondition(3, ())), 2000, 1,
         sumset._FOLD_WINDOW)
def test_reachable_equals_brute_sumset(coeffs, conds, top, chunk, window):
    form = DiagonalTernaryForm(coeffs, conds)
    with mock.patch.object(sumset, "_PAIR_CHUNK", chunk), \
            mock.patch.object(sumset, "_FOLD_WINDOW", window):
        bits = _reachable(form, top)
    # set_bits would list a set padding bit as an entry above top
    assert bits.dtype == np.uint8
    assert bits.size == sumset.bitmap(top + 1, False, packed=True).size
    assert sumset.set_bits(bits).tolist() == _brute_reachable(form, top)


def test_reachable_every_shift_and_top_residue():
    shifts = set()
    for c in range(1, 8):
        form = DiagonalTernaryForm((30, 17, c))
        shifts |= {c * y * y % 8 for y in range(8)}
        for top in range(1200, 1208):
            assert sumset.set_bits(_reachable(form, top)).tolist() == \
                _brute_reachable(form, top), (c, top)
    assert shifts == set(range(8))


# 250 000 packed bytes at 2*10^6 fit one fold window; 2^12-byte windows cut
# them into 62, and the window loop allocates nothing of its own
_MEMORY_WINDOWS = [sumset._FOLD_WINDOW, 1 << 12]


def test_reachable_memory_per_integer():
    # packed from the pair step on: the pair bitmap and the result are top/8
    # bytes each, beside the pair step's window and sum buffer of 512 KiB
    # each.  0.74 bytes per integer; 2.30 with a bool pair bitmap and an
    # unpacked result
    top = 2_000_000
    for window in _MEMORY_WINDOWS:
        tracemalloc.start()
        try:
            with mock.patch.object(sumset, "_FOLD_WINDOW", window):
                _reachable(DiagonalTernaryForm((1, 1, 1)), top)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.9 * top, window


def test_tiled_pair_step_memory_per_integer():
    # with one outer product per chunk of the second stream, the grid of
    # x^2 + y^2 + z^2 at 2*10^6 peaks at 0.74 bytes per integer, and its
    # pair step alone at 0.72: the tiles hold no more at once.  A bool pair
    # bitmap took 2.30 and 1.49
    top = 2_000_000
    form = DiagonalTernaryForm((1, 1, 1))
    first, second = _streams(form, top)[1::-1]
    for window in _MEMORY_WINDOWS:
        peaks = []
        for run in (lambda: _reachable(form, top),
                    lambda: sumset._pair_bits(first, second, top)):
            tracemalloc.start()
            try:
                with mock.patch.object(sumset, "_FOLD_WINDOW", window):
                    run()
                peaks.append(tracemalloc.get_traced_memory()[1] / top)
            finally:
                tracemalloc.stop()
        assert peaks[0] < 0.9 and peaks[1] < 0.85, window


def test_variable_values_of_a_coefficient_above_top():
    # only y = 0 fits, and the product with a coefficient past int64 is
    # never formed
    coef = 10**20
    for cond, values in [(None, [0]),
                         (CongruenceCondition(3, (0, 1)), [0]),
                         (CongruenceCondition(2, (1,)), []),
                         (CongruenceCondition(1, (0,), lower=1), [])]:
        found = _variable_values(coef, cond, 10)
        assert found.dtype == np.int64 and found.tolist() == values, cond


def test_value_grid_above_limit_is_refused_before_allocation():
    form = DiagonalTernaryForm((1, 1, 1))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="above supported"):
            _reachable(form, sumset.MAX_RANGE_BOUND + 1)
        with pytest.raises(ValueError, match="above supported"):
            _progression_bitmap(form, 8880, 3,
                                sumset.MAX_RANGE_BOUND // 8880 + 1)
        with pytest.raises(ValueError, match="above supported"):
            qf_exception_set(form, 10 ** 9)
        # top 8.88e7 fits a bitmap, but the unconditioned pair grid would
        # hold 8.88e7 int64 sums
        with pytest.raises(ValueError, match="pair grid .* above supported"):
            _progression_bitmap(form, 8880, 3, 10_000)
        # a tiny pair grid, but bound + 1 bools above the limit
        with pytest.raises(ValueError, match="bound .* above supported"):
            _progression_bitmap(DiagonalTernaryForm((10 ** 7,) * 3), 1, 0,
                                sumset.MAX_RANGE_BOUND + 1)
        # a tiny pair grid and bound, but the quotient bitmap over
        # [0, top // multiplier] would hold 10^9 bools
        with pytest.raises(ValueError, match="above supported"):
            _progression_bitmap(DiagonalTernaryForm((10 ** 7,) * 3), 1,
                                10 ** 9, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_default_reduction_bound_is_accepted():
    # the progression check allocates bound + 1 bools and the pair grid of
    # two coefficients, never a bitmap over [0, multiplier*bound + constant]:
    # 4440n+2657 reaches 4.4e7 and p31+p33+p39 (multiplier 266104) 2.7e8
    for display, entry in catalog.explicit_reductions():
        assert verify_reduction(entry, 10_000) == (True, None), display
    entry = canonical_reduction(parse_sum("p31+p33+p39", Z))
    assert entry.multiplier * 1000 + entry.constant > sumset.MAX_RANGE_BOUND
    assert verify_reduction(entry, 1000) == (True, None)


@settings(max_examples=100, deadline=None)
@given(st.tuples(*[st.integers(1, 12)] * 3), st.tuples(*[_conditions()] * 3),
       st.lists(st.integers(0, 400), max_size=12))
def test_represented_among_equals_per_n_search(coeffs, conds, ns):
    form = DiagonalTernaryForm(coeffs, conds)
    assert represented_among(form, ns).tolist() == sorted(
        {n for n in ns if qf_represents(form, n) is not None})


# Constants up to 2000 against multipliers down to 1 and bounds down to 0
# give shifts d = (rho + w - C) / M below zero and C / M above the bound.
@settings(max_examples=100, deadline=None)
@given(st.tuples(*[st.integers(1, 12)] * 3), st.tuples(*[_conditions()] * 3),
       st.integers(1, 60), st.integers(0, 2000), st.integers(0, 300))
def test_progression_bitmap_equals_per_n_search(coeffs, conds, multiplier,
                                                constant, bound):
    form = DiagonalTernaryForm(coeffs, conds)
    bits = _progression_bitmap(form, multiplier, constant, bound)
    assert bits.dtype == bool and bits.shape == (bound + 1,)
    assert bits.tolist() == [
        qf_represents(form, multiplier * n + constant) is not None
        for n in range(bound + 1)]


def test_represented_among_legendre_exceptions():
    form = DiagonalTernaryForm((1, 1, 1))
    legendre = [n for n in range(20_001) if three_square_excluded(n)]
    assert represented_among(form, legendre).size == 0
    assert represented_among(form, range(20)).tolist() == [
        n for n in range(20) if not three_square_excluded(n)]
    assert represented_among(form, []).size == 0


def test_catalog_forms_at_small_bound():
    for entry in catalog.regular_form_catalog():
        ok, sieve_only, family_only = verify_catalog_form(
            entry.form, entry.families, 2000)
        assert ok, (entry.display, sieve_only[:5], family_only[:5])


def test_three_square_excluded():
    assert three_square_excluded(7)
    assert three_square_excluded(112)
    assert not three_square_excluded(0)
    for n in range(1000):
        assert not three_square_excluded(12 * n + 2)
        assert three_square_excluded(n) == \
            (qf_represents(DiagonalTernaryForm((1, 1, 1)), n) is None)


def test_canonical_reduction_examples():
    entry = canonical_reduction(parse_sum("p5+p5+2p5", Z))
    assert (entry.multiplier, entry.constant) == (24, 4)
    assert entry.form.coefficients == (1, 1, 2)
    assert all(c.modulus == 6 and c.residues == (1, 5)
               for c in entry.form.conditions)

    entry = canonical_reduction(parse_sum("p3+2p4+p9", Z))
    assert (entry.multiplier, entry.constant) == (56, 32)
    assert entry.form.coefficients == (7, 112, 1)
    assert entry.form.conditions[1] is None
    assert entry.form.conditions[2].modulus == 14
    assert set(entry.form.conditions[2].residues) == {5, 9}

    entry = canonical_reduction(parse_sum("p4+p4+p4", N))
    assert (entry.multiplier, entry.constant) == (1, 0)
    assert entry.form.coefficients == (1, 1, 1)
    assert entry.form.conditions == (None, None, None)


def test_explicit_reductions_verify():
    table = dict(catalog.explicit_reductions())
    for display in ("120n+184", "168n+424", "56n+32"):
        ok, bad = verify_reduction(table[display], 2000)
        assert ok, (display, bad)


def test_broken_reduction_fails_at_zero():
    good = dict(catalog.explicit_reductions())["120n+184"]
    broken = ReductionEntry(good.source, good.multiplier, good.constant + 1,
                            good.form)
    ok, counterexample = verify_reduction(broken, 50)
    assert not ok and counterexample == 0


def test_naturals_reduction_round_trip():
    # naturals-domain conditions carry the one-sided variable bound
    entry = canonical_reduction(parse_sum("p3+p4+p17", N))
    assert entry.form.conditions[2].lower == -13
    ok, bad = verify_reduction(entry, 2000)
    assert ok, bad


def test_mapped_exception_scan_trivial():
    got = mapped_exception_scan(DiagonalTernaryForm((1, 1, 1)), 1, 0, 30)
    assert got.tolist() == [7, 15, 23, 28]


def test_mapped_exception_scan_s_set_prefix():
    got = mapped_exception_scan(DiagonalTernaryForm((1, 1, 64)), 8, 2, 500)
    assert got.tolist() == [5, 40, 217]


def test_mapped_exception_scan_t_set():
    got = mapped_exception_scan(DiagonalTernaryForm((1, 1, 100)), 4, 1, 2000)
    assert got.tolist() == [5, 8, 14, 17, 19, 23, 33, 44, 75, 77, 96, 147,
                            180, 195, 203, 204, 209, 222, 482, 485, 495, 558,
                            720, 854, 1175]
    assert len(got) == 25


def test_parity_counts_match_per_value_counter():
    from polysum.qform import rep_parity_counts
    odd, even = rep_parity_counts((1, 3), 300)
    for n in range(0, 300, 7):
        assert odd[n] == rep_count_constrained((1, 3), n, variable=0,
                                               modulus=2, residues=(1,))
        assert even[n] == rep_count_constrained((1, 3), n, variable=0,
                                                modulus=2, residues=(0,))
    odd3, even3 = rep_parity_counts((3, 1, 1), 200)
    for n in range(0, 200, 11):
        assert odd3[n] == rep_count_constrained((3, 1, 1), n, variable=0,
                                                modulus=2, residues=(1,))


def test_parity_split_existence_for_nonsquare_6n_plus_1():
    from math import isqrt
    from polysum.qform import rep_parity_counts
    top = 6 * 10_000 + 1
    odd, even = rep_parity_counts((1, 3, 6), top)
    for n in range(10_001):
        v = 6 * n + 1
        r = isqrt(v)
        if r * r == v:
            continue
        assert odd[v] > 0 and even[v] > 0, n


def test_progressions_of_theorem_instances():
    import numpy as np
    from polysum.qform import _reachable

    # 12n+5 = x^2 + y^2 + (6z)^2
    top = 12 * 10_000 + 5
    reach = sumset.unpack(_reachable(DiagonalTernaryForm((1, 1, 36)), top),
                          top + 1)
    assert all(reach[12 * n + 5] for n in range(10_001))
    # 12n+4 = x^2 + 3y^2 + 3z^2 with x odd
    from polysum.qform import rep_parity_counts
    odd, _ = rep_parity_counts((1, 3, 3), 12 * 10_000 + 4)
    assert all(odd[12 * n + 4] > 0 for n in range(10_001))
    # non-square 20n+r = 5x^2 + 5y^2 + 4z^2 for r in {1, 9}
    from math import isqrt
    top = 20 * 10_000 + 9
    reach = sumset.unpack(_reachable(DiagonalTernaryForm((5, 5, 4)), top),
                          top + 1)
    for n in range(10_001):
        for r in (1, 9):
            v = 20 * n + r
            root = isqrt(v)
            if root * root != v:
                assert reach[v], (n, r)


def test_squarefull_7n_plus_4_split():
    import numpy as np
    from polysum.qform import _reachable

    limit = 10_000
    top = 7 * limit + 4
    squarefree = np.ones(top + 1, dtype=bool)
    d = 2
    while d * d <= top:
        squarefree[d * d :: d * d] = False
        d += 1
    reach = sumset.unpack(
        _reachable(DiagonalTernaryForm((1, 7, 56)), 56 * limit + 32),
        56 * limit + 33)
    for n in range(limit + 1):
        if not squarefree[7 * n + 4]:
            assert reach[56 * n + 32], n


def test_rep_count_examples():
    assert rep_count_constrained((1, 3), 4, variable=0) == 4
    assert rep_count_constrained((1, 3), 4) == 6
    assert rep_count_constrained((1, 3, 3), 16, variable=0,
                                 modulus=2, residues=(1,)) == 16
    assert rep_count_constrained((1, 3, 3), 16, variable=0,
                                 modulus=2, residues=(0,)) == 10
    assert rep_count_constrained((1, 3), 0) == 1
    assert rep_count_constrained((1, 3), 0, variable=0) == 0
