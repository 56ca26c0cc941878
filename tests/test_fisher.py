import copy
import dataclasses
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dephimetry import (
    CovarianceMatrix,
    DensityMatrix,
    ExperimentConfig,
    GeneratorSpec,
    Povm,
    bayes_estimators,
    build_c1,
    build_c2,
    classical_fi,
    conditional_covariance,
    conditional_dephased_state,
    delta2_c,
    dephase,
    encode_phase,
    ghz_state,
    optimal_povm,
    product_plus_state,
    qfi,
    sld,
    variance,
    verify_bound,
)
import dephimetry.fisher
from dephimetry.core import ROW_BLOCK_ELEMENTS, _support, derivative_state

from helpers import (
    SIGMA_Y,
    collective_and_local,
    dense_basis,
    dense_effects,
    dense_optimal_basis,
    dense_plus_qfi,
    dense_qfi,
    dense_sld,
    dense_traces,
    embedded_case,
    frame_case,
    lapack_kinds,
    measurement_case,
    random_density,
    random_projective_povm,
    random_psd_cov,
    random_pure_density,
    rng,
    tie_breaks_past_test,
    traced_peak_mb,
)

FOUR_OVER_E = 1.4715177646857693


class TestPovm:
    def test_projective_complete(self):
        povm = Povm.projective(np.eye(3))
        assert povm.outcomes == 3
        assert povm.dim == 3

    def test_rejects_incomplete(self):
        with pytest.raises(ValueError, match="identity"):
            Povm((np.diag([1.0, 0.0]).astype(complex),))

    def test_rejects_nonhermitian_effect(self):
        bad = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermiticity"):
            Povm((bad, np.eye(2) - bad))

    def test_rejects_negative_effect(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="negative"):
            Povm((bad, np.eye(2) - bad))

    @pytest.mark.parametrize("build", [Povm.projective, lambda a: Povm([a])],
                             ids=["projective", "effects"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, build, bad):
        with pytest.raises(ValueError, match="non-finite"):
            build(np.full((2, 2), bad))

    def test_accepts_stacked_effects(self):
        povm = Povm(np.stack([np.eye(2) / 2, np.eye(2) / 2]))
        assert povm.outcomes == 2

    def test_probabilities_sum_to_one(self):
        rho = random_density(rng(0), 4)
        povm = random_projective_povm(rng(1), 4)
        p = povm.probabilities(rho)
        assert np.all(p >= -1e-12)
        assert math.isclose(p.sum(), 1.0, abs_tol=1e-10)

    def test_nonprojective_allowed(self):
        third = np.eye(2) / 3
        povm = Povm((third, third, third))
        assert povm.outcomes == 3

    def test_rank_one_effects_keep_one_column_each(self):
        # rounding-level eigenvalues of a dense rank-one effect add no column
        q, _ = np.linalg.qr(rng(3).normal(size=(64, 64)) + 1j * rng(4).normal(size=(64, 64)))
        povm = Povm([np.outer(q[:, k], q[:, k].conj()) for k in range(64)])
        assert povm.vectors.shape == (64, 64)
        np.testing.assert_array_equal(povm.labels, np.arange(64))

    def test_grouped_columns_allocate_nothing_per_outcome(self):
        # two columns per outcome are summed by label when they are read, so
        # building the measurement allocates nothing of size columns x
        # outcomes (a 0/1 membership matrix here would be 16 MiB)
        dim = 1024
        vectors, labels = np.zeros((dim, 2 * dim), dtype=np.complex128), np.arange(2 * dim) // 2
        assert traced_peak_mb(Povm._from_columns, vectors, labels, dim) < 0.1

    @pytest.mark.parametrize("case", ["pure", "grouped"])
    def test_pickle_and_copy_round_trip(self, case):
        rho, povm, _ = measurement_case(case, 2, seed=5)
        for clone in (pickle.loads(pickle.dumps(povm)), copy.copy(povm), copy.deepcopy(povm)):
            np.testing.assert_array_equal(clone.vectors, povm.vectors)
            np.testing.assert_array_equal(clone.labels, povm.labels)
            np.testing.assert_array_equal(clone.probabilities(rho), povm.probabilities(rho))

    def test_immutable(self):
        povm = Povm.projective(np.eye(2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            povm.outcomes = 3
        with pytest.raises(ValueError, match="read-only"):
            povm.vectors[0, 0] = 2.0

    def test_projective_rejects_incomplete_basis(self):
        with pytest.raises(ValueError, match="identity"):
            Povm.projective(np.array([[1.0, 0.0], [0.0, 0.5]]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("case", ["pure", "mixed", "grouped"])
    def test_factored_traces_match_dense(self, case, n):
        gen = GeneratorSpec.qubits(n)
        rho, povm, effects = measurement_case(case, n, seed=10 * n)
        assert povm.outcomes == len(effects)
        np.testing.assert_allclose(
            povm.probabilities(rho), dense_traces(rho.entries, effects), rtol=0, atol=1e-13
        )
        # one statistics pass: the total energies give Tr(-i [H, rho] Pi_x),
        # each row of the site table Tr(-i [S_j, rho] Pi_x)
        _, dp = povm.statistics(rho, gen.energies)
        drho = derivative_state(rho, gen).entries
        np.testing.assert_allclose(dp, dense_traces(drho, effects), rtol=0, atol=1e-13)
        table = gen.site_energy_table
        _, site = povm.statistics(rho, table)
        for h, traces in zip(table, site):
            drho_j = -1j * np.subtract.outer(h, h) * rho.entries
            np.testing.assert_allclose(traces, dense_traces(drho_j, effects), rtol=0, atol=1e-13)
        for built, given_effect in zip(dense_effects(povm), effects):
            np.testing.assert_allclose(built, given_effect, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("mixing", [False, True], ids=["blocked", "mixing"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("case", ["pure", "mixed", "grouped"])
    def test_restricted_traces_match_dense(self, case, n, mixing):
        gen = GeneratorSpec.qubits(n + 1)
        rho, povm, effects = embedded_case(case, n, seed=10 * n, mixing=mixing)
        live = _support(rho.entries)
        assert live.size == rho.dim // 2
        sub = povm.restrict(live)
        assert sub.outcomes == povm.outcomes
        np.testing.assert_allclose(sum(dense_effects(sub)), np.eye(live.size), rtol=0, atol=1e-12)
        if not mixing:
            assert np.unique(sub.labels).size < povm.outcomes
        p = dense_traces(rho.entries, effects)
        np.testing.assert_allclose(povm.probabilities(rho), p, rtol=0, atol=1e-13)
        dp = dense_traces(derivative_state(rho, gen).entries, effects)
        fired = p > 1e-12
        expected = float(np.sum(dp[fired] ** 2 / p[fired]))
        assert math.isclose(classical_fi(rho, gen, povm), expected, rel_tol=1e-10, abs_tol=1e-12)

    def test_probabilities_dimension_mismatch(self):
        # a dim-8 state on rows 0 and 1 would otherwise be read through
        # the first rows of a dim-4 POVM without an error
        povm = random_projective_povm(rng(2), 4)
        low = DensityMatrix(np.diag([0.5, 0.5, 0, 0, 0, 0, 0, 0]).astype(complex))
        for rho in (low, ghz_state(3), product_plus_state(1)):
            with pytest.raises(ValueError, match="dimensions"):
                povm.probabilities(rho)

    def test_restrict_full_support_keeps_povm(self):
        povm = random_projective_povm(rng(3), 4)
        assert povm.restrict(slice(None)) is povm


class TestSld:
    def test_pure_state_is_twice_derivative(self):
        gen = GeneratorSpec.qubits(2)
        rho = random_pure_density(rng(2), 4)
        expected = 2.0 * derivative_state(rho, gen).entries
        np.testing.assert_allclose(sld(rho, gen).entries, expected, atol=1e-10)

    @given(seed=st.integers(0, 60))
    def test_defining_equation_full_rank(self, seed):
        gen = GeneratorSpec.qubits(2)
        rho = random_density(rng(seed), 4)
        ell = sld(rho, gen).entries
        lhs = ell @ rho.entries + rho.entries @ ell
        rhs = 2.0 * derivative_state(rho, gen).entries
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_qfi_is_second_moment_of_sld(self):
        gen = GeneratorSpec.qubits(2)
        rho = random_density(rng(3), 4)
        ell = sld(rho, gen).entries
        assert math.isclose(
            qfi(rho, gen), np.trace(rho.entries @ ell @ ell).real, rel_tol=1e-10
        )

    def test_zero_for_diagonal_state(self):
        gen = GeneratorSpec.qubits(2)
        rho_diag = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        from dephimetry import DensityMatrix

        ell = sld(DensityMatrix(rho_diag), gen)
        np.testing.assert_allclose(ell.entries, 0.0, atol=1e-14)


class TestQfi:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ghz_quadratic(self, n):
        gen = GeneratorSpec.qubits(n)
        assert math.isclose(qfi(ghz_state(n), gen), n**2, rel_tol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_plus_linear(self, n):
        gen = GeneratorSpec.qubits(n)
        assert math.isclose(qfi(product_plus_state(n), gen), n, rel_tol=1e-12)

    @given(seed=st.integers(0, 80))
    def test_pure_equals_four_variance(self, seed):
        gen = GeneratorSpec.qubits(2)
        rho = random_pure_density(rng(seed), 4)
        assert math.isclose(
            qfi(rho, gen), 4.0 * variance(gen.hamiltonian(), rho), abs_tol=1e-9
        )

    def test_dephased_ghz_frozen_value(self):
        # 2 beta^2 = 0.5, independent noise on 2 qubits: F = 4 e^{-1}
        gen = GeneratorSpec.qubits(2)
        rb = dephase(ghz_state(2), gen, build_c1(2, 0.5, 0.0))
        assert math.isclose(qfi(rb, gen), FOUR_OVER_E, rel_tol=1e-12)

    @given(phi=st.floats(-3, 3, allow_nan=False), seed=st.integers(0, 40))
    def test_invariant_under_encoding(self, phi, seed):
        gen = GeneratorSpec.qubits(2)
        rho = random_density(rng(seed), 4)
        assert math.isclose(
            qfi(encode_phase(rho, gen, phi), gen), qfi(rho, gen), rel_tol=1e-8
        )

    def test_maximally_mixed_is_zero(self):
        from dephimetry import DensityMatrix

        gen = GeneratorSpec.qubits(2)
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4)
        assert qfi(rho, gen) == 0.0


FRAME_CASES = ["complex", "real", "subset", "deficient", "ghz", "plus"]


class TestSupportFrame:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("case", FRAME_CASES)
    def test_matches_dense_frame(self, case, n):
        gen = GeneratorSpec.qubits(n)
        rho = frame_case(case, n, seed=7 * n)
        assert math.isclose(qfi(rho, gen), dense_qfi(rho, gen), rel_tol=1e-12)
        np.testing.assert_allclose(sld(rho, gen).entries, dense_sld(rho, gen), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", ["subset", "deficient"])
    def test_defining_equation_with_zero_rows(self, case):
        gen = GeneratorSpec.qubits(3)
        rho = frame_case(case, 3, seed=11)
        assert (np.abs(rho.entries).sum(axis=1) == 0).any()
        ell = sld(rho, gen).entries
        lhs = ell @ rho.entries + rho.entries @ ell
        rhs = 2.0 * derivative_state(rho, gen).entries
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("build", [build_c1, build_c2], ids=["c1", "c2"])
    def test_dephased_ghz_closed_form_n10(self, build):
        gen = GeneratorSpec.qubits(10)
        cov = build(10, 0.5, 0.5)
        expected = 100.0 * math.exp(-cov.entries.sum())
        assert math.isclose(qfi(dephase(ghz_state(10), gen, cov), gen), expected, rel_tol=1e-12)

    def test_dephased_plus_closed_form_n10(self):
        gen = GeneratorSpec.qubits(10)
        rb = dephase(product_plus_state(10), gen, CovarianceMatrix(0.5 * np.eye(10)))
        assert math.isclose(qfi(rb, gen), 10.0 * math.exp(-0.5), rel_tol=1e-12)

    def test_memory_budget_dephased_ghz_n10(self):
        # a dense complex frame at dim 1024 peaks at 65 MiB
        gen = GeneratorSpec.qubits(10)
        rho = dephase(ghz_state(10), gen, build_c2(10, 0.5, 0.5))
        assert traced_peak_mb(qfi, rho, gen) <= 16.0

    def test_memory_budget_dephased_plus_n10(self):
        # full real support: the 1024 x 1024 block alone is 8 MiB, and one
        # full real frame holds 26 MiB; this state passes the orbit gate
        # and holds 2.5 MiB
        gen = GeneratorSpec.qubits(10)
        rho = dephase(product_plus_state(10), gen, build_c1(10, 0.5, 0.5))
        assert traced_peak_mb(qfi, rho, gen) <= 16.0


SPECTRA = {"qubit": (0.5, -0.5), "qutrit": (1.0, 0.0, -1.0)}


def flip_symmetric_state(seed, gen, kind, real):
    """A state equal to its index reversal entry for entry, on a random
    support closed under reversal with at least two pairs of rows: "pure"
    (a flip-even or flip-odd vector), "mixed" (full rank on its support)
    or "deficient" (rank at most 2 on a support of at least 4 rows)."""
    r = rng(seed)
    dim = gen.dim
    first = np.arange(dim // 2)
    picked = np.sort(r.choice(first, size=int(r.integers(2, first.size + 1)), replace=False))
    live = np.concatenate([picked, dim - 1 - picked[::-1]])
    size = live.size

    def draw(cols):
        x = r.normal(size=(size, cols))
        return x if real else x + 1j * r.normal(size=(size, cols))

    if kind == "pure":
        x = draw(1)[:, 0]
        psi = x + (1 if r.integers(2) else -1) * x[::-1]
        block = np.outer(psi, psi.conj())
    else:
        x = draw(1 if kind == "deficient" else 2 * size)
        block = x @ x.conj().T
        block = (block + block[::-1, ::-1]) / 2
    entries = np.zeros((dim, dim), dtype=np.complex128)
    entries[np.ix_(live, live)] = block / np.trace(block).real
    return DensityMatrix(entries)


def orbit_route(fn, *args):
    """(fn(*args), whether every qfi it ran took the orbit rows): every
    other input diagonalises one full frame, of the dephased state given a
    covariance."""
    fisher = dephimetry.fisher
    with mock.patch.object(fisher, "dephase", wraps=fisher.dephase) as dephased, \
            mock.patch.object(fisher, "_eig_frame", wraps=fisher._eig_frame) as framed:
        value = fn(*args)
    return value, dephased.call_count == framed.call_count == 0


def orbit_qfi(rho, gen, cov=None):
    return orbit_route(qfi, rho, gen, cov)


def klein_state(seed, gen, real=True, group=("flip", "reversal")):
    """A full-rank state equal to its images under the spin flip J and the
    site reversal R (each of `group`) entry for entry: the group average of
    a random Gram matrix, as sums of the pairs the group swaps, so the
    average is exactly symmetric."""
    r = rng(seed)
    dim = gen.dim
    x = r.normal(size=(dim, 2 * dim))
    if not real:
        x = x + 1j * r.normal(size=(dim, 2 * dim))
    m = x @ x.conj().T
    images = {"flip": np.arange(dim)[::-1],
              "reversal": np.arange(dim).reshape(gen.dims).transpose().ravel()}
    for g in group:
        m = m + m[np.ix_(images[g], images[g])]
    return DensityMatrix(m / np.trace(m).real)


def klein_vector(seed, gen, flip, reversal):
    """A random complex vector with J v = flip v and R v = reversal v entry
    for entry (each sign +1 or -1): x symmetrised under J, then under R, as
    sums of two entries, which read the same in either order."""
    r = rng(seed)
    x = r.normal(size=gen.dim) + 1j * r.normal(size=gen.dim)
    x = x + flip * x[::-1]
    return x + reversal * x[np.arange(gen.dim).reshape(gen.dims).transpose().ravel()]


def persymmetric_cov(seed, n):
    """A random covariance equal to its site reversal C[::-1, ::-1]."""
    c = random_psd_cov(rng(seed), n).entries
    return CovarianceMatrix(c + c[::-1, ::-1])


def dense_dephased_qfi(rho, gen, cov):
    return dense_qfi(dephase(rho, gen, cov), gen)


NOISE_FAMILIES = {
    "identity": lambda n, b2: CovarianceMatrix(b2 * np.eye(n)),
    "c1": lambda n, b2: build_c1(n, b2, 0.5),
    "c2": lambda n, b2: build_c2(n, b2, 0.5),
}


class TestFullFrame:
    @given(
        seed=st.integers(0, 10_000),
        sites=st.sampled_from([("qubit", 3), ("qubit", 4), ("qutrit", 2), ("qutrit", 3)]),
        kind=st.sampled_from(["pure", "mixed", "deficient"]),
        real=st.booleans(),
    )
    def test_flip_symmetric_states(self, seed, sites, kind, real):
        # equal to their spin flip but not to their site reversal, on
        # partial supports too: the gate fails, and one frame of the
        # support block is exact (on two qubits every flip-even or flip-odd
        # vector is also even or odd under the site reversal)
        spectrum, nsites = sites
        gen = GeneratorSpec((SPECTRA[spectrum],) * nsites)
        rho = flip_symmetric_state(seed, gen, kind, real)
        value, took = orbit_qfi(rho, gen)
        assert not took
        assert math.isclose(value, dense_qfi(rho, gen), rel_tol=1e-12)

    @pytest.mark.parametrize("case", ["rotated", "random", "levels", "ghz"])
    def test_gate_falls_back(self, case):
        # a phase-rotated Klein state (J maps E to c - E, so the phases
        # break J), a random state, level energies that do not pair up under
        # J, and GHZ's two-row support
        gen = GeneratorSpec.qubits(4)
        rho = klein_state(9, gen)
        if case == "rotated":
            rho = encode_phase(rho, gen, 0.3)
        elif case == "random":
            rho = random_density(rng(8), 16)
        elif case == "levels":
            gen = GeneratorSpec(((0.0, 1.0, 3.0),) * 2)
            rho = klein_state(3, gen)
        elif case == "ghz":
            rho = dephase(ghz_state(4), gen, build_c2(4, 0.5, 0.5))
        value, took = orbit_qfi(rho, gen)
        assert not took
        assert math.isclose(value, dense_qfi(rho, gen), rel_tol=1e-12)


class TestOrbitRoute:
    @given(
        seed=st.integers(0, 10_000),
        sites=st.sampled_from([("qubit", n) for n in range(1, 5)] + [("qutrit", 2), ("qutrit", 3)]),
        real=st.booleans(),
        noise=st.booleans(),
    )
    def test_matches_dense_frame(self, seed, sites, real, noise):
        # the sectors of rho itself without a covariance, of the dephased
        # state with one
        spectrum, nsites = sites
        gen = GeneratorSpec((SPECTRA[spectrum],) * nsites)
        rho = klein_state(seed, gen, real)
        cov = persymmetric_cov(seed + 1, nsites) if noise else None
        value, took = orbit_qfi(rho, gen, cov)
        assert took
        if noise:
            assert math.isclose(value, dense_dephased_qfi(rho, gen, cov), rel_tol=1e-13)
        else:
            assert math.isclose(value, dense_qfi(rho, gen), rel_tol=1e-12)

    @pytest.mark.parametrize("sites", [
        ((0.5, -0.5),), ((1.0, 0.0, -1.0),) * 2, ((1.0, 0.0, -1.0),) * 3,
        ((0.5, -0.5), (1.5, 0.5, -0.5, -1.5), (0.5, -0.5)),
    ], ids=["one-qubit", "two-qutrits", "three-qutrits", "palindrome"])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_small_and_qutrit_sites(self, sites, real):
        # one site: R is the identity, so both R-odd sectors are empty; J
        # fixes the middle qutrit level, and the all-middle state of three
        # qutrits is an orbit of one
        gen = GeneratorSpec(sites)
        rho, cov = klein_state(5, gen, real), persymmetric_cov(6, gen.nsites)
        value, took = orbit_qfi(rho, gen, cov)
        assert took
        assert math.isclose(value, dense_dephased_qfi(rho, gen, cov), rel_tol=1e-13)

    def test_two_qubits_leave_one_sector_empty(self):
        # |00>, |11> are R-fixed and |01>, |10> JR-fixed, so the R-odd
        # parity has no J-even row: that frame has an empty spectrum, which
        # the rank rule skips
        gen = GeneratorSpec.qubits(2)
        rule, sizes = dephimetry.fisher._kept_pairs, []

        def spy(spectra):
            sizes.extend((lam.size, lam2.size) for _, lam, lam2 in spectra)
            yield from rule(spectra)

        cov = build_c2(2, 0.5, 0.5)
        with mock.patch.object(dephimetry.fisher, "_kept_pairs", spy):
            value = qfi(product_plus_state(2), gen, cov)
        assert sizes == [(2, 1), (0, 1)]
        assert math.isclose(value, dense_plus_qfi(cov), rel_tol=1e-13)

    @pytest.mark.parametrize("case", ["covariance", "state", "spectra", "ghz"])
    def test_gate_falls_back_bitwise(self, case):
        # a covariance that is not persymmetric, a state with J but not R,
        # site spectra that differ when reversed (E + E[::-1] is still
        # constant), and GHZ's two-row support
        gen = GeneratorSpec.qubits(3)
        rho, cov = klein_state(7, gen), build_c2(3, 0.5, 0.5)
        if case == "covariance":
            cov = random_psd_cov(rng(8), 3)
        elif case == "state":
            rho = klein_state(7, gen, group=("flip",))
        elif case == "spectra":
            gen = GeneratorSpec(((0.5, -0.5), (0.5, -0.5), (1.0, -1.0)))
        elif case == "ghz":
            rho = ghz_state(3)
        value, took = orbit_qfi(rho, gen, cov)
        assert not took
        assert value == qfi(dephase(rho, gen, cov), gen)

    @pytest.mark.parametrize("heavy", ["even", "odd"])
    def test_rank_rule_spans_both_parities(self, heavy):
        # nearly all weight on a J-even vector of one R parity and 1e-15 on
        # a J-odd vector of the other: the light vector's pairs with the
        # empty J-even modes of its parity sum to 1e-15, below the floor 8
        # eps of the largest eigenvalue over both frames, so they are
        # dropped as in the full frame, and only the heavy vector's pairs
        # with the J-odd modes of its own parity stay (3 rows for R-even, 1
        # for R-odd at n = 3); a floor set by the light frame's own top
        # would keep them too
        gen = GeneratorSpec.qubits(3)
        sign = {"even": 1.0, "odd": -1.0}[heavy]
        big = klein_vector(13, gen, flip=1.0, reversal=sign)
        small = klein_vector(14, gen, flip=-1.0, reversal=-sign)
        eps = 1e-15
        entries = (1 - eps) * np.outer(big, big.conj()) / np.vdot(big, big).real
        entries += eps * np.outer(small, small.conj()) / np.vdot(small, small).real
        rho = DensityMatrix(entries)
        rule = dephimetry.fisher._kept_pairs
        masks = []

        def spy(spectra):
            for denom, keep in rule(spectra):
                masks.append(keep)
                yield denom, keep

        with mock.patch.object(dephimetry.fisher, "_kept_pairs", spy):
            value, took = orbit_qfi(rho, gen)
        assert took
        assert [mask.sum() for mask in masks] == ([3, 0] if heavy == "even" else [0, 1])
        assert math.isclose(value, dense_qfi(rho, gen), rel_tol=1e-13)

    @pytest.mark.parametrize("family", sorted(NOISE_FAMILIES))
    @pytest.mark.parametrize("n", range(1, 11))
    def test_dephased_state_or_probe_and_covariance(self, n, family):
        # the probe with a covariance takes the orbit rows at every point;
        # the dephased state takes them where its rounded entries are still
        # equal to their R images (at 2 beta^2 = 0.01 and 0.1 from n = 4 on
        # they are not, and it takes the full frame).  Either way the two
        # agree to rounding (6.5e-15 measured), not bit for bit.
        gen = GeneratorSpec.qubits(n)
        probe = product_plus_state(n)
        for two_beta2 in (0.01, 0.1, 0.5, 2.0, 5.0, 50.0):
            cov = NOISE_FAMILIES[family](n, two_beta2)
            direct, took = orbit_qfi(probe, gen, cov)
            assert took
            state = qfi(dephase(probe, gen, cov), gen)
            assert math.isclose(state, direct, rel_tol=1e-13), two_beta2

    # F_rho-bar (Delta^2_C + 1 / F_rho') for the conditional bound, at the
    # points of ROADMAP item 2's table
    CONDITIONAL_RATIOS = {(4, "identity"): 0.933527, (8, "identity"): 0.962399,
                          (8, "c2"): 0.969111}

    @pytest.mark.parametrize("family", sorted(NOISE_FAMILIES))
    @pytest.mark.parametrize("n", [4, 8, 10])
    def test_conditional_covariance(self, n, family):
        # C' = C - Delta^2_C 11^T stays persymmetric, so F_rho' takes the orbit
        # rows too, and agrees with the QFI of the conditional state (2.5e-15
        # measured); dephasing by C' loses less than by C, and nothing is
        # above the noiseless n
        gen, probe = GeneratorSpec.qubits(n), product_plus_state(n)
        cov = NOISE_FAMILIES[family](n, 0.5)
        residual = conditional_covariance(cov)
        f_bar, took_bar = orbit_qfi(probe, gen, cov)
        f_cond, took_cond = orbit_qfi(probe, gen, residual)
        assert took_bar and took_cond
        assert f_bar <= f_cond * (1 + 1e-12)
        assert f_cond <= n * (1 + 1e-12)
        state = qfi(conditional_dephased_state(probe, gen, cov, 0.0), gen)
        assert math.isclose(f_cond, state, rel_tol=1e-13)
        if family != "c2":  # uniform weights: 1 is in the null space of C'
            ones = np.ones(n)
            assert abs(ones @ residual.entries @ ones) <= 1e-14 * (ones @ cov.entries @ ones)
        ratio = self.CONDITIONAL_RATIOS.get((n, family))
        if ratio is not None:
            assert round(f_bar * (delta2_c(cov) + 1 / f_cond), 6) == ratio

    def test_verify_bound_takes_orbit_rows(self):
        # both of its qfi calls, F_rho of the probe and F_rho-bar, each
        # diagonalising the four sectors and nothing larger
        gen, cov = GeneratorSpec.qubits(10), build_c2(10, 0.5, 0.5)
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            report, took = orbit_route(verify_bound, product_plus_state(10), gen, cov)
        assert took
        assert sorted(call.args[0].shape[0] for call in eigh.call_args_list) == \
            sorted([240, 256, 256, 272] * 2)
        assert math.isclose(report.f_rho, 10.0, rel_tol=1e-13)
        assert math.isclose(report.f_rho_bar, dense_plus_qfi(cov), rel_tol=1e-13)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_product_plus_c2_grid(self, n):
        # every c2 point takes the orbit rows, strong nearly collective
        # noise (2 beta^2 >= 20 at alpha = 0.99) too, and matches the dense
        # eigh of the whole dephased state's J-even and J-odd halves
        gen = GeneratorSpec.qubits(n)
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            for two_beta2 in (0.01, 0.1, 0.5, 2.0, 5.0, 20.0, 50.0):
                cov = build_c2(n, two_beta2, alpha)
                value, took = orbit_qfi(product_plus_state(n), gen, cov)
                assert took, (alpha, two_beta2)
                assert math.isclose(value, dense_plus_qfi(cov), rel_tol=1e-13), (alpha, two_beta2)

    def test_split_oracle_is_the_full_frame(self):
        # the halves of dense_plus_qfi against one eigh of the whole 1024-row
        # state, at the point of the n = 10 grid where the two differ most
        # (1.3e-14)
        cov = build_c2(10, 0.1, 0.99)
        assert math.isclose(dense_plus_qfi(cov), dense_plus_qfi(cov, split=False),
                            rel_tol=1e-13)

    def test_memory_budget_n10(self):
        # the rows of rho-bar at the 272 representatives, 16 at a time, and
        # the three sector blocks of one R parity, each freed once reduced,
        # beside the first parity's frame: 2.7 MiB traced (the measured peak
        # plus 25% is the budget), where one 2^n x 2^n float array alone is
        # 8 MiB; no eigh sees more than a sector
        gen, cov = GeneratorSpec.qubits(10), build_c2(10, 0.5, 0.5)
        probe = product_plus_state(10)
        assert traced_peak_mb(qfi, probe, gen, cov) < 3.4
        make, sizes = dephimetry.fisher._channel_factor, []

        def spy(table, c):
            factor = make(table, c)

            def traced(rows, cols):
                out = factor(rows, cols)
                sizes.append(out.size)
                return out

            return traced

        with mock.patch.object(dephimetry.fisher, "_channel_factor", spy), \
                mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            qfi(probe, gen, cov)
        assert max(sizes) <= ROW_BLOCK_ELEMENTS
        assert sorted(call.args[0].shape[0] for call in eigh.call_args_list) == [240, 256, 256, 272]


# Every noise strength of the block tests.  At the two ends the global rank
# rule drops whole blocks (2 beta^2 = 1e-6: the blocks below j = n/2 - 1
# weigh 1e-12 of the top one) or the coherences are tiny (2 beta^2 = 50:
# c = e^-25).
BLOCK_NOISE = (1e-6, 0.1, 0.5, 2.0, 50.0)
BLOCK_FAMILIES = {
    "identity": lambda n, b2: CovarianceMatrix(b2 * np.eye(n)),
    **{f"c1-{alpha}": (lambda n, b2, a=alpha: build_c1(n, b2, a))
       for alpha in (0.0, 0.2, 0.5, 0.9, 1.0)},
    "c2-0.0": lambda n, b2: build_c2(n, b2, 0.0),
}
def block_plus_qfi(cov):
    split = collective_and_local(cov)
    assert split is not None
    # underflow is allowed: far-off coherences of strong noise are 0 in
    # the dense state too
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        return dephimetry.fisher._product_plus_qfi(cov.n, *split)


class TestProductPlusBlocks:
    @pytest.mark.parametrize("family", sorted(BLOCK_FAMILIES))
    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_dense(self, n, family):
        # alpha = 1 leaves no local noise: lam- = 0 and only j = n/2 is
        # built, with no log 0 or 0/0 taken (errstate raises on either)
        for two_beta2 in BLOCK_NOISE:
            cov = BLOCK_FAMILIES[family](n, two_beta2)
            assert math.isclose(block_plus_qfi(cov), dense_plus_qfi(cov), rel_tol=1e-12)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_identity_oracle(self, n):
        # n e^{-2 beta^2}; at 2 beta^2 <= 0.1 and n >= 9 the rounding floor
        # drops pairs that carry 1e-12 to 2.2e-12 of it (see the next tests)
        for two_beta2 in BLOCK_NOISE if n <= 8 else BLOCK_NOISE[2:]:
            cov = CovarianceMatrix(two_beta2 * np.eye(n))
            assert math.isclose(block_plus_qfi(cov), n * math.exp(-two_beta2), rel_tol=1e-12)

    def test_rank_rule_loss_is_the_dense_one(self):
        # n = 10, 2 beta^2 = 0.1: pairs under the rounding floor 2^n eps
        # lam_max hold 1.1e-12 of the information; both paths drop the same
        # pairs
        cov = CovarianceMatrix(0.1 * np.eye(10))
        oracle = 10 * math.exp(-0.1)
        block = block_plus_qfi(cov)
        assert 0 < (oracle - block) / oracle < 2e-12
        assert math.isclose(block, dense_plus_qfi(cov), rel_tol=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 5])
    @pytest.mark.parametrize("a, b", [(-0.05, 0.8), (0.37, 0.11), (0.0, 0.0)])
    def test_hand_built_covariance(self, n, a, b):
        # anti-correlated (a < 0), arbitrary and zero-noise entries that no
        # family builds
        cov = CovarianceMatrix(a * np.ones((n, n)) + b * np.eye(n))
        collective, local = collective_and_local(cov)
        assert collective == a and math.isclose(local, b, abs_tol=1e-16)
        assert math.isclose(block_plus_qfi(cov), dense_plus_qfi(cov), rel_tol=1e-12)

    def test_no_dense_matrix(self):
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            dephimetry.fisher._product_plus_qfi(10, 0.25, 0.25)
        assert max(call.args[0].shape[0] for call in eigh.call_args_list) == 11


def cut_free(fn):
    """fn() with the rounding floor at 0: every pair with a positive sum kept."""
    with mock.patch.object(dephimetry.fisher, "_rounding_floor", lambda size, top: 0.0):
        return fn()


def dropped_bound(frames, size):
    """2 sum over frames (copies, lam, H~) of copies times sum (lam_k + lam_l)
    |H~_kl|^2 over the positive pairs under the rounding floor of `size`
    rows: what the floor can cost, as M_kl = (lam_l - lam_k) H~_kl."""
    top = max(lam[-1] for _, lam, _ in frames)
    floor = dephimetry.fisher._rounding_floor(size, top)
    total = 0.0
    for copies, lam, tilde in frames:
        denom = lam[:, None] + lam[None, :]
        dropped = (denom > 0) & ~(denom > floor)
        total += copies * np.sum(denom[dropped] * np.abs(tilde[dropped]) ** 2)
    return 2.0 * total


class TestRoundingFloorLoss:
    @pytest.mark.parametrize("collective, local, tol", [(0.0, 0.1, 2e-12), (0.09, 0.01, 1e-12)],
                             ids=["identity", "c1-0.9"])
    def test_blocks(self, collective, local, tol):
        # product-plus n = 10 at 2 beta^2 = 0.1: the Schur-Weyl blocks, each
        # with H~ = V^dagger J_z V in its Dicke basis; identity noise loses
        # 1.1e-12, c1 at alpha = 0.9 nothing
        n, frames = 10, []
        frame = dephimetry.fisher._eig_frame

        def spy(block, energy):
            lam, vec, mixed = frame(block, energy)
            frames.append((lam, vec.conj().T @ (energy[:, None] * vec)))
            return lam, vec, mixed

        with mock.patch.object(dephimetry.fisher, "_eig_frame", spy):
            value = dephimetry.fisher._product_plus_qfi(n, collective, local)
        free = cut_free(lambda: dephimetry.fisher._product_plus_qfi(n, collective, local))
        copies = [math.comb(n, k) - (math.comb(n, k - 1) if k else 0) for k in range(n // 2 + 1)]
        bound = dropped_bound([(c, lam, t) for c, (lam, t) in zip(copies, frames)], 2**n)
        assert 0 <= free - value <= bound
        assert math.isclose(value, free, rel_tol=tol)
        if not collective:
            assert math.isclose(free, n * math.exp(-local), rel_tol=1e-14)

    def test_dense(self):
        # product-plus n = 10 under c2 (2 beta^2 = 0.1, alpha = 0.5), the
        # CLI's dense route; the bound from the full frame of the state
        gen = GeneratorSpec.qubits(10)
        rho = dephase(product_plus_state(10), gen, build_c2(10, 0.1, 0.5))
        value = qfi(rho, gen)
        free = cut_free(lambda: qfi(rho, gen))
        lam, vec = np.linalg.eigh(rho.entries)
        tilde = vec.conj().T @ (gen.energies[:, None] * vec)
        assert 0 < free - value <= dropped_bound([(1, lam, tilde)], gen.dim)
        assert math.isclose(value, free, rel_tol=1e-12)


def rank_rule_routes():
    """Each route to a kept-pair sum, with the number of frames it feeds the
    rank rule: qfi on a full frame and on the orbit sectors (one frame per R
    parity) of a state or of a probe and a covariance, the Schur-Weyl blocks
    (spins 2, 1, 0 at n = 4) and the SLD."""
    gen = GeneratorSpec.qubits(4)
    cov = build_c2(4, 0.5, 0.5)
    plus = dephase(product_plus_state(4), gen, cov)
    rotated = encode_phase(plus, gen, 0.3)
    assert orbit_qfi(plus, gen)[1] and not orbit_qfi(rotated, gen)[1]
    return {
        "qfi-full": (lambda: qfi(rotated, gen), 1),
        "qfi-orbit-state": (lambda: qfi(plus, gen), 2),
        "qfi-orbit": (lambda: qfi(product_plus_state(4), gen, cov), 2),
        "product-plus-blocks": (lambda: dephimetry.fisher._product_plus_qfi(4, 0.25, 0.25), 3),
        "sld": (lambda: sld(rotated, gen).entries, 1),
    }


class TestRankRule:
    @pytest.mark.parametrize("route", ["qfi-full", "qfi-orbit-state", "qfi-orbit",
                                       "product-plus-blocks", "sld"])
    def test_every_route_takes_its_pairs_from_one_rule(self, route):
        value, frames = rank_rule_routes()[route]
        rule = dephimetry.fisher._kept_pairs
        with mock.patch.object(dephimetry.fisher, "_kept_pairs", wraps=rule) as spy:
            assert np.any(value() != 0)
        assert spy.call_count == 1
        assert len(spy.call_args.args[0]) == frames

        def keep_nothing(spectra):
            for denom, keep in rule(spectra):
                yield denom, np.zeros_like(keep)

        with mock.patch.object(dephimetry.fisher, "_kept_pairs", keep_nothing):
            assert not np.any(value())


class TestClassicalFi:
    @given(seed=st.integers(0, 60))
    def test_never_exceeds_qfi(self, seed):
        gen = GeneratorSpec.qubits(2)
        rho = random_density(rng(seed), 4)
        povm = random_projective_povm(rng(seed + 1000), 4)
        assert classical_fi(rho, gen, povm) <= qfi(rho, gen) + 1e-9

    def test_optimal_povm_attains_qfi_mixed(self):
        gen = GeneratorSpec.qubits(2)
        for seed in range(10):
            rho = random_density(rng(seed), 4)
            povm = optimal_povm(rho, gen)
            assert math.isclose(
                classical_fi(rho, gen, povm), qfi(rho, gen), rel_tol=1e-8, abs_tol=1e-10
            )

    def test_optimal_povm_attains_qfi_dephased_ghz(self):
        gen = GeneratorSpec.qubits(3)
        rb = dephase(ghz_state(3), gen, build_c1(3, 0.5, 0.4))
        povm = optimal_povm(rb, gen)
        assert math.isclose(classical_fi(rb, gen, povm), qfi(rb, gen), rel_tol=1e-9)

    def test_blind_basis_gives_zero(self):
        # computational basis never sees the phase
        gen = GeneratorSpec.qubits(2)
        rho = encode_phase(ghz_state(2), gen, 0.3)
        povm = Povm.projective(np.eye(4))
        assert classical_fi(rho, gen, povm) == 0.0

    def test_prob_floor_skips_dead_outcomes(self):
        gen = GeneratorSpec.qubits(1)
        rho = product_plus_state(1)
        povm = Povm((np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)))
        assert classical_fi(rho, gen, povm) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            classical_fi(ghz_state(2), GeneratorSpec.qubits(2), Povm.projective(np.eye(2)))


def degenerate_on_support():
    """(state, support): rank 2 on 8 random basis states of 4 qubits."""
    r = rng(21)
    live = np.sort(r.choice(16, size=8, replace=False))
    g = r.normal(size=(8, 2)) + 1j * r.normal(size=(8, 2))
    entries = np.zeros((16, 16), dtype=complex)
    entries[np.ix_(live, live)] = g @ g.conj().T
    return DensityMatrix(entries / np.trace(entries).real), live


def outcome_levels(basis, rho, gen):
    """(SLD eigenvalue, H level) of each column of an optimal basis at rho."""
    return [np.einsum("ik,ij,jk->k", basis.conj(), op, basis).real
            for op in (dense_sld(rho, gen), np.diag(gen.energies))]


def assert_dense_order(rho, gen):
    """Per outcome, the SLD eigenvalue and the H level inside its degenerate
    eigenspace are basis-independent, so the support path must list them in
    the order of the dense path."""
    built = outcome_levels(dense_basis(optimal_povm(rho, gen)), rho, gen)
    dense = outcome_levels(dense_optimal_basis(rho, gen), rho, gen)
    for got, want in zip(built, dense):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def assert_unitary(povm):
    """The dense basis of an optimal_povm result, unitary within 1e-12:
    Povm._from_columns trusts its columns, so no other reader would notice
    a tie-break that loses orthonormality."""
    basis = dense_basis(povm)
    assert np.abs(basis.conj().T @ basis - np.eye(basis.shape[1])).max() <= 1e-12
    return basis


def compact_povms():
    """(POVM, n, support) for the optimal measurements of two states on a
    strict support: degenerate_on_support() and GHZ n = 3 under c2."""
    rho, live = degenerate_on_support()
    yield optimal_povm(rho, GeneratorSpec.qubits(4)), 4, live
    gen = GeneratorSpec.qubits(3)
    yield optimal_povm(dephase(ghz_state(3), gen, build_c2(3, 0.5, 0.5)), gen), 3, np.array([0, 7])


class TestOptimalPovm:
    def test_projective_rank_one(self):
        gen = GeneratorSpec.qubits(2)
        rho = random_density(rng(5), 4)
        povm = optimal_povm(rho, gen)
        assert povm.outcomes == 4
        for e in dense_effects(povm):
            lam = np.linalg.eigvalsh(e)
            assert abs(lam[-1] - 1.0) < 1e-10
            assert abs(lam[:-1]).max() < 1e-10

    def test_effects_commute_with_sld(self):
        gen = GeneratorSpec.qubits(2)
        rho = random_density(rng(6), 4)
        ell = sld(rho, gen).entries
        for e in dense_effects(optimal_povm(rho, gen)):
            comm = e @ ell - ell @ e
            assert np.abs(comm).max() < 1e-8

    def test_deterministic(self):
        gen = GeneratorSpec.qubits(2)
        rho = dephase(ghz_state(2), gen, build_c1(2, 0.5, 0.3))
        a = optimal_povm(rho, gen)
        b = optimal_povm(rho, gen)
        for ea, eb in zip(dense_effects(a), dense_effects(b)):
            np.testing.assert_array_equal(ea, eb)

    def test_degenerate_sld_resolved_by_energy(self):
        # maximally mixed state: SLD = 0, fully degenerate; the tie-break
        # diagonalizes H on the whole space, giving the computational basis.
        # On half the basis, with E = [1, 0, 0, -1], a support row and a row
        # off it tie at energy 0, and the support row comes first.
        from dephimetry import DensityMatrix

        gen = GeneratorSpec.qubits(2)
        h = np.diag(gen.energies)
        for diagonal, rows in [
            ([0.25] * 4, None),
            ([0, 0.5, 0, 0.5], [3, 1, 2, 0]),
            ([0.5, 0, 0.5, 0], [3, 2, 1, 0]),
        ]:
            rho = DensityMatrix(np.diag(np.array(diagonal, dtype=complex)))
            povm = optimal_povm(rho, gen)
            for e in dense_effects(povm):
                assert np.abs(e @ h - h @ e).max() < 1e-12
            if rows is not None:
                np.testing.assert_array_equal(np.abs(dense_basis(povm)).argmax(axis=0), rows)
        # At n = 3 and 4 the H levels repeat inside the one SLD group (3 and
        # 6 times at J_z = 0, +-1/2): the tie-break's picks must still be
        # orthonormal, in ascending H levels.
        for n in (3, 4):
            gen = GeneratorSpec.qubits(n)
            rho = DensityMatrix(np.eye(2**n) / 2**n)
            basis = assert_unitary(optimal_povm(rho, gen))
            _, levels = outcome_levels(basis, rho, gen)
            np.testing.assert_allclose(levels, np.sort(gen.energies), rtol=0, atol=1e-12)
            assert np.abs(basis.conj().T @ (gen.energies[:, None] * basis)
                          - np.diag(levels)).max() < 1e-12

    def test_single_qubit_plus_state_basis(self):
        # SLD of |+> under sigma_z/2 encoding is proportional to sigma_y
        gen = GeneratorSpec.qubits(1)
        povm = optimal_povm(product_plus_state(1), gen)
        ell = sld(product_plus_state(1), gen).entries
        np.testing.assert_allclose(ell, SIGMA_Y, atol=1e-12)
        for e in dense_effects(povm):
            assert np.abs(e @ SIGMA_Y - SIGMA_Y @ e).max() < 1e-12

    def test_memory_budget_ghz_n8(self):
        # 256 outcomes at dim 256, 2 of them columns: 0.03 MiB traced.
        # Dense projectors would take 256 MiB, and a (256, 256) complex
        # basis with the 254 e_j as columns took 1.02 MiB.
        gen = GeneratorSpec.qubits(8)
        rho = dephase(ghz_state(8), gen, build_c2(8, 0.5, 0.5))
        assert traced_peak_mb(optimal_povm, rho, gen) <= 0.25

    def test_memory_budget_ghz_n10(self):
        # 2 columns and 1022 unit outcomes: 0.09 MiB traced.  A (1024,
        # 1024) complex basis took 16.08 MiB, and a dense SLD
        # eigendecomposition peaked at 96 MiB.
        gen = GeneratorSpec.qubits(10)
        rho = dephase(ghz_state(10), gen, build_c2(10, 0.5, 0.5))
        assert traced_peak_mb(optimal_povm, rho, gen) <= 1.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("case", FRAME_CASES)
    def test_outcome_order_matches_dense(self, case, n):
        assert_dense_order(frame_case(case, n, seed=7 * n), GeneratorSpec.qubits(n))

    def test_outcome_order_matches_dense_degenerate_block(self):
        assert_dense_order(degenerate_on_support()[0], GeneratorSpec.qubits(4))

    def test_degenerate_block_on_strict_support(self):
        # the block SLD has at least four zero eigenvalues, resolved by H
        # together with the eight e_j off the support
        gen = GeneratorSpec.qubits(4)
        rho, live = degenerate_on_support()
        ell = sld(rho, gen).entries
        assert (np.abs(np.linalg.eigvalsh(ell[np.ix_(live, live)])) < 1e-8).sum() >= 4
        basis = dense_basis(optimal_povm(rho, gen))
        np.testing.assert_allclose(basis @ basis.conj().T, np.eye(16), rtol=0, atol=1e-12)
        for e in dense_effects(optimal_povm(rho, gen)):
            assert np.abs(e @ ell - ell @ e).max() < 1e-8
        assert math.isclose(
            classical_fi(rho, gen, optimal_povm(rho, gen)), qfi(rho, gen), rel_tol=1e-9
        )
        off = np.setdiff1d(np.arange(16), live)
        standard = basis[:, (np.abs(basis[live]) == 0).all(axis=0)]
        np.testing.assert_array_equal(np.sort(np.abs(standard).argmax(axis=0)), off)
        np.testing.assert_array_equal(np.abs(standard).max(axis=0), 1.0)

    def test_compact_on_strict_support(self):
        # the block columns on the support rows, in outcome order, and one
        # unit outcome per row off it, index arrays only
        for povm, n, live in compact_povms():
            dim, off = 2**n, np.setdiff1d(np.arange(2**n), live)
            assert povm.vectors.shape == (dim, live.size)
            np.testing.assert_array_equal(povm.vectors[off], 0.0)
            assert (np.diff(povm.labels) > 0).all()
            np.testing.assert_array_equal(povm.unit_rows, off)
            np.testing.assert_array_equal(
                np.sort(np.concatenate([povm.labels, povm.unit_labels])), np.arange(dim)
            )

    def test_attains_qfi_for_pure_states(self):
        gen = GeneratorSpec.qubits(2)
        for seed in range(5):
            rho = random_pure_density(rng(seed + 40), 4)
            povm = optimal_povm(rho, gen)
            f = qfi(rho, gen)
            assert math.isclose(
                classical_fi(rho, gen, povm), f, rel_tol=1e-7, abs_tol=1e-9
            )


def flip_route(rho, gen):
    """(optimal_povm(rho, gen), whether it took the real spin-flip sectors)."""
    fisher = dephimetry.fisher
    with mock.patch.object(fisher, "_flip_sld_eigh", wraps=fisher._flip_sld_eigh) as split:
        povm = optimal_povm(rho, gen)
    assert_unitary(povm)
    return povm, split.call_count == 1


def flip_case(case, n):
    """Real states equal to their spin flip J entry for entry on n qubits:
    the probes dephased by c2(0.5, 0.5) at phi = 0; "flip", a random real
    state summed with its J image, which is not equal to its site reversal;
    "strict", a full-rank real state on the even rows of the lower half
    of the basis and their J images (n >= 2)."""
    gen = GeneratorSpec.qubits(n)
    if case in ("ghz", "plus"):
        probe = ghz_state(n) if case == "ghz" else product_plus_state(n)
        return dephase(probe, gen, build_c2(n, 0.5, 0.5))
    if case == "flip":
        return klein_state(3 * n, gen, group=("flip",))
    half = np.arange(0, gen.dim // 2, 2)
    live = np.concatenate([half, gen.dim - 1 - half[::-1]])
    x = rng(n).normal(size=(live.size, 2 * live.size))
    block = x @ x.T
    entries = np.zeros((gen.dim, gen.dim))
    entries[np.ix_(live, live)] = block + block[::-1, ::-1]
    return DensityMatrix(entries / np.trace(entries))


class TestFlipRoute:
    """optimal_povm on a real block equal to its spin flip takes the real
    sectors; every other block the complex full frame.  Either way the
    outcomes list the dense path's SLD eigenvalues and H levels, and the
    measurement attains the QFI."""

    @pytest.mark.parametrize("case, n", [
        (case, n) for case in ("ghz", "plus", "flip", "strict") for n in (1, 2, 3, 4)
        if case != "strict" or n > 1
    ])
    def test_split_matches_dense(self, case, n):
        gen, rho = GeneratorSpec.qubits(n), flip_case(case, n)
        povm, took = flip_route(rho, gen)
        assert took
        if case == "strict":
            assert povm.unit_rows.size
        assert_dense_order(rho, gen)
        assert math.isclose(classical_fi(rho, gen, povm), qfi(rho, gen), rel_tol=1e-12)

    @pytest.mark.parametrize("case", ["real", "complex", "ghz", "plus"])
    def test_gate_failing_blocks_take_the_full_frame(self, case):
        # a real state that is not J-symmetric, a complex one, and the
        # probes rotated by phi = 0.3
        gen, rho = GeneratorSpec.qubits(3), frame_case(case, 3, seed=21)
        povm, took = flip_route(rho, gen)
        assert not took
        assert_dense_order(rho, gen)
        assert math.isclose(classical_fi(rho, gen, povm), qfi(rho, gen), rel_tol=1e-9)

    @pytest.mark.parametrize("sites", [1, 2, 3])
    def test_odd_support_takes_the_full_frame(self, sites):
        # J fixes the middle level of a qutrit, so 3^sites rows have one
        # J-even row more than J-odd ones: such blocks stay complex
        gen = GeneratorSpec((SPECTRA["qutrit"],) * sites)
        rho = klein_state(sites, gen, group=("flip",))
        povm, took = flip_route(rho, gen)
        assert not took
        assert_dense_order(rho, gen)
        assert math.isclose(classical_fi(rho, gen, povm), qfi(rho, gen), rel_tol=1e-12)

    @pytest.mark.parametrize("probe, n, two_beta2, tol", [
        ("ghz", n, t, 1e-12) for n in (1, 2, 3) for t in (20.0, 40.0)
    ] + [("ghz", 1, 640.0, 1e-12)] + [("plus", n, 40.0, 1e-12) for n in (2, 3)])
    def test_strong_dephasing_attains_qfi(self, probe, n, two_beta2, tol):
        # the degeneracy gap is relative to the SLD's scale: an absolute
        # 1e-8 put every eigenvalue of a small SLD in one group, which the
        # H tie-break turned into the energy basis, CFI/QFI ~ 1e-33.  dp
        # far below p: product-plus read CFI/QFI - 1 = 1.9e-8 while dp kept
        # the rounding of its diagonal terms, which are 0 in exact arithmetic
        gen = GeneratorSpec.qubits(n)
        state = ghz_state(n) if probe == "ghz" else product_plus_state(n)
        rho = dephase(state, gen, build_c2(n, two_beta2, 0.5))
        f = qfi(rho, gen)
        assert f > 0
        povm = optimal_povm(rho, gen)
        assert_unitary(povm)
        assert math.isclose(classical_fi(rho, gen, povm), f, rel_tol=tol)

    @pytest.mark.parametrize("n", [2, 6, 8, 10])
    def test_ghz_takes_no_complex_eigensolver(self, n):
        # the CLI's call: the dephased state and phi0, at 0 and 0.2
        gen = GeneratorSpec.qubits(n)
        rho = dephase(ghz_state(n), gen, build_c2(n, 0.5, 0.5))
        for phi in (0.0, 0.2):
            assert lapack_kinds(optimal_povm, rho, gen, phi)[1] == {"float64"}

    @pytest.mark.parametrize("n, family", [(3, "c1"), (10, "c2")])
    def test_product_plus_takes_no_complex_eigensolver(self, n, family):
        # c1 at n = 3 has two 2-fold SLD groups, c2 at n = 10 a 32-fold one:
        # each is one H level, which the tie-break keeps with no eigh
        gen = GeneratorSpec.qubits(n)
        cov = build_c1(n, 0.5, 0.3) if family == "c1" else build_c2(n, 0.5, 0.5)
        rho = dephase(product_plus_state(n), gen, cov)
        fisher = dephimetry.fisher
        with mock.patch.object(fisher, "_hermitian_eigh", wraps=fisher._hermitian_eigh) as tie:
            assert lapack_kinds(optimal_povm, rho, gen)[1] == {"float64"}
        assert tie.call_count

    def test_product_plus_n10_attains_qfi_within_budget(self):
        # 56.3 MiB traced; the SLD of the complex full frame took 89.1 MiB
        gen = GeneratorSpec.qubits(10)
        rho = dephase(product_plus_state(10), gen, build_c2(10, 0.5, 0.5))
        assert traced_peak_mb(optimal_povm, rho, gen) <= 64.0
        povm, took = flip_route(rho, gen)
        assert took
        assert math.isclose(classical_fi(rho, gen, povm), qfi(rho, gen), rel_tol=1e-12)


def complex_tie_break(rho, gen):
    """optimal_povm with each group's H restriction diagonalised by a
    plain complex eigh, with no one-level test: the tie-break's oracle."""
    with mock.patch.object(dephimetry.fisher, "_hermitian_eigh", lambda h, tol: np.linalg.eigh(h)):
        return optimal_povm(rho, gen)


def tie_break_case(case, n):
    """Real states that take the flip route: product-plus under c1(0.3) (two
    2-fold SLD groups at n = 3); a random state equal to its spin flip; one
    that is diagonal too, so the SLD is 0 and the H levels repeat in its
    one group; and the probes under c2(0.5) at 2 beta^2 = 20 (product-plus)
    and 40 (GHZ)."""
    gen = GeneratorSpec.qubits(n)
    if case == "plus-c1":
        return dephase(product_plus_state(n), gen, build_c1(n, 0.5, 0.3))
    if case == "flip":
        return klein_state(5 * n, gen, group=("flip",))
    if case == "diagonal":
        weights = rng(n).uniform(0.5, 1.5, size=gen.dim)
        weights += weights[::-1]
        return DensityMatrix(np.diag(weights / weights.sum()))
    probe, two_beta2 = (product_plus_state, 20.0) if case == "plus-strong" else (ghz_state, 40.0)
    return dephase(probe(n), gen, build_c2(n, two_beta2, 0.5))


class TestTieBreak:
    """The H tie-break (_hermitian_eigh) against a plain eigh of each
    group's H restriction, with no one-level test: the same SLD eigenvalues
    and H levels in the same outcome order, each column equal up to a unit
    phase where its pair of levels is simple and the same projector where
    it repeats (so a group the test keeps spans what eigh would), and CFI =
    QFI within 1e-12.  optimal_povm(rho, gen, phi) is the basis at rho with
    its rows rotated by e^{-i phi E}, and attains the QFI of the encoded
    state, whose complex full frame is the oracle."""

    @pytest.mark.parametrize("case, n", [("plus-c1", 3)] + [
        (case, n) for case in ("flip", "diagonal") for n in (1, 2, 3, 4)
    ] + [(case, n) for case in ("plus-strong", "ghz-strong") for n in (2, 3, 4)])
    def test_matches_complex_tie_break(self, case, n):
        gen, rho = GeneratorSpec.qubits(n), tie_break_case(case, n)
        povm, took = flip_route(rho, gen)
        assert took
        got = dense_basis(povm)
        want = assert_unitary(complex_tie_break(rho, gen))
        levels = outcome_levels(want, rho, gen)
        for a, b in zip(outcome_levels(got, rho, gen), levels):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
        ell, energy = levels
        same = ((np.abs(np.subtract.outer(ell, ell)) <= 1e-8 * max(np.abs(ell).max(), 1e-300))
                & (np.abs(np.subtract.outer(energy, energy)) <= 1e-8))
        for cols in {tuple(np.flatnonzero(row)) for row in same}:
            cols = list(cols)
            if len(cols) == 1:
                assert abs(abs(np.vdot(got[:, cols[0]], want[:, cols[0]])) - 1.0) <= 1e-12
            else:
                np.testing.assert_allclose(got[:, cols] @ got[:, cols].conj().T,
                                           want[:, cols] @ want[:, cols].conj().T,
                                           rtol=0, atol=1e-12)
        f = qfi(rho, gen)
        assert math.isclose(classical_fi(rho, gen, povm), f, rel_tol=1e-12, abs_tol=1e-30)

    @pytest.mark.parametrize("n, two_beta2, alpha", [(10, 0.5, 0.9), (6, 0.001, 0.0)])
    def test_split_h_levels_take_one_complex_eigh(self, n, two_beta2, alpha):
        # product-plus groups whose H restriction spreads past the one-level
        # test, each diagonalised by one complex eigh: at n = 10 groups of
        # 90, 252 and 90 rows by rounding (spreads 4e-8 to 1e-7), at n = 6
        # one of 22 rows by a real split (2.95) and four small ones
        gen = GeneratorSpec.qubits(n)
        rho = dephase(product_plus_state(n), gen, build_c1(n, two_beta2, alpha))
        povm, past = tie_breaks_past_test(optimal_povm, rho, gen)
        assert past
        basis = povm.vectors
        assert np.abs(basis.conj().T @ basis - np.eye(gen.dim)).max() <= 1e-12
        assert math.isclose(classical_fi(rho, gen, povm), qfi(rho, gen), rel_tol=1e-12)

    @pytest.mark.parametrize("phi", [0.2, -1.1, math.pi / 3])
    @pytest.mark.parametrize("case", ["ghz", "plus", "plus-c1", "strict", "complex"])
    def test_phase_is_a_row_rotation(self, case, phi):
        n = 3
        gen = GeneratorSpec.qubits(n)
        if case == "plus-c1":
            rho = tie_break_case(case, n)
        elif case == "complex":
            rho = random_density(rng(n), gen.dim)
        else:
            rho = flip_case(case, n)
        at_zero, povm = optimal_povm(rho, gen), optimal_povm(rho, gen, phi)
        assert_unitary(povm)
        np.testing.assert_allclose(
            povm.vectors, np.exp(-1j * phi * gen.energies)[:, None] * at_zero.vectors,
            rtol=0, atol=1e-12,
        )
        for name in ("labels", "unit_rows", "unit_labels"):
            np.testing.assert_array_equal(getattr(povm, name), getattr(at_zero, name))
        encoded = encode_phase(rho, gen, phi)
        assert math.isclose(classical_fi(encoded, gen, povm), qfi(encoded, gen), rel_tol=1e-12)
        oracle = outcome_levels(dense_basis(optimal_povm(encoded, gen)), encoded, gen)
        for got, want in zip(outcome_levels(dense_basis(povm), encoded, gen), oracle):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("phi", [math.nan, math.inf])
    def test_phase_must_be_finite(self, phi):
        gen = GeneratorSpec.qubits(2)
        with pytest.raises(ValueError, match="phi must be finite"):
            optimal_povm(flip_case("plus", 2), gen, phi)


class TestCompactPovm:
    """The unit outcomes of a compact measurement (one from optimal_povm on
    a strict support) become unit columns on any state whose support
    reaches their rows: every reader matches the dense traces.  "subset" is
    a state on a random half of the basis, reaching some units only."""

    @pytest.mark.parametrize("probe", ["plus", "random", "subset"])
    @pytest.mark.parametrize("case", [0, 1], ids=["degenerate", "ghz"])
    def test_other_supports_match_dense(self, case, probe):
        povm, n, _ = list(compact_povms())[case]
        assert povm.unit_rows.size
        gen, cov = GeneratorSpec.qubits(n), build_c2(n, 0.5, 0.5)
        if probe == "plus":
            rho = encode_phase(product_plus_state(n), gen, 0.3)
        elif probe == "random":
            rho = random_density(rng(n), 2**n)
        else:
            rho = frame_case("subset", n, seed=n)
        effects = dense_effects(povm)
        p = dense_traces(rho.entries, effects)
        dp = dense_traces(derivative_state(rho, gen).entries, effects)
        np.testing.assert_allclose(povm.probabilities(rho), p, rtol=0, atol=1e-13)
        got_p, got_dp = povm.statistics(rho, gen.energies)
        np.testing.assert_allclose(got_p, p, rtol=0, atol=1e-13)
        np.testing.assert_allclose(got_dp, dp, rtol=0, atol=1e-13)
        fired = p > 1e-12
        expected = float(np.sum(dp[fired] ** 2 / p[fired]))
        assert math.isclose(classical_fi(rho, gen, povm), expected, rel_tol=1e-13)
        cfg = ExperimentConfig(rho=rho, gen=gen, cov=cov, povm=povm)
        rb = cfg.averaged_state.entries
        table = bayes_estimators(cfg)
        probs = dense_traces(rb, effects)
        traces = np.array([
            dense_traces(-1j * np.subtract.outer(h, h) * rb, effects) for h in gen.site_energy_table
        ])
        included = probs > 1e-12
        assert table.excluded == tuple(np.flatnonzero(~included))
        ratios = np.where(included, traces / np.where(included, probs, 1.0), 0.0)
        np.testing.assert_allclose(table.probs, probs, rtol=0, atol=1e-13)
        np.testing.assert_allclose(table.site_estimates, (cov.entries @ ratios).T, rtol=0, atol=1e-13)

    def test_pickle_and_copy_round_trip(self):
        povm, n, _ = next(compact_povms())
        rho = random_density(rng(9), 2**n)
        for clone in (povm, pickle.loads(pickle.dumps(povm)), copy.copy(povm), copy.deepcopy(povm)):
            for name in ("vectors", "labels", "unit_rows", "unit_labels"):
                np.testing.assert_array_equal(getattr(clone, name), getattr(povm, name))
                assert not getattr(clone, name).flags.writeable, name
            assert clone.outcomes == povm.outcomes
            np.testing.assert_array_equal(clone.probabilities(rho), povm.probabilities(rho))
        with pytest.raises(ValueError, match="read-only"):
            povm.unit_rows[0] = 0
