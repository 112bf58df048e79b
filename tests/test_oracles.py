import tracemalloc

import numpy as np
import pytest

from milsde import crosscheck, oracles, paths, rng


class TestExactQuarticMean:
    def test_unit_at_endpoint(self):
        for n in (4, 64, 256, 1000):
            assert crosscheck.exact_quartic_mean(n, 1.0) == 1.0

    def test_interior_formula(self):
        n, t = 64, 0.77
        k = int(np.floor(n * t))
        assert crosscheck.exact_quartic_mean(n, t) == k / n + (n * t - k) / n ** 3


class TestDeterministicCases:
    @pytest.mark.parametrize("case", ["7.2a", "7.2b", "7.2c", "7.2r"])
    def test_pass_and_converge(self, case):
        rows = {n: oracles.run_case(case, n=n)[0] for n in (64, 256)}
        assert all(r.passed for r in rows.values())
        gap = {n: abs(r.estimate - r.target) for n, r in rows.items()}
        # first-order convergence: 4x the cells shrinks the gap by about 4x
        assert gap[256] < gap[64] / 2

    def test_targets(self):
        # x = 1+s, y = 1-s/2, z = 1+s^2 on [0,1]
        from scipy.integrate import quad
        x, y, z = (lambda s: 1 + s), (lambda s: 1 - s / 2), (lambda s: 1 + s ** 2)
        expected = {
            "7.2a": quad(lambda s: x(s) ** 2 * z(s), 0, 1)[0] / 3,
            "7.2b": quad(lambda s: x(s) * y(s) * z(s), 0, 1)[0] / 3,
            "7.2c": quad(lambda s: x(s) * y(s) * z(s), 0, 1)[0] / 6,
            "7.2r": quad(lambda s: x(s) * z(s), 0, 1)[0] / 2,
        }
        for case, val in expected.items():
            assert oracles.run_case(case, n=64)[0].target == pytest.approx(val, rel=1e-9)


class TestBrownianCases:
    def test_quartic_average_family(self):
        rows = oracles.run_case("7.3", n=32, paths=1500, fine_factor=32, seed=5)
        by_case = {r.case: r for r in rows}
        assert set(by_case) == {"7.3a", "7.3b", "7.3c", "7.3d", "7.3e"}
        assert all(r.passed for r in rows)
        assert by_case["7.3a"].target == 1.0
        assert by_case["7.3b"].target == pytest.approx(1 / 3)

    def test_variance_decays_like_one_over_n(self):
        grids = (16, 64, 256)
        variances = []
        for n in grids:
            grid = paths.Grid(n, 32)
            p = crosscheck.brownian_family(grid, 17, np.arange(1500), rng.ORACLE, channels=4)
            nodes = np.moveaxis(crosscheck.cell_split(p, n)[1][:, :, 1:], -1, 0)
            work = np.empty((3,) + nodes.shape[1:])  # two prefixes and the product
            stat = oracles.quartic_time_average(nodes, [(0, 0, 0, 0)], work)[0]
            variances.append(stat.var(ddof=1))
        slope = np.polyfit(np.log(grids), np.log(variances), 1)[0]
        assert -1.3 <= slope <= -0.7

    def test_nested_family(self):
        rows = oracles.run_case("7.4", n=32, paths=1500, fine_factor=128, seed=5)
        assert len(rows) == 6
        assert all(r.passed for r in rows)

    def test_fingerprints_small(self):
        rows = oracles.run_case("7.6", n=32, paths=1500, fine_factor=64, seed=5)
        assert [r.target for r in rows] == [1.0, 1 / 6, 1 / 3, 0.5, 0.0]
        assert all(r.passed for r in rows)

    def test_drift_coupling_and_nulls(self):
        rows = oracles.run_case("7.7-80", n=32, paths=1500, fine_factor=64, seed=5)
        assert rows[0].passed and rows[0].target == 0.5
        null_rows = oracles.run_case("null", n=32, paths=1500, fine_factor=64, seed=5)
        assert len(null_rows) == 5
        assert all(r.passed for r in null_rows)
        assert all("budget" in r.note for r in null_rows)

    def test_unknown_case(self):
        with pytest.raises(KeyError, match="unknown oracle case"):
            oracles.run_case("8.1")

    @pytest.mark.parametrize("family,case", [
        ("7.3", "7.3a"), ("7.3", "7.3b"), ("7.3", "7.3c"), ("7.3", "7.3d"), ("7.3", "7.3e"),
        ("7.4", "7.4a"), ("7.4", "7.4b")])
    def test_subcase_reports_its_rows_of_the_family(self, family, case):
        # every path's statistics are the same in a sweep of one sub-case or
        # of all of them, so a sub-case id reports its family's rows exactly
        size = dict(n=8, fine_factor=8, paths=300, seed=4)
        rows = [r for r in oracles.run_case(family, **size) if r.case == case]
        assert rows and oracles.run_case(case, **size) == rows

    def test_deterministic_in_seed(self):
        a = oracles.run_case("7.3a", n=16, paths=400, fine_factor=16, seed=9)[0]
        b = oracles.run_case("7.3a", n=16, paths=400, fine_factor=16, seed=9)[0]
        assert a.estimate == b.estimate and a.se == b.se


def _traced_peak(case="7.3", **kwargs):
    tracemalloc.start()
    try:
        oracles.run_case(case, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_quartic_chunk_memory_is_one_block():
    # a block's noise, cell split and products fit paths.BLOCK_BYTES; beside
    # them only the chunk's keys and the five per-path results (a chunk's
    # parts and the output) grow with the paths, so a full-size noise or
    # split array, or a block buffer kept per block, breaks the bound
    size = dict(n=16, fine_factor=64, seed=1)
    oracles.run_case("7.3", paths=50, **size)  # warm caches
    n_paths = 2000
    peak = _traced_peak(paths=n_paths, **size)
    results = 2 * 5 * n_paths * 8
    assert peak < 2 * paths.BLOCK_BYTES + results
    assert peak <= 1.1 * _traced_peak(paths=400, **size)


# peak of one oracle chunk in paths.BLOCK_BYTES, beyond its per-path outputs;
# measured 0.41 (7.6) to 1.09 (null) at n = 16, fine_factor = 64
CHUNK_PEAK_BLOCKS = 1.25


@pytest.mark.parametrize("case", ["7.3", "7.4", "7.6", "7.7-80", "null"])
def test_oracle_chunk_memory_is_one_block(case):
    # a chunk of paths.DEFAULT_CHUNK paths holds one block of the streamer:
    # its increments, cell split and work slots, and what the case's reduction
    # allocates, all sized to fit paths.BLOCK_BYTES.  Only the per-path
    # outputs grow with the paths: the chunk's result and the run's.
    size = dict(n=16, fine_factor=64, seed=1)
    oracles.run_case(case, paths=50, **size)  # warm caches
    rows = len(oracles.run_case(case, paths=30, **size))
    outputs = 2 * rows * paths.DEFAULT_CHUNK * 8
    peak = _traced_peak(case, paths=paths.DEFAULT_CHUNK, **size)
    assert peak < CHUNK_PEAK_BLOCKS * paths.BLOCK_BYTES + outputs
