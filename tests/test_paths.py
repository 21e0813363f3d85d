import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

import lobres.paths as paths_module
from helpers import reference_increments, reference_write_columns, run_python
from lobres import (FundamentalSpec, RandomSource, SampledPath, TimeGrid, constant_path,
                    function_path)
from lobres.experiments import _BOOTSTRAP_STREAM, brownian_increments
from lobres.paths import IndexStream, _lanes, _lemire, normals_block, write_tables


def terminal_values(grid, seed, paths):
    """W_T of streams 0..paths-1."""
    return np.cumsum(brownian_increments(grid, seed, paths), axis=0)[-1]


class TestMakeGrid:
    def test_points(self):
        grid = TimeGrid(1.0, 4)
        np.testing.assert_array_equal(grid.points(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_minimal_grid(self):
        grid = TimeGrid(1.0, 1)
        np.testing.assert_array_equal(grid.points(), [0.0, 1.0])

    @pytest.mark.parametrize("horizon,steps", [(0.0, 4), (-1.0, 4), (1.0, 0), (1.0, -2)])
    def test_invalid_arguments(self, horizon, steps):
        with pytest.raises(ValueError):
            TimeGrid(horizon, steps)

    def test_spacing(self):
        grid = TimeGrid(2.5, 10)
        assert grid.dt == pytest.approx(0.25)
        assert grid.n_points == 11


class TestSampledPath:
    def test_length_mismatch(self):
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ValueError):
            SampledPath(grid, np.zeros(4))

    def test_nonfinite_rejected(self):
        grid = TimeGrid(1.0, 2)
        with pytest.raises(ValueError):
            SampledPath(grid, np.array([0.0, np.nan, 1.0]))


# the price sampler of simulate, here a standard Brownian path
BROWNIAN = FundamentalSpec(s0=0.0, sigma=1.0)


class TestBrownian:
    def test_determinism(self):
        grid = TimeGrid(1.0, 64)
        a = BROWNIAN.add_noise(BROWNIAN.mean_path(grid), BROWNIAN.sigma_steps(grid), 123, 5)
        b = BROWNIAN.add_noise(BROWNIAN.mean_path(grid), BROWNIAN.sigma_steps(grid), 123, 5)
        np.testing.assert_array_equal(a.values, b.values)

    def test_streams_differ(self):
        grid = TimeGrid(1.0, 64)
        a = BROWNIAN.add_noise(BROWNIAN.mean_path(grid), BROWNIAN.sigma_steps(grid), 123, 0)
        b = BROWNIAN.add_noise(BROWNIAN.mean_path(grid), BROWNIAN.sigma_steps(grid), 123, 1)
        assert not np.array_equal(a.values, b.values)

    def test_terminal_moments(self):
        # 1e5 paths of W_1 on a single-step grid: mean near 0, variance near 1
        grid = TimeGrid(1.0, 1)
        w1 = terminal_values(grid, 2024, 100_000)
        for p in range(3):
            path = BROWNIAN.add_noise(BROWNIAN.mean_path(grid), BROWNIAN.sigma_steps(grid), 2024, p)
            assert path.values[1] == w1[p]
        assert abs(w1.mean()) <= 4e-2
        assert abs(w1.var() - 1.0) <= 0.02

    def test_refinement_leaves_terminal_distribution_unchanged(self):
        # Kolmogorov-Smirnov on W_T sampled with N and 2N steps
        a = terminal_values(TimeGrid(1.0, 32), 7, 10_000)
        b = terminal_values(TimeGrid(1.0, 64), 8, 10_000)
        assert ks_2samp(a, b).pvalue > 0.01


class TestNormalsBlock:
    @pytest.mark.parametrize("key", [None, 2**32])
    def test_lanes_are_numpy_jump_ahead(self, key):
        # lane (s, k) starts at key k's stream after s + 1 draws and each step
        # advances it by the width, so step i yields the XSL-RR outputs of
        # the states after i * width + s + 1 draws; keys 0, 1, 2 are one word
        # each, and 2**32 is the two words [0, 1]
        seed, width = 2**130 + 9, 37
        keys, spawn = (([0, 1, 2], [np.arange(3, dtype=np.uint64)]) if key is None else
                       ([key], [np.full(1, word, dtype=np.uint64) for word in (0, 1)]))
        lanes = _lanes(seed, spawn, width)
        for i in range(2):
            raw = next(lanes)
            assert raw.shape == (width, len(keys))
            for k, spawn_key in enumerate(keys):
                for s in range(width):
                    generator = np.random.PCG64(np.random.SeedSequence(seed,
                                                                       spawn_key=(spawn_key,)))
                    state = generator.advance(i * width + s + 1).state["state"]["state"]
                    x = (state >> 64 ^ state) & (2**64 - 1)
                    rot = state >> 122
                    assert int(raw[s, k]) == (x >> rot | x << (64 - rot)) & (2**64 - 1)

    @pytest.mark.parametrize("paths, n, first", [
        (1, 10_007, 0),         # one long stream, on 5,004 lanes
        (3, 10_007, 0),         # 2,502 lanes per stream, which do not divide n
        (784, 512, 9216),       # mc_paths' last chunk, 10 lanes per stream
        (8192, 3, 0), (8200, 2, 0),  # one lane per stream
        (3, 64, 2**32 - 3),     # the last stream ids
    ])
    def test_columns_are_random_source_streams(self, paths, n, first):
        block = normals_block(42, paths, n, first=first)
        expected = np.column_stack([RandomSource(42, first + p).normals(n)
                                    for p in range(paths)])
        assert block.tobytes() == expected.tobytes()

    def test_lemire_decode_matches_128_bit_product(self):
        # numpy: draw = 1 + high word of raw * rng_excl, rejected while the low
        # word is below (UINT64_MAX - rng) % rng_excl, for rng = 2^53 - 2
        rng = 2**53 - 2
        assert int(paths_module._LEMIRE_THRESHOLD) == (2**64 - 1 - rng) % (rng + 1)
        raws = [0, 1, 2047, 2048, 2**53 - 1, 2**53, 2**63, 2**64 - 1]
        raws += [int(r) for r in np.random.default_rng(5).integers(0, 2**64, 200,
                                                                      dtype=np.uint64)]
        draws, low = _lemire(np.array(raws, dtype=np.uint64))
        for raw, d, lw in zip(raws, draws, low):
            assert int(d) == 1 + (raw * (rng + 1) >> 64)
            assert int(lw) == raw * (rng + 1) & (2**64 - 1)

    @pytest.mark.parametrize("threshold,redrawn", [(None, []), (2**64 - 1, [0, 1, 2, 3, 4])])
    def test_rejected_draws_fall_back_to_random_source(self, monkeypatch, threshold,
                                                       redrawn):
        # at the largest threshold every lane's low word counts as rejected, so
        # every column is redrawn; at numpy's threshold none of these is
        made = []

        class CountingSource(RandomSource):
            def __post_init__(self):
                made.append(self.stream)
                super().__post_init__()

        if threshold is not None:
            monkeypatch.setattr(paths_module, "_LEMIRE_THRESHOLD", np.uint64(threshold))
        monkeypatch.setattr(paths_module, "RandomSource", CountingSource)
        block = normals_block(42, 5, 300)
        assert sorted(made) == redrawn
        monkeypatch.undo()
        # dt = 1, so the reference increments are the normals themselves
        expected = reference_increments(TimeGrid(300.0, 300), 42, 5)
        assert block.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [-1, -(2**40)])
    def test_negative_seed_raises(self, seed):
        with pytest.raises(ValueError, match="non-negative"):
            normals_block(seed, 3, 4)

    def test_stream_ids_below_two_to_the_32(self):
        # n = 0: nothing is drawn, only the stream ids are checked
        assert normals_block(1, 2**32, 0).shape == (0, 2**32)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            normals_block(1, 2**32 + 1, 0)

    @pytest.mark.parametrize("first,paths,n", [
        (8000, 300, 5),   # the offset block has 5 lanes per stream, the whole one 1
        (8191, 2, 37),    # straddles LANES
        (0, 1, 37), (7, 1, 37), (8500, 1, 4),  # one stream
        (3, 50, 1), (100, 900, 3),
    ])
    def test_offset_block_is_a_column_slice(self, first, paths, n):
        whole = normals_block(77, first + paths, n)
        block = normals_block(77, paths, n, first=first)
        assert block.flags.c_contiguous
        assert block.tobytes() == np.ascontiguousarray(whole[:, first:]).tobytes()

    def test_offset_block_falls_back_to_its_own_streams(self, monkeypatch):
        # at the largest threshold every column is redrawn through RandomSource,
        # which must be keyed by the stream id first + p
        made = []

        class CountingSource(RandomSource):
            def __post_init__(self):
                made.append(self.stream)
                super().__post_init__()

        expected = normals_block(42, 9, 40)[:, 4:]
        monkeypatch.setattr(paths_module, "_LEMIRE_THRESHOLD", np.uint64(2**64 - 1))
        monkeypatch.setattr(paths_module, "RandomSource", CountingSource)
        block = normals_block(42, 5, 40, first=4)
        assert made == [4, 5, 6, 7, 8]
        assert block.tobytes() == np.ascontiguousarray(expected).tobytes()

    def test_offset_stream_ids_below_two_to_the_32(self):
        # n = 0: nothing is drawn, only the stream ids are checked
        assert normals_block(1, 5, 0, first=2**32 - 5).shape == (0, 5)
        assert normals_block(1, 1, 0, first=2**32 - 1).shape == (0, 1)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            normals_block(1, 5, 0, first=2**32 - 4)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            normals_block(1, 1, 0, first=-1)


class TestIndexStream:
    # the chunks end within a 64-bit output (an odd count of words where none
    # is rejected, as at bound 2) and beyond one step of the lanes (2 * 8,192
    # words), so the cached high half and the accepted integers carry from
    # call to call
    CHUNKS = (1, 3, 16_384, 5, 40_001, 2)

    @pytest.mark.parametrize("stream", [_BOOTSTRAP_STREAM, 0])
    @pytest.mark.parametrize("seed", [0, 42, 2**32 + 9])
    @pytest.mark.parametrize("bound", [1, 2, 20, 10_000, 3 * 2**30 + 7, 2**32 - 1])
    def test_takes_are_numpy_integers(self, seed, stream, bound):
        generator = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            seed, spawn_key=(stream,))))
        replay = IndexStream(seed, stream, bound)
        for n in self.CHUNKS:
            expected = generator.integers(0, bound, size=n)
            assert replay.take(n).tobytes() == expected.tobytes()
        assert replay.take(0).dtype == expected.dtype

    @pytest.mark.parametrize("seed, stream, bound", [
        (1, 0, 0), (1, 0, 2**32), (1, 0, 2**40), (1, 0, -3), (-1, 0, 5), (1, -1, 5)])
    def test_refuses_bounds_outside_32_bits_and_negative_keys(self, seed, stream, bound):
        with pytest.raises(ValueError):
            IndexStream(seed, stream, bound)


class TestDeterministicPaths:
    def test_constant(self):
        grid = TimeGrid(1.0, 8)
        np.testing.assert_array_equal(constant_path(grid, 2.0).values, np.full(9, 2.0))

    def test_function_of_time(self):
        grid = TimeGrid(1.0, 8)
        p = function_path(grid, lambda t: t)
        np.testing.assert_array_equal(p.values, grid.points())

    def test_pole_rejected(self):
        # detection is pointwise: the pole must land on a sampled point
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ValueError):
            function_path(grid, lambda t: 1.0 / (t - 0.5) if t != 0.5 else math.inf)

    def test_constant_nonfinite(self):
        with pytest.raises(ValueError):
            constant_path(TimeGrid(1.0, 4), math.nan)

    def test_constant_is_one_read_only_value(self):
        # a zero-stride view of one float: no grid-sized array is held, and
        # a caller that writes into it is refused
        values = constant_path(TimeGrid(1.0, 100_000), 2.5).values
        assert values.shape == (100_001,) and values.strides == (0,)
        assert values.base is not None and values.base.nbytes == 8
        assert not values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            values[3] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            values += 1.0
        np.testing.assert_array_equal(values, np.full(100_001, 2.5))


class TestNdtriLoad:
    # _ndtri loads scipy.special._ufuncs without running scipy.special's
    # package init; each case needs an interpreter where scipy is not loaded

    def test_fresh_interpreter_skips_the_package_init(self):
        out = run_python(
            "import sys\n"
            "from lobres.paths import _ndtri\n"
            "ndtri = _ndtri()\n"
            "print('scipy.special' in sys.modules)\n"
            "import scipy.special\n"
            "print(_ndtri() is ndtri is scipy.special.ndtri)")
        assert out.split() == ["False", "True"]

    def test_imported_package_is_used_and_kept(self):
        out = run_python(
            "import sys, scipy.special\n"
            "package = sys.modules['scipy.special']\n"
            "from lobres.paths import _ndtri\n"
            "print(_ndtri() is scipy.special.ndtri, sys.modules['scipy.special'] is package)")
        assert out.split() == ["True", "True"]

    def test_failed_load_propagates_and_leaves_no_stand_in(self):
        out = run_python(
            "import sys\n"
            "class Refuse:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'scipy.special._ufuncs':\n"
            "            raise RuntimeError('refused')\n"
            "sys.meta_path.insert(0, Refuse())\n"
            "from lobres.paths import _ndtri\n"
            "try:\n"
            "    _ndtri()\n"
            "except RuntimeError as exc:\n"
            "    print(exc, 'scipy.special' in sys.modules)")
        assert out.split() == ["refused", "False"]


BLOCK = paths_module._BLOCK_ROWS
# float64 bit patterns: both zeros, NaNs with different signs and payloads
# (a signalling one among them), both infinities and the smallest subnormal
AWKWARD_BITS = [0x0000000000000000, 0x8000000000000000, 0x7FF8000000000000,
                0xFFF8000000000000, 0x7FF0000000000001, 0x7FF80000000ABCDE,
                0x7FF0000000000000, 0xFFF0000000000000, 0x0000000000000001]
AWKWARD = np.array(AWKWARD_BITS, dtype=np.uint64).view(np.float64).tolist()
AWKWARD += [1e16, -1e16, 0.1, 0.30000000000000004, 1e-05, 2.5, 1.0]

floats_pool = st.lists(st.sampled_from(AWKWARD) | st.floats(allow_nan=False),
                       min_size=1, max_size=12)
ints_pool = st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=12)
# list cells are ready text
cells_pool = st.lists(st.sampled_from(["", "true", "false", "1.5", "-0.0", "x"]),
                      min_size=1, max_size=12)


def _expand(pool, rows, rng, runs):
    """``rows`` picks from ``pool``, in runs of one repeated value when
    ``runs`` holds."""
    picks = rng.integers(len(pool), size=rows)
    if runs:
        picks = np.repeat(picks, 100)[:rows]
    return [pool[i] for i in picks]


ROW_COUNTS = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]


@st.composite
def tables(draw):
    return draw(tables_of_rows(draw(st.sampled_from(ROW_COUNTS))))


@st.composite
def tables_of_rows(draw, rows):
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    table = {}
    for j in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["float", "int", "list"]))
        runs = draw(st.booleans())
        if kind == "float":
            column = np.array(_expand(draw(floats_pool), rows, rng, runs), dtype=np.float64)
        elif kind == "int":
            column = np.array(_expand(draw(ints_pool), rows, rng, runs), dtype=np.int64)
        else:
            column = _expand(draw(cells_pool), rows, rng, runs)
        table[f"{kind}{j}"] = column
    return table


class TestWriteColumns:
    @settings(max_examples=60, deadline=None)
    @given(table=tables())
    def test_bytes_equal_the_csv_module_writer(self, tmp_path_factory, table):
        # a quote in the csv module's output (here only a one-column row
        # holding an empty cell) must be a refusal instead
        d = tmp_path_factory.mktemp("csv")
        reference_write_columns(d / "old.csv", table)
        old = (d / "old.csv").read_bytes()
        if b'"' in old:
            with pytest.raises(ValueError, match="one-column"):
                write_tables({d / "new.csv": table})
        else:
            write_tables({d / "new.csv": table})
            assert (d / "new.csv").read_bytes() == old

    def test_signed_zeros_and_nans_keep_their_texts(self, tmp_path):
        values = np.array(AWKWARD_BITS, dtype=np.uint64).view(np.float64)
        write_tables({tmp_path / "a.csv": {"v": np.tile(values, 3)}})
        assert (tmp_path / "a.csv").read_text().split()[1:10] == [
            "0.0", "-0.0", "nan", "nan", "nan", "nan", "inf", "-inf", "5e-324"]

    @pytest.mark.parametrize("table", [
        {"a,b": np.zeros(2), "c": np.zeros(2)},
        {"a": ["x", 'say "x"'], "b": np.zeros(2)},
        {"a": ["x", "two\nlines"], "b": np.zeros(2)},
        {"a": ["x\r", "y"], "b": np.zeros(2)},
        {"a": ["1.0", "1,5"], "b": np.zeros(2)},
    ], ids=["comma-in-name", "quote-in-cell", "newline-in-cell", "return-in-cell",
            "comma-in-cell"])
    def test_cells_the_csv_module_would_quote_are_refused(self, tmp_path, table):
        with pytest.raises(ValueError, match="holds"):
            write_tables({tmp_path / "a.csv": table})
        assert not (tmp_path / "a.csv").exists()

    @pytest.mark.parametrize("table", [
        {"": np.zeros(2)},
        {"a": ["x", ""]},
    ], ids=["empty-name", "empty-cell"])
    def test_one_column_table_with_an_empty_cell_is_refused(self, tmp_path, table):
        # the csv module writes such a row as '""'
        with pytest.raises(ValueError, match="one-column"):
            write_tables({tmp_path / "a.csv": table})
        assert not (tmp_path / "a.csv").exists()

    def test_empty_cells_beside_other_columns_match_the_csv_module(self, tmp_path):
        table = {"": ["", ""], "b": ["", "x"]}
        write_tables({tmp_path / "new.csv": table})
        reference_write_columns(tmp_path / "old.csv", table)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert (tmp_path / "new.csv").read_bytes() == b",b\r\n,\r\n,x\r\n"

    def test_columns_of_different_lengths_are_refused(self, tmp_path):
        with pytest.raises(ValueError, match="differ in length"):
            write_tables({tmp_path / "a.csv": {"a": np.zeros(3), "b": ["x", "y"]}})

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_tables_written_together_equal_the_csv_module_writer(self, tmp_path_factory,
                                                                 data):
        # 1-3 tables in one call, of unequal row counts, sharing some columns
        # (the same array, or a copy of it) and holding columns that are equal
        # as floats but not in bits, which must not share texts
        d = tmp_path_factory.mktemp("csv")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        shared = rng.standard_normal(3 * BLOCK + 5)
        shared[rng.integers(len(shared), size=40)] = 0.0
        flipped = np.where(shared == 0.0, -0.0, shared)  # equal as floats, not in bits
        nans = np.array(AWKWARD_BITS[2:6], dtype=np.uint64).view(np.float64)
        tables = {}
        for j in range(data.draw(st.integers(1, 3))):
            table = data.draw(tables_of_rows(data.draw(st.sampled_from(ROW_COUNTS))))
            rows = len(next(iter(table.values())))
            for name in data.draw(st.lists(st.sampled_from(["shared", "copy", "flipped",
                                                            "nan_a", "nan_b"]),
                                           unique=True, max_size=4)):
                table[name] = {"shared": shared[:rows], "copy": shared[:rows].copy(),
                               "flipped": flipped[:rows],
                               "nan_a": np.resize(nans, rows),
                               "nan_b": np.resize(nans[::-1], rows)}[name]
            tables[d / f"t{j}.csv"] = table
        for path, table in tables.items():
            reference_write_columns(path.with_suffix(".ref"), table)
        if any(b'"' in p.with_suffix(".ref").read_bytes() for p in tables):
            with pytest.raises(ValueError, match="one-column"):
                write_tables(tables)
            assert not any(p.exists() for p in tables)
        else:
            write_tables(tables)
            for path in tables:
                assert path.read_bytes() == path.with_suffix(".ref").read_bytes()

    @pytest.mark.parametrize("bad", [
        {"a,b": np.zeros(2)},
        {"a": ["x", "y"], "b": np.zeros(3)},
        {"": np.zeros(2)},
    ], ids=["comma-in-name", "unequal-lengths", "one-column-empty-name"])
    @pytest.mark.parametrize("position", [0, 2])
    def test_a_refused_table_leaves_no_file(self, tmp_path, bad, position):
        good = {"t": np.linspace(0.0, 1.0, 5), "x": np.arange(5)}
        tables = {tmp_path / f"{j}.csv": good for j in range(3)}
        tables[tmp_path / f"{position}.csv"] = bad
        with pytest.raises(ValueError):
            write_tables(tables)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("count", [1, 3])
    def test_peak_memory_is_a_few_blocks(self, tmp_path, count):
        # 200,000 rows per table, about 14 MB of text each: formatting a whole
        # table at once would hold far more than 4 MiB; tables written
        # together hold one block of each at a time
        rows = 200_000
        rng = np.random.default_rng(3)
        tables = {}
        for j in range(count):
            tables[tmp_path / f"{j}.csv"] = {
                "t": np.linspace(0.0, 1.0, rows), "x": rng.standard_normal(rows),
                "y": rng.random(rows), "jump": np.where(rng.random(rows) < 0.01, 0.5, 0.0),
                "index": np.arange(rows)}
        tracemalloc.start()
        try:
            write_tables(tables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for path in tables:
            assert path.stat().st_size > 12_000_000
        assert peak < 4 * 2**20
