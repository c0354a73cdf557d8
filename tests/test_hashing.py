"""Unit tests for the word→bin hash family (builder/searcher parity)."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import _layer_bins_udf
from repro.core.hashing import HashFamily, bin_of, hash64


class TestHash64:
    def test_deterministic(self):
        assert hash64("hello", 42) == hash64("hello", 42)

    def test_seed_changes_value(self):
        assert hash64("hello", 1) != hash64("hello", 2)

    def test_word_changes_value(self):
        assert hash64("hello", 1) != hash64("world", 1)

    def test_64bit_range(self):
        h = hash64("anything", 123)
        assert 0 <= h < 2**64

    @given(st.text(min_size=0, max_size=50), st.integers(0, 2**32))
    @settings(max_examples=100)
    def test_stable_under_hypothesis(self, word, seed):
        assert hash64(word, seed) == hash64(word, seed)

    def test_unicode(self):
        assert isinstance(hash64("héllo→世界", 7), int)


class TestBinOf:
    @pytest.mark.parametrize("bins", [1, 2, 7, 100, 99_000])
    def test_in_range(self, bins):
        for w in ("a", "b", "blk_123", ""):
            assert 0 <= bin_of(w, 5, bins) < bins

    def test_roughly_uniform(self):
        bins = 10
        counts = [0] * bins
        for i in range(10_000):
            counts[bin_of(f"word{i}", 0, bins)] += 1
        assert max(counts) < 1.25 * 10_000 / bins
        assert min(counts) > 0.75 * 10_000 / bins

    def test_pairwise_collision_rate(self):
        # pairwise-independence proxy: collision probability ~ 1/bins
        bins = 50
        words = [f"w{i}" for i in range(500)]
        coll = sum(
            bin_of(a, 3, bins) == bin_of(b, 3, bins)
            for i, a in enumerate(words)
            for b in words[i + 1 :]
        )
        pairs = len(words) * (len(words) - 1) / 2
        assert coll / pairs == pytest.approx(1 / bins, rel=0.2)


class TestHashFamily:
    def test_create_distinct_seeds(self):
        fam = HashFamily.create(8, 100, base_seed=0)
        assert len(set(fam.seeds)) == 8

    def test_layers_disagree(self):
        # different layers must produce different groupings (§II-C)
        fam = HashFamily.create(2, 1000, base_seed=0)
        words = [f"w{i}" for i in range(200)]
        b0 = [fam.bins(w)[0] for w in words]
        b1 = [fam.bins(w)[1] for w in words]
        assert b0 != b1

    def test_bins_length(self):
        fam = HashFamily.create(5, 10)
        assert len(fam.bins("x")) == 5

    def test_reconstructable_from_seeds(self):
        fam = HashFamily.create(3, 64, base_seed=9)
        fam2 = HashFamily(seeds=fam.seeds, bins_per_layer=64)
        for w in ("alpha", "beta", "gamma"):
            assert fam.bins(w) == fam2.bins(w)

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError):
            HashFamily(seeds=(1, 1), bins_per_layer=4)

    def test_bad_bins_rejected(self):
        with pytest.raises(ValueError):
            HashFamily(seeds=(1,), bins_per_layer=0)

    def test_vectorized_matches_scalar(self, spark):
        # THE parity invariant: the Builder's pandas UDF, run by Spark,
        # must agree bit-for-bit with the Searcher's scalar path.
        fam = HashFamily.create(4, 997, base_seed=3)
        words = [f"word{i}" for i in range(300)] + ["blk_1", "INFO", "héllo"]
        df = spark.createDataFrame([(w,) for w in words], "word string")
        rows = df.select("word", _layer_bins_udf(fam)("word").alias("bins")).collect()
        assert sorted(r["word"] for r in rows) == sorted(words)
        for r in rows:
            assert list(r["bins"]) == fam.bins(r["word"])
