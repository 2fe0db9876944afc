"""Corpus builder."""

import pytest

from repro.errors import WorkloadError
from repro.workload.corpus import Corpus
from repro.workload.manifest import get_spec, large_files, small_files


@pytest.fixture(scope="module")
def corpus():
    return Corpus(scale=0.03)


class TestScaling:
    def test_large_files_scale(self, corpus):
        spec = get_spec("M31C.xml")
        assert corpus.scaled_size(spec) == int(spec.size_bytes * 0.03)

    def test_small_files_keep_true_size(self, corpus):
        spec = get_spec("mail0")
        assert corpus.scaled_size(spec) == spec.size_bytes

    def test_min_size_floor(self):
        corpus = Corpus(scale=0.0001, min_size=512)
        spec = get_spec("localedef")  # 330072 * 0.0001 = 33 < 512
        assert corpus.scaled_size(spec) == 512

    def test_invalid_scale(self):
        with pytest.raises(WorkloadError):
            Corpus(scale=0)
        with pytest.raises(WorkloadError):
            Corpus(scale=1.5)


class TestGeneration:
    def test_generate_caches(self, corpus):
        a = corpus.generate("proxy.ps")
        b = corpus.generate("proxy.ps")
        assert a is b

    def test_generated_size(self, corpus):
        gf = corpus.generate("proxy.ps")
        assert gf.size == corpus.scaled_size(gf.spec)

    def test_factor_within_band(self, corpus):
        for name in ("proxy.ps", "input.random", "mail2", "NTBACKUP.EXE"):
            gf = corpus.generate(name)
            assert gf.measured_factor() == pytest.approx(
                gf.target_factor, rel=0.16
            ), name

    def test_mixed_type_generated(self, corpus):
        gf = corpus.generate("langspec-2.0.pdf")
        assert gf.knob == -1.0  # mixed path
        assert gf.measured_factor() == pytest.approx(gf.target_factor, rel=0.16)

    def test_reproducible_across_instances(self):
        a = Corpus(scale=0.02).generate("java.ps").data
        b = Corpus(scale=0.02).generate("java.ps").data
        assert a == b

    def test_reproducible_across_processes(self):
        """str hashing is salted per process; corpus seeds must not be.

        Two fresh interpreters (different PYTHONHASHSEED) must produce
        byte-identical files.
        """
        import os
        import subprocess
        import sys

        script = (
            "from repro.workload.corpus import Corpus;"
            "import hashlib;"
            "print(hashlib.sha256(Corpus(scale=0.02).generate('mail2').data)"
            ".hexdigest())"
        )

        def digest(seed):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            return subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                timeout=120,
                env=env,
            ).stdout.strip()

        d1 = digest("1")
        d2 = digest("424242")
        assert d1 and d1 == d2

    def test_corpus_bytes_are_pinned(self, corpus_2pct):
        """Every file's bytes at 2% scale, in Table 2 order, as one digest.

        Generator speed-ups must leave the corpus byte-identical; the
        digest was recorded before calibration built the t=1 sample once.
        """
        import hashlib

        digest = hashlib.sha256()
        count = 0
        for f in corpus_2pct.files():
            digest.update(
                f.name.encode() + b"\0" + len(f.data).to_bytes(8, "big") + f.data
            )
            count += 1
        assert count == 37
        assert digest.hexdigest() == (
            "19f65c7cf6999cf7ce9201504d0a72cf22b1cafc4f1de29eedeab33ed712e63a"
        )

    def test_files_iterator_subset(self, corpus):
        specs = small_files()[:3]
        generated = list(corpus.files(specs))
        assert [g.name for g in generated] == [s.name for s in specs]


class TestFactorReport:
    def test_whole_corpus_within_band(self):
        """The headline corpus validation: every file within +-16% of its
        Table 2 gzip factor at the default benchmark scale."""
        corpus = Corpus(scale=0.05)
        rows = corpus.factor_report()
        assert len(rows) == len(large_files()) + len(small_files())
        for row in rows:
            assert abs(row["relative_error"]) <= 0.16, row
