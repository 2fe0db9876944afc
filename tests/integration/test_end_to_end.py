"""End-to-end reproduction checks: the paper's headline claims.

These tests run the full pipeline — synthetic corpus file -> proxy ->
codec -> simulated session — and assert the qualitative results each
figure reports.
"""

import pytest

from repro.compression import get_codec
from repro.core.adaptive import AdaptiveBlockCodec
from repro.proxy.server import ProxyServer
from repro.simulator.analytic import AnalyticSession
from repro.workload.manifest import get_spec
from tests.conftest import mb


@pytest.fixture(scope="module")
def corpus(corpus_2pct):
    return corpus_2pct


@pytest.fixture(scope="module")
def session(model):
    return AnalyticSession(model)


def run_scheme(session, spec, scheme, interleave=False, power_save=False):
    """Model-level session for a Table 2 entry under one scheme."""
    s = spec.size_bytes
    sc = int(s / spec.factor(scheme))
    return session.precompressed(
        s, sc, codec=scheme, interleave=interleave, radio_power_save=power_save
    )


class TestFigure2Claims:
    """Energy comparison of the three schemes (Section 3.2)."""

    def test_gzip_beats_bzip2_on_energy_for_most_large_files(self, session):
        """'gzip ... far superior to bzip2 and compress' (abstract)."""
        from repro.workload.manifest import large_files

        wins = 0
        contests = 0
        for spec in large_files():
            if spec.gzip_factor < 1.1:
                continue  # media: nobody compresses
            contests += 1
            gzip_e = run_scheme(session, spec, "gzip").energy_j
            bzip_e = run_scheme(session, spec, "bzip2", power_save=True).energy_j
            lzw_e = run_scheme(session, spec, "compress").energy_j
            if gzip_e <= min(bzip_e, lzw_e):
                wins += 1
        assert wins >= contests * 0.8

    def test_high_factor_large_files_all_schemes_save(self, session):
        """'if the raw file is large and compression factor is high, all
        compression schemes can save energy'."""
        spec = get_spec("M31C.xml")
        raw = session.raw(spec.size_bytes)
        for scheme in ("gzip", "compress", "bzip2"):
            compressed = run_scheme(session, spec, scheme)
            assert compressed.energy_j < raw.energy_j

    def test_small_files_compression_loses(self, session):
        """'if the input file is small, compression fares worse due to the
        start-up cost'."""
        spec = get_spec("mail0")  # 1438 bytes
        raw = session.raw(spec.size_bytes)
        compressed = run_scheme(session, spec, "gzip")
        assert compressed.energy_j > raw.energy_j * 0.9

    def test_low_factor_compression_loses(self, session):
        """'If the compression factor is low, it is not beneficial either'."""
        spec = get_spec("input.graphic")  # factor 1.09
        raw = session.raw(spec.size_bytes)
        compressed = run_scheme(session, spec, "gzip")
        assert compressed.energy_j > raw.energy_j

    def test_decompression_efficiency_matters_most(self, session):
        """'neither the scheme with the highest compression factor nor the
        one with the lowest factor gets the best energy result' — bzip2
        compresses input.log deeper but gzip wins on energy."""
        spec = get_spec("input.log")
        assert spec.bzip2_factor > spec.gzip_factor
        gzip_e = run_scheme(session, spec, "gzip").energy_j
        bzip_e = run_scheme(session, spec, "bzip2", power_save=True).energy_j
        assert gzip_e < bzip_e


class TestFigure5And6Claims:
    """Interleaving (Section 4.1)."""

    def test_interleaving_reduces_time_and_energy(self, session):
        from repro.workload.manifest import large_files

        for spec in large_files():
            if spec.gzip_factor < 1.2:
                continue
            seq = run_scheme(session, spec, "gzip", interleave=False)
            inter = run_scheme(session, spec, "gzip", interleave=True)
            assert inter.energy_j <= seq.energy_j + 1e-9
            assert inter.time_s <= seq.time_s + 1e-9

    def test_net_loss_range_without_threshold(self, session, model):
        """'The net energy loss ranges between 2%-14%, compared to no
        compression' for low-factor files even with interleaving."""
        losses = []
        for name in ("ppp.exe", "input.graphic", "image01.jpg"):
            spec = get_spec(name)
            raw = session.raw(spec.size_bytes)
            inter = run_scheme(session, spec, "gzip", interleave=True)
            loss = (inter.energy_j - raw.energy_j) / raw.energy_j
            losses.append(loss)
        assert all(0.0 < loss < 0.20 for loss in losses)


class TestSelectiveClaims:
    """Section 4.3: with the thresholds, compression never loses."""

    def test_advisor_never_loses_across_table2(self, session, model):
        from repro.core.advisor import CompressionAdvisor
        from repro.workload.manifest import TABLE2_FILES

        advisor = CompressionAdvisor(model=model)
        for spec in TABLE2_FILES:
            rec = advisor.advise_metadata(spec.size_bytes, spec.gzip_factor)
            assert rec.estimated_energy_j <= model.download_energy_j(
                spec.size_bytes
            ) * 1.0001, spec.name


class TestProxyPipeline:
    """Full data-path: bytes through the proxy, codec and simulator."""

    def test_precompressed_download_with_real_bytes(self, corpus, session):
        gf = corpus.generate("proxy.ps")
        server = ProxyServer()
        server.put(gf.name, gf.data)
        plan = server.plan_precompressed(gf.name, "zlib")
        # The payload decodes back to the original.
        payload = server.get(gf.name).cache["zlib"].payload
        assert get_codec("zlib").decompress_bytes(payload) == gf.data
        result = session.precompressed(
            plan.raw_bytes, plan.transfer_bytes, interleave=True
        )
        raw = session.raw(plan.raw_bytes)
        assert result.energy_j < raw.energy_j

    def test_adaptive_path_with_real_bytes(self, corpus, session):
        gf = corpus.generate("langspec-2.0.pdf")
        server = ProxyServer()
        server.put(gf.name, gf.data)
        adaptive = AdaptiveBlockCodec(block_size=16 * 1024, size_threshold=1000)
        plan = server.plan_adaptive(gf.name, adaptive)
        assert plan.adaptive.blocks_compressed > 0
        # Roundtrip through the container.
        assert adaptive.decompress_bytes(plan.adaptive.payload) == gf.data
        result = session.adaptive(plan.adaptive, codec="zlib")
        raw = session.raw(len(gf.data))
        assert result.energy_j <= raw.energy_j * 1.02

    def test_ondemand_path(self, corpus, session):
        gf = corpus.generate("java.ps")
        server = ProxyServer()
        server.put(gf.name, gf.data)
        plan = server.plan_ondemand(gf.name, "zlib")
        assert plan.proxy_compress_s > 0
        od = session.ondemand(
            plan.raw_bytes, plan.transfer_bytes, overlap=True
        )
        raw = session.raw(plan.raw_bytes)
        assert od.energy_j < raw.energy_j


class TestCrossEngineEndToEnd:
    def test_des_and_analytic_tell_same_story(self, model):
        """Both engines order the strategies identically on a typical file."""
        from repro.simulator.des import DesSession

        analytic = AnalyticSession(model)
        des = DesSession(model)
        s, sc = mb(4), mb(1)

        def ordering(engine):
            results = {
                "raw": engine.raw(s).energy_j,
                "seq": engine.precompressed(s, sc, interleave=False).energy_j,
                "inter": engine.precompressed(s, sc, interleave=True).energy_j,
            }
            return sorted(results, key=results.get)

        assert ordering(analytic) == ordering(des) == ["inter", "seq", "raw"]
