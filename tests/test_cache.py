"""On-disk enumeration cache: roundtrip, validation, corruption recovery."""

import json
import os
from pathlib import Path

import pytest

from xjac import cache
from xjac.cache import (
    CACHE_VERSION,
    cache_key,
    cache_path,
    ensure_jacobian,
    load,
    save,
    serialize,
)
from xjac.curve import HyperellipticCurve
from xjac.errors import BudgetExceededError, CacheError
from xjac.field import finite_field


def fresh_curve(p=7, n=1, f="1,0,0,0,0,1"):
    # new objects every call: load() preloads enumeration state onto the
    # curve, so tests must not share instances
    return HyperellipticCurve(finite_field(p, n), f)


def warm_cache(tmp_path, **kw):
    curve = fresh_curve(**kw)
    divisors, source = ensure_jacobian(curve, str(tmp_path), budget=10**6)
    assert source == "computed"
    return curve, divisors


class TestKeying:
    def test_key_is_stable(self):
        assert cache_key(fresh_curve()) == cache_key(fresh_curve())

    def test_key_separates_parameters(self):
        base = cache_key(fresh_curve())
        assert cache_key(fresh_curve(f="2,0,0,0,0,1")) != base
        assert cache_key(fresh_curve(p=11, f="1,1,0,0,0,1")) != base
        assert cache_key(fresh_curve(p=3, n=3, f="0,1,0,0,0,1")) != base

    def test_path_shape(self, tmp_path):
        path = cache_path(str(tmp_path), fresh_curve())
        assert path.startswith(str(tmp_path))
        assert os.path.basename(path).startswith("jacobian-")
        assert path.endswith(".json")


class TestRoundtrip:
    def test_save_then_load(self, tmp_path):
        curve, divisors = warm_cache(tmp_path)
        reloaded_curve = fresh_curve()
        reloaded = load(str(tmp_path), reloaded_curve)
        assert reloaded == divisors
        # enumeration is preloaded: a tiny budget would reject recomputation,
        # but the orders must already be answerable from the loaded state
        assert reloaded_curve.jacobian_order() == 50
        assert len(reloaded_curve.points()) == 7

    def test_load_missing_returns_none(self, tmp_path):
        assert load(str(tmp_path), fresh_curve()) is None

    def test_ensure_uses_cache_second_time(self, tmp_path, capsys):
        warm_cache(tmp_path)
        divisors, source = ensure_jacobian(fresh_curve(), str(tmp_path), budget=10**6)
        assert source == "cache"
        assert len(divisors) == 50
        assert capsys.readouterr().err == ""

    def test_ensure_without_dir_computes(self):
        divisors, source = ensure_jacobian(fresh_curve(), None, budget=10**6)
        assert source == "computed"
        assert len(divisors) == 50

    def test_file_is_deterministic(self, tmp_path):
        curve, _ = warm_cache(tmp_path)
        path = cache_path(str(tmp_path), curve)
        first = Path(path).read_bytes()
        os.remove(path)
        warm_cache(tmp_path)
        assert Path(path).read_bytes() == first

    def test_extension_field_roundtrip(self, tmp_path):
        curve, divisors = warm_cache(tmp_path, p=3, n=3, f="0,1,0,0,0,1")
        assert len(divisors) == 684
        reloaded = load(str(tmp_path), fresh_curve(p=3, n=3, f="0,1,0,0,0,1"))
        assert reloaded == divisors

    @pytest.mark.parametrize("name", ["c7", "c9", "c27"])
    def test_points_recomputed_after_load(self, tmp_path, request, name):
        curve = request.getfixturevalue(name)
        save(str(tmp_path), curve, curve.enumerate_jacobian())
        reloaded = HyperellipticCurve(curve.field, curve.f)
        assert load(str(tmp_path), reloaded) == curve.enumerate_jacobian()
        assert reloaded.points() == HyperellipticCurve(curve.field, curve.f).points()

    # c27 (684 classes) holds more divisors than one default chunk of 512;
    # the small chunks split c7 (50) and c9 (F_3^2) evenly and unevenly
    @pytest.mark.parametrize("name", ["c7", "c9", "c27"])
    @pytest.mark.parametrize("chunk", [1, 7, 25, None])
    def test_streamed_bytes_match_one_shot_dumps(
        self, tmp_path, monkeypatch, request, name, chunk
    ):
        curve = request.getfixturevalue(name)
        divisors = curve.enumerate_jacobian()
        if chunk is not None:
            monkeypatch.setattr(cache, "_SAVE_CHUNK", chunk)
        path = save(str(tmp_path), curve, divisors)
        want = json.dumps(
            serialize(curve, divisors), sort_keys=True, separators=(",", ":")
        ) + "\n"
        assert Path(path).read_text(encoding="ascii") == want


def corrupt(tmp_path, curve, mutate):
    path = cache_path(str(tmp_path), curve)
    data = json.loads(Path(path).read_text())
    mutate(data)
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


class TestValidation:
    def test_unparseable_json(self, tmp_path):
        curve, _ = warm_cache(tmp_path)
        with open(cache_path(str(tmp_path), curve), "w") as fh:
            fh.write("{not json")
        with pytest.raises(CacheError):
            load(str(tmp_path), fresh_curve())

    @pytest.mark.parametrize(
        "field,value",
        [
            ("version", CACHE_VERSION + 1),
            ("p", 11),
            ("n", 2),
            ("modulus", "1,0,1"),
            ("f", "1,1,0,0,0,1"),
        ],
    )
    def test_parameter_mismatch(self, tmp_path, field, value):
        curve, _ = warm_cache(tmp_path)
        corrupt(tmp_path, curve, lambda d: d.__setitem__(field, value))
        with pytest.raises(CacheError, match=field):
            load(str(tmp_path), fresh_curve())

    def test_order_mismatch(self, tmp_path):
        curve, _ = warm_cache(tmp_path)
        corrupt(tmp_path, curve, lambda d: d.__setitem__("order", 49))
        with pytest.raises(CacheError, match="order"):
            load(str(tmp_path), fresh_curve())

    def test_truncated_divisors(self, tmp_path):
        curve, _ = warm_cache(tmp_path)

        def mutate(d):
            d["divisors"] = d["divisors"][:-1]
            d["order"] = len(d["divisors"])

        corrupt(tmp_path, curve, mutate)
        # still structurally fine per entry, but [1,0] stays first and all
        # entries valid; dropping the tail must still reload or fail loudly.
        # Here it reloads: validation is per-entry, the order field matches.
        reloaded = load(str(tmp_path), fresh_curve())
        assert len(reloaded) == 49

    def test_invalid_divisor_rejected(self, tmp_path):
        curve, _ = warm_cache(tmp_path)
        # u = x^2 + 1, v = 0 does not satisfy v^2 = f mod u over F_7
        bad = [[1, 0, 1], []]
        corrupt(tmp_path, curve, lambda d: d["divisors"].__setitem__(1, bad))
        with pytest.raises(CacheError, match="invalid"):
            load(str(tmp_path), fresh_curve())

    def test_noncanonical_poly_rejected(self, tmp_path):
        curve, _ = warm_cache(tmp_path)
        # trailing zero coefficient: not the canonical encoding
        bad = [[1, 0], [0]]
        corrupt(tmp_path, curve, lambda d: d["divisors"].__setitem__(1, bad))
        with pytest.raises(CacheError):
            load(str(tmp_path), fresh_curve())

    def test_element_out_of_range(self, tmp_path):
        # a coefficient equal to q, over F_7 and over F_3^3
        for kw in ({}, {"p": 3, "n": 3, "f": "0,1,0,0,0,1"}):
            cache_dir = tmp_path / f"q{fresh_curve(**kw).field.q}"
            curve, divisors = warm_cache(cache_dir, **kw)
            i = next(i for i, D in enumerate(divisors) if D.weight == 2)

            def mutate(d):
                d["divisors"][i][0][0] = curve.field.q

            corrupt(cache_dir, curve, mutate)
            with pytest.raises(CacheError, match=rf"divisors\[{i}\]"):
                load(str(cache_dir), fresh_curve(**kw))

    def test_coordinate_vector_rejected(self, tmp_path):
        # the version-1 encoding of an element: a list of F_p coordinates
        curve, divisors = warm_cache(tmp_path, p=3, n=3, f="0,1,0,0,0,1")
        D = divisors[1]
        v1_entry = [[list(curve.field.coords(c)) for c in P.coeffs] for P in (D.u, D.v)]
        corrupt(tmp_path, curve, lambda d: d["divisors"].__setitem__(1, v1_entry))
        with pytest.raises(CacheError, match=r"divisors\[1\]"):
            load(str(tmp_path), fresh_curve(p=3, n=3, f="0,1,0,0,0,1"))

    def test_off_curve_point_rejected(self, tmp_path):
        curve, _ = warm_cache(tmp_path)
        # the weight-1 class of (2, 0): u = x - 2, v = 0, but f(2) = 5 != 0
        assert not curve.is_point(2, 0)
        corrupt(tmp_path, curve, lambda d: d["divisors"].__setitem__(1, [[5, 1], []]))
        with pytest.raises(CacheError, match="invalid"):
            load(str(tmp_path), fresh_curve())

    def test_duplicate_divisors_rejected(self, tmp_path):
        curve, _ = warm_cache(tmp_path)
        corrupt(
            tmp_path, curve, lambda d: d["divisors"].__setitem__(2, d["divisors"][1])
        )
        with pytest.raises(CacheError, match="duplicate"):
            load(str(tmp_path), fresh_curve())

    def test_missing_neutral_first(self, tmp_path):
        curve, _ = warm_cache(tmp_path)

        def mutate(d):
            d["divisors"][0], d["divisors"][1] = d["divisors"][1], d["divisors"][0]

        corrupt(tmp_path, curve, mutate)
        with pytest.raises(CacheError, match=r"\[1, 0\]"):
            load(str(tmp_path), fresh_curve())


class TestRecovery:
    def test_corrupt_cache_recomputed_and_rewritten(self, tmp_path, capsys):
        curve, divisors = warm_cache(tmp_path)
        path = cache_path(str(tmp_path), curve)
        good = Path(path).read_bytes()
        with open(path, "w") as fh:
            fh.write("garbage")

        out, source = ensure_jacobian(fresh_curve(), str(tmp_path), budget=10**6)
        assert source == "computed"
        assert out == divisors
        assert "ignoring corrupt cache" in capsys.readouterr().err
        assert Path(path).read_bytes() == good  # rewritten clean

    @pytest.mark.parametrize("kw", [{}, {"p": 3, "n": 3, "f": "0,1,0,0,0,1"}])
    def test_version_1_file_rewritten(self, tmp_path, capsys, kw):
        curve = fresh_curve(**kw)
        K, divisors = curve.field, curve.enumerate_jacobian()

        def vecs(P):
            return [list(K.coords(c)) for c in P.coeffs]

        # the version-1 layout: coordinate vectors and a "points" section
        v1 = {
            "version": 1, "p": K.p, "n": K.n, "f": curve.f.to_string(),
            "modulus": cache.modulus_string(K), "order": len(divisors),
            "points": [[list(K.coords(P.x)), list(K.coords(P.y))] for P in curve.points()],
            "divisors": [[vecs(D.u), vecs(D.v)] for D in divisors],
        }
        path = Path(cache_path(str(tmp_path), curve))
        path.write_text(json.dumps(v1, sort_keys=True, separators=(",", ":")) + "\n")

        out, source = ensure_jacobian(fresh_curve(**kw), str(tmp_path), budget=10**6)
        assert source == "computed"
        assert out == divisors
        assert "ignoring corrupt cache" in capsys.readouterr().err
        rewritten = path.read_bytes()
        path.unlink()
        assert rewritten == Path(save(str(tmp_path), curve, divisors)).read_bytes()

    def test_budget_checked_before_cache(self, tmp_path):
        warm_cache(tmp_path)
        # (sqrt(7)+1)^4 ~ 176.7, so a warm cache must not rescue budget=100
        with pytest.raises(BudgetExceededError):
            ensure_jacobian(fresh_curve(), str(tmp_path), budget=100)
