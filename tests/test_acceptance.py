"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and asserting its stated tolerance and runtime budget.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines on
passing runs).
"""

import math
import time

import numpy as np
import pytest

from bbcsec import (
    AuxChain,
    CodebookParams,
    CondDist,
    Dist,
    MessageSets,
    RateTuple,
    SimConfig,
    asymptotic_terms,
    bbc_frontier,
    binary_symmetric,
    equivocation_exact,
    equivocation_mc,
    evaluate_chain,
    from_marginals,
    generate,
    make_partition,
    membership,
    run,
    support_function,
    tuple_satisfied,
)
from bbcsec.cli import main as cli_main
from bbcsec.jsonio import dump as json_dump
from bbcsec.probability import _entropy
from bbcsec.region import SearchParams

from . import oracles
from .conftest import random_chain, random_channel


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")


def _budget(criterion: str, elapsed: float, limit: float) -> None:
    print(f"[acceptance] {criterion}: runtime {elapsed:.2f}s (limit {limit:.0f}s)")
    assert elapsed < limit


@pytest.fixture(scope="module")
def bsc12():
    return from_marginals(binary_symmetric(0.1), binary_symmetric(0.2))


@pytest.fixture(scope="module")
def degraded_chain():
    return AuxChain(Dist([1.0]), CondDist([[0.5, 0.5]]), CondDist(np.eye(2)))


def test_criterion_01_information_kernel():
    t0 = time.perf_counter()
    ok = True
    for k in range(2, 33):
        ok &= abs(_entropy(Dist(np.full(k, 1 / k)).probs) - math.log2(k)) <= 1e-10
    rng = np.random.default_rng(11)
    for _ in range(1000):
        na, nb = rng.integers(2, 6, size=2)
        j = rng.dirichlet(np.ones(na * nb)).reshape(na, nb)
        h_ab = _entropy(j)
        h_a = _entropy(j.sum(axis=1))
        h_b_given_a = h_ab - h_a
        ok &= abs(h_ab - (h_a + h_b_given_a)) <= 1e-10
        # conditional entropy from the definition as the independent route
        direct = -math.fsum(
            p * math.log2(p / j.sum(axis=1)[a])
            for a in range(na)
            for p in j[a]
            if p > 0
        )
        ok &= abs(h_b_given_a - direct) <= 1e-10
    elapsed = time.perf_counter() - t0
    _report("1 information kernel", ok)
    assert ok
    _budget("1 information kernel", elapsed, 5.0)


def test_criterion_02_degraded_wiretap_cli(tmp_path, capsys):
    t0 = time.perf_counter()
    oracle = oracles.grid_secrecy_rate(binary_symmetric(0.1), binary_symmetric(0.2), step=1e-4)
    channel_path = tmp_path / "bsc12.json"
    json_dump(
        {"x_size": 2, "y1_size": 2, "y2_size": 2,
         "marginals": {"w1": binary_symmetric(0.1), "w2": binary_symmetric(0.2)}},
        channel_path,
    )
    out_path = tmp_path / "secrecy.csv"
    code = cli_main([
        "region", str(channel_path), "--mode", "secrecy", "--weights", "6",
        "--restarts", "8", "--iterations", "150", "--out", str(out_path),
    ])
    capsys.readouterr()
    assert code == 0
    rows = out_path.read_text().strip().split("\n")[1:]
    rc_at_pure_direction = None
    for row in rows:
        vals = [float(v) for v in row.split(",")]
        if vals[:4] == [1.0, 0.0, 0.0, 0.0]:
            rc_at_pure_direction = vals[4]
    elapsed = time.perf_counter() - t0
    ok = rc_at_pure_direction is not None and rc_at_pure_direction >= oracle - 1e-3
    _report("2 degraded wiretap", ok, f"rc={rc_at_pure_direction} oracle={oracle:.6f}")
    assert ok
    _budget("2 degraded wiretap", elapsed, 30.0)


def test_criterion_03_bbc_corner(bsc12):
    t0 = time.perf_counter()
    cap1 = oracles.grid_channel_capacity(binary_symmetric(0.1), step=1e-4)
    cap2 = oracles.grid_channel_capacity(binary_symmetric(0.2), step=1e-4)
    pts = bbc_frontier(bsc12, 9)
    best = min(
        math.hypot(e.point.r1 - cap1, e.point.r2 - cap2) for e in pts
    )
    elapsed = time.perf_counter() - t0
    ok = best <= 1e-3 and abs(cap1 - 0.53100) < 5e-6 and abs(cap2 - 0.27807) < 5e-6
    _report("3 bidirectional corner", ok, f"distance={best:.2e}")
    assert ok
    _budget("3 bidirectional corner", elapsed, 10.0)


def test_criterion_04_region_consistency(bsc12):
    t0 = time.perf_counter()
    p = SearchParams(restarts=8, iterations=120, seed=0)
    slice_pts = []
    for k in range(33):
        theta = (math.pi / 2) * k / 32
        res = support_function(bsc12, (0.0, 0.0, math.cos(theta), math.sin(theta)), p)
        slice_pts.append((res.corner.r1, res.corner.r2))
    bbc_pts = [(e.point.r1, e.point.r2) for e in bbc_frontier(bsc12, 33)]
    dist = oracles.hausdorff(slice_pts, bbc_pts)
    elapsed = time.perf_counter() - t0
    ok = dist <= 1e-2
    _report("4 region consistency", ok, f"hausdorff={dist:.2e}")
    assert ok
    _budget("4 region consistency", elapsed, 120.0)


def test_criterion_05_perfect_secrecy_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(21)
    ok = True
    for trial in range(10):
        nx = int(rng.integers(2, 4))
        ny2 = int(rng.integers(2, 4))
        w1 = rng.dirichlet(np.ones(2), size=nx)
        ch = from_marginals(w1, np.full((nx, ny2), 1.0 / ny2))
        chain = random_chain(rng, int(rng.integers(1, 4)), int(rng.integers(2, 5)), nx)
        params = CodebookParams(
            n=int(rng.integers(3, 7)),
            m1_size=int(rng.integers(1, 3)),
            m2_size=int(rng.integers(1, 3)),
            j_size=int(rng.integers(1, 5)),
            l_size=int(rng.integers(1, 5)),
            seed=trial,
        )
        cb = generate(params, chain, ch)
        ms = MessageSets(params)
        h = equivocation_exact(cb, ms)
        ok &= abs(h - math.log2(ms.mc_size)) <= 1e-9
    elapsed = time.perf_counter() - t0
    _report("5 perfect-secrecy oracle", ok)
    assert ok
    _budget("5 perfect-secrecy oracle", elapsed, 60.0)


def test_criterion_06_estimator_cross_validation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    ok = True
    for trial in range(10):
        nx = 2
        ny2 = 2
        ch = random_channel(rng, nx, 2, ny2)
        chain = random_chain(rng, int(rng.integers(1, 3)), int(rng.integers(2, 4)), nx)
        n = int(rng.integers(4, 9))  # 2^n <= 2^16 output words
        params = CodebookParams(
            n=n,
            m1_size=int(rng.integers(1, 3)),
            m2_size=int(rng.integers(1, 3)),
            j_size=int(rng.integers(2, 5)),
            l_size=int(rng.integers(1, 4)),
            seed=100 + trial,
        )
        cb = generate(params, chain, ch)
        ms = (
            MessageSets(params)
            if trial % 2 == 0
            else MessageSets.case_b(params, max(1, params.j_size // 2))
        )
        exact = equivocation_exact(cb, ms)
        est, se = equivocation_mc(cb, ms, 2500, np.random.default_rng(200 + trial))
        ok &= abs(est - exact) <= max(3 * se, 1e-9)
    elapsed = time.perf_counter() - t0
    _report("6 estimator cross-validation", ok)
    assert ok
    _budget("6 estimator cross-validation", elapsed, 180.0)


def test_criterion_07_asymptotic_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(1000):
        nx = int(rng.integers(2, 4))
        chain = random_chain(rng, int(rng.integers(1, 5)), int(rng.integers(1, 6)), nx)
        ch = random_channel(rng, nx, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        terms = asymptotic_terms(chain, ch)
        iq = evaluate_chain(chain, ch)
        worst = max(worst, abs(terms.combination - (iq.iv1 - iq.iv2)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10
    _report("7 asymptotic-term identity", ok, f"worst={worst:.2e}")
    assert ok
    _budget("7 asymptotic-term identity", elapsed, 10.0)


def test_criterion_08_partition_property():
    t0 = time.perf_counter()
    ok = True
    for j in range(1, 257):
        for k in range(1, j + 1):
            sizes = np.bincount(make_partition(j, k))
            ok &= int(sizes.max()) <= 2 * int(sizes.min())
    elapsed = time.perf_counter() - t0
    _report("8 partition property", ok)
    assert ok
    _budget("8 partition property", elapsed, 1.0)


def test_criterion_09_convexity_monotonicity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    ch = random_channel(rng, 2, 2, 2)
    scan = SearchParams(restarts=20, iterations=60, seed=0)  # base budget x4

    def random_inside():
        chain = random_chain(rng, int(rng.integers(1, 5)), int(rng.integers(1, 6)), 2)
        iq = evaluate_chain(chain, ch)
        a, b, c, d = rng.uniform(0.1, 0.85, size=4)
        r1, r2 = a * iq.iu1, b * iq.iu2
        rc = c * (iq.iv1 + min(iq.iu1 - r1, iq.iu2 - r2))
        re = d * min(rc, iq.secrecy_bound)
        t = RateTuple(rc, re, r1, r2)
        assert tuple_satisfied(iq, t)  # inside by construction
        return t

    ok = True
    for _ in range(200):
        t1, t2 = random_inside(), random_inside()
        for lam in (0.25, 0.5, 0.75):
            mid = RateTuple(*(lam * t1.as_array() + (1 - lam) * t2.as_array()))
            ok &= membership(mid, ch, scan).verdict == "inside"
        for t in (t1, t2):
            reduced = RateTuple(t.rc, 0.5 * t.re, t.r1, t.r2)
            ok &= membership(reduced, ch, scan).verdict == "inside"
    elapsed = time.perf_counter() - t0
    _report("9 convexity/monotonicity scans", ok)
    assert ok
    _budget("9 convexity/monotonicity scans", elapsed, 120.0)


def test_criterion_10_trend_and_equivocation(bsc12, degraded_chain):
    t0 = time.perf_counter()
    iq = evaluate_chain(degraded_chain, bsc12)
    bound = iq.iv1 - iq.iv2

    def sizes_at(n, frac=0.7):
        j = max(1, round(2 ** (frac * iq.iv2 * n)))
        l = max(1, round(2 ** (frac * (iq.iv1 - iq.iv2) * n)))
        return j, l

    medians1, medians2 = [], []
    for n in (8, 12, 16):
        j, l = sizes_at(n)
        e1s, e2s = [], []
        for seed in range(5):
            params = CodebookParams(n=n, j_size=j, l_size=l, seed=seed)
            cfg = SimConfig(trials=200, params=params, chain=degraded_chain,
                            channel=bsc12, equiv_mode="none", epsilon=0.2, seed=seed)
            rep = run(cfg)
            e1s.append(rep.e1.rate)
            e2s.append(rep.e2.rate)
        medians1.append(float(np.median(e1s)))
        medians2.append(float(np.median(e2s)))

    trend_ok = all(medians1[i] >= medians1[i + 1] for i in range(2)) and all(
        medians2[i] >= medians2[i + 1] for i in range(2)
    )

    j16, l16 = sizes_at(16)
    params16 = CodebookParams(n=16, j_size=j16, l_size=l16, seed=0)
    cb = generate(params16, degraded_chain, bsc12)
    equiv_rate = equivocation_exact(cb, MessageSets(params16)) / 16
    equiv_ok = equiv_rate >= 0.5 * bound

    elapsed = time.perf_counter() - t0
    ok = trend_ok and equiv_ok
    _report(
        "10 trend and equivocation",
        ok,
        f"e1 medians={medians1} e2 medians={medians2} "
        f"equiv_rate={equiv_rate:.4f} vs 0.5*bound={0.5 * bound:.4f}",
    )
    assert ok
    _budget("10 trend and equivocation", elapsed, 300.0)
