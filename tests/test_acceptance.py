"""Acceptance gate: twelve go/no-go checks, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every check is computed first and printed as

    criterion N: PASS|FAIL — detail

before the assertion fires, so a red run still reports every verdict.
"""

import csv
import io
import math
import time

import numpy as np

import _oracle as oracle
from oofa import (
    CompoundSpec,
    CriterionKind,
    CriterionSpec,
    Dataset,
    Design,
    SearchConfig,
    akaike_weights,
    apv,
    build_matrix,
    combine_predictions,
    compound,
    criterion_value,
    enumerate_permutations,
    exchange_search,
    full_factorial_matrix,
    ols_fit,
    orthogonal_coding,
    parse_model,
    pwo_to_ltpwo_maps,
    standardize,
)
from oofa.adaptors import apv_from_matrices, av_from_matrices
from oofa.cli import main
from oofa.search import random_design

FIVE_FAMILIES = ("pwo", "tpwo:invh", "cp", "rs2", "nn")


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def full_factorial_design(m: int) -> Design:
    return Design.from_orders([perm.order for perm in enumerate_permutations(m)])


def estimable_random_design(m, n, specs, seed_start):
    """First random n-run design (from seed_start upward) full-rank for all specs."""
    seed = seed_start
    while True:
        design = random_design(m, n, seed)
        ranks_ok = all(
            np.linalg.matrix_rank(build_matrix(spec, design.runs).values)
            == spec.param_count(m)
            for spec in specs
        )
        if ranks_ok:
            return design, seed
        seed += 1


def test_criterion_01_parameter_counts():
    expected = {
        "pwo": (4, 7, 11, 16),
        "tpwo:invh": (4, 7, 11, 16),
        "rs2": (5, 9, 14, 20),
        "cp": (5, 10, 17, 26),
    }
    got = {
        label: tuple(parse_model(label).param_count(m) for m in (3, 4, 5, 6))
        for label in expected
    }
    ok = got == expected
    report(1, ok, f"PWO/tPWO, RS2, CP parameter counts at m=3..6: {got}")


def test_criterion_02_average_pairwise_variance_full_factorial_m4():
    design = full_factorial_design(4)
    expected = {
        "pwo": 0.52174,
        "tpwo:invh": 0.52174,
        "cp": 0.78261,
        "rs2": 0.69565,
        "nn": 0.95652,
    }
    got = {label: apv(parse_model(label), design) for label in expected}
    ok = all(abs(got[k] - expected[k]) <= 1e-4 for k in expected)
    report(2, ok, "apv on the m=4 full factorial: "
           + ", ".join(f"{k}={got[k]:.5f}" for k in expected))


def test_criterion_03_error_df_with_block(m4_dataset, m5_dataset):
    expected = {4: (16, 16, 13, 14, 11), 5: (28, 28, 22, 25, 19)}
    got = {}
    for m, data in ((4, m4_dataset), (5, m5_dataset)):
        got[m] = tuple(
            ols_fit(parse_model(label), data).df_error for label in FIVE_FAMILIES
        )
    ok = got == expected
    report(3, ok, f"error d.f. with one block column, m=4 then m=5: {got}")


def test_criterion_04_third_order_df(m4_dataset, m5_dataset):
    # m=4: block column included, as for the second-order families.
    got_m4 = (
        ols_fit(parse_model("rs3_special"), m4_dataset).df_error,
        ols_fit(parse_model("rs3"), m4_dataset).df_error,
    )
    # m=5: the stated targets (17, 11) only hold without the block column
    # (40 - 23 = 17, 40 - 29 = 11); with the block they shift down by one.
    m5_noblock = Dataset(m5_dataset.design.without_block(), m5_dataset.response)
    got_m5 = (
        ols_fit(parse_model("rs3_special"), m5_noblock).df_error,
        ols_fit(parse_model("rs3"), m5_noblock).df_error,
    )
    got_m5_block = (
        ols_fit(parse_model("rs3_special"), m5_dataset).df_error,
        ols_fit(parse_model("rs3"), m5_dataset).df_error,
    )
    ok = got_m4 == (11, 8) and got_m5 == (17, 11) and got_m5_block == (16, 10)
    report(4, ok, "third-order d.f. (special, full): "
           f"m=4 with block {got_m4} (want (11, 8)); "
           f"m=5 without block {got_m5} (want (17, 11)); "
           f"m=5 with block {got_m5_block} (pinned (16, 10))")


def test_criterion_05_pwo_linear_tpwo_equivalence():
    pwo, ltpwo = parse_model("pwo"), parse_model("tpwo:linear")
    worst_fit, worst_map, worst_inv = 0.0, 0.0, 0.0
    seed = 0
    for m, n in ((3, 8), (4, 12), (5, 16)):
        forward, back = pwo_to_ltpwo_maps(m)
        worst_inv = max(
            worst_inv,
            float(np.max(np.abs(forward @ back - np.eye(forward.shape[0])))),
        )
        rng = np.random.default_rng(20260815 + m)
        for _ in range(50):
            design, seed = estimable_random_design(m, n, [pwo], seed)
            seed += 1
            x_pwo = build_matrix(pwo, design.runs).values
            x_lt = build_matrix(ltpwo, design.runs).values
            worst_map = max(worst_map, float(np.max(np.abs(x_pwo @ forward - x_lt))))
            y = rng.normal(50.0, 5.0, size=n)
            data = Dataset(design, y)
            fit_a = ols_fit(pwo, data)
            fit_b = ols_fit(ltpwo, data)
            fitted_a = x_pwo @ fit_a.coefficients
            fitted_b = x_lt @ fit_b.coefficients
            worst_fit = max(worst_fit, float(np.max(np.abs(fitted_a - fitted_b))))
    ok = worst_fit <= 1e-10 and worst_map < 1e-10 and worst_inv <= 1e-10
    report(5, ok, "PWO vs linear-tPWO on 150 random datasets: max fitted-value "
           f"gap {worst_fit:.2e}, map residual {worst_map:.2e}, "
           f"A·B-I {worst_inv:.2e}")


def test_criterion_06_standardized_position_identities():
    worst = 0.0
    for m in range(2, 8):
        p = np.array([standardize(perm).p for perm in enumerate_permutations(m)])
        sum_p = p.sum(axis=1)
        sum_sq = (p**2).sum(axis=1)
        sum_cross = (sum_p**2 - sum_sq) / 2.0
        worst = max(
            worst,
            float(np.max(np.abs(sum_p - 1.0))),
            float(np.max(np.abs(sum_sq - 2.0 * (2 * m + 1) / (3 * m * (m + 1))))),
            float(np.max(np.abs(
                sum_cross - (3 * m**2 - m - 2) / (6.0 * m * (m + 1))
            ))),
        )
    ok = worst <= 1e-12
    report(6, ok, f"position identities over every permutation, m=2..7: "
           f"max deviation {worst:.2e}")


def test_criterion_07_akaike_weight_properties():
    rng = np.random.default_rng(7)
    sums_ok = True
    shift_ok = True
    for _ in range(25):
        aics = rng.normal(100.0, 20.0, size=rng.integers(2, 8))
        w = akaike_weights(aics)
        sums_ok &= abs(w.sum() - 1.0) <= 1e-12
        shift_ok &= bool(np.allclose(w, akaike_weights(aics + 37.5), atol=1e-12))
    pair = akaike_weights([0.0, 2.0])
    pair_ok = abs(pair[0] - 0.731) <= 1e-3 and abs(pair[1] - 0.269) <= 1e-3
    ok = sums_ok and shift_ok and pair_ok
    report(7, ok, f"weights sum to 1, shift-invariant, and (0,2) -> "
           f"({pair[0]:.3f}, {pair[1]:.3f})")


def test_criterion_08_averaging_degenerate_cases():
    # K = 1: averaging is the identity on the single model.
    est = np.array([[1.0, 2.0, 3.0]])
    cvar = np.array([[0.5, 0.25, 4.0]])
    avg1, var1 = combine_predictions(est, cvar, np.array([1.0]))
    k1_ok = np.allclose(avg1, est[0]) and np.allclose(var1, cvar[0])
    # zero spread: identical predictions, equal conditional variance 4 -> 4.
    est2 = np.array([[1.0, 2.0], [1.0, 2.0]])
    cvar2 = np.full((2, 2), 4.0)
    _, var2 = combine_predictions(est2, cvar2, np.array([0.3, 0.7]))
    spread_ok = np.allclose(var2, 4.0)
    # zero conditional variance: only the spread term survives; with equal
    # weights and estimates avg +/- 1 the variance is exactly 1.
    est3 = np.array([[1.0, 5.0], [-1.0, 3.0]])
    cvar3 = np.zeros((2, 2))
    avg3, var3 = combine_predictions(est3, cvar3, np.array([0.5, 0.5]))
    disp_ok = np.allclose(avg3, [0.0, 4.0]) and np.allclose(var3, 1.0)
    ok = k1_ok and spread_ok and disp_ok
    report(8, ok, "K=1 identity, zero-spread -> conditional variance, "
           "zero-conditional-variance -> squared spread")


def test_criterion_09_reparameterization_invariance():
    rs2 = parse_model("rs2")
    worst_apv, worst_av = 0.0, 0.0
    seed = 1000
    for m in (3, 4):
        xf_main = full_factorial_matrix(rs2, m).values
        perms = enumerate_permutations(m)
        xf_alt = np.array([oracle.rs2_a3_row(perm.order) for perm in perms])
        for _ in range(20):
            design, seed = estimable_random_design(m, 2 * m * (m - 1), [rs2], seed)
            seed += 1
            x_main = build_matrix(rs2, design.runs).values
            x_alt = np.array([oracle.rs2_a3_row(run.order) for run in design.runs])
            worst_apv = max(worst_apv, abs(
                apv_from_matrices(x_main, xf_main) - apv_from_matrices(x_alt, xf_alt)
            ))
            worst_av = max(worst_av, abs(
                av_from_matrices(x_main, xf_main) - av_from_matrices(x_alt, xf_alt)
            ))
    ok = worst_apv <= 1e-10 and worst_av <= 1e-10
    report(9, ok, "apv/av agree across the two RS2 parameterizations on 40 "
           f"random designs: max gaps {worst_apv:.2e}, {worst_av:.2e}")


def test_criterion_10_orthogonal_coding():
    labels = ("pwo", "tpwo:invh", "tpwo:geom=0.5", "tpwo:linear", "cp", "rs2",
              "rs3", "rs3_special", "nn")
    worst_gram, worst_av = 0.0, 0.0
    seed = 5000
    for m in (3, 4):
        w = math.factorial(m)
        for label in labels:
            spec = parse_model(label)
            coding = orthogonal_coding(spec, m)
            coded_ff = coding.apply(full_factorial_matrix(spec, m).values)
            gram = coded_ff.T @ coded_ff
            worst_gram = max(worst_gram, float(np.max(np.abs(
                gram - w * np.eye(gram.shape[0])
            ))))
            design, seed = estimable_random_design(
                m, 2 * spec.param_count(m), [spec], seed
            )
            seed += 1
            coded_x = coding.apply(build_matrix(spec, design.runs).values)
            direct = float(np.trace(np.linalg.inv(coded_x.T @ coded_x)))
            via_criterion = criterion_value(
                spec, CriterionSpec(CriterionKind.AV, orthogonal_coding=True), design
            )
            worst_av = max(worst_av, abs(direct - via_criterion))
    ok = worst_gram <= 1e-8 and worst_av <= 1e-8
    report(10, ok, "coded Gram deviates from w·I by at most "
           f"{worst_gram:.2e}; coded av vs trace gap {worst_av:.2e}")


def test_criterion_11_design_search_beats_random():
    t0 = time.perf_counter()
    specs = [parse_model("pwo"), parse_model("rs2")]
    objective = CompoundSpec.equal_weights(specs, CriterionSpec(CriterionKind.APV))
    result = exchange_search(
        SearchConfig(m=4, n_runs=12, objective=objective, restarts=50, seed=2026)
    )
    found_estimable = all(
        np.linalg.matrix_rank(build_matrix(spec, result.design.runs).values)
        == spec.param_count(4)
        for spec in specs
    )
    best_random = math.inf
    n_estimable, seed = 0, 0
    while n_estimable < 1000:
        candidate = random_design(4, 12, seed)
        seed += 1
        ranks_ok = all(
            np.linalg.matrix_rank(build_matrix(spec, candidate.runs).values)
            == spec.param_count(4)
            for spec in specs
        )
        if not ranks_ok:
            continue
        n_estimable += 1
        best_random = min(best_random, compound(objective, candidate))
    elapsed = time.perf_counter() - t0
    ok = (result.objective <= best_random + 1e-12
          and found_estimable and elapsed < 60.0)
    report(11, ok, f"search objective {result.objective:.6f} <= best of 1000 "
           f"random estimable designs {best_random:.6f}; returned design "
           f"estimable for both models: {found_estimable}; {elapsed:.1f}s")


def test_criterion_12_end_to_end_matches_oracle(capsys, data_dir, oracle_fixtures):
    rc = main(["average", "--data", str(data_dir / "m3_runs.csv"),
               "--models", ",".join(FIVE_FAMILIES)])
    captured = capsys.readouterr()
    if rc != 0:
        report(12, False, f"CLI average exited with code {rc}")
    rows = list(csv.reader(io.StringIO(captured.out)))
    header, body = rows[0], rows[1:]
    fx = oracle_fixtures["m3"]

    worst = 0.0
    ranks_ok = True
    orders = [" ".join(row[:3]) for row in body]
    orders_ok = orders == fx["orders_lex"]
    for label in FIVE_FAMILIES:
        est_col = header.index(f"est_{label}")
        rank_col = header.index(f"rank_{label}")
        want = fx["predictions"][label]
        for i, row in enumerate(body):
            worst = max(worst, abs(float(row[est_col]) - want["estimates"][i]))
            ranks_ok &= int(row[rank_col]) == want["ranks"][i]
    ma = fx["model_average"]
    for i, row in enumerate(body):
        worst = max(worst, abs(float(row[header.index("ma_estimate")]) - ma["estimates"][i]))
        worst = max(worst, abs(float(row[header.index("ma_se")]) - ma["std_errors"][i]))
        ranks_ok &= int(row[header.index("ma_rank")]) == ma["ranks"][i]
    ok = orders_ok and ranks_ok and worst <= 1e-8
    report(12, ok, "CLI model-average table vs brute-force oracle: max "
           f"|difference| {worst:.2e}, all ranks and orders match: "
           f"{orders_ok and ranks_ok}")
