"""Acceptance gates.

Each test enforces one criterion at its stated tolerance and prints a
[PASS]/[FAIL] line (run with -s to see them inline):

  1  global error order: second-order memoryless slope in [1.7, 2.3]
     (r^2 >= 0.98), first-order control in [0.8, 1.3]; <= 10 s
  2  one-step defect order: sup-defect slope in [2.7, 3.3]; <= 10 s
  3  closed-form vs brute-force corrections, five kinds, n in {1,5,50,200},
     20 points x {quadratic, quartic}: relative gap <= 1e-6 (heavy ball,
     Nesterov and the bias-corrected adaptive kinds by their O(1) closed
     forms, unbiased Lion-K by the contraction); <= 30 s
  4  finite-n heavy-ball bracket at n = 1 equals beta exactly; brute-force
     agreement <= 1e-12 for the heavy ball and Nesterov at n = 1
  5  equal-momentum adaptive and sign-momentum corrections agree <= 1e-12
     at 50 points for beta in {0.5, 0.9, 0.99}
  6  modified-equation G2 for the heavy ball <= 1e-10 against its closed
     form; discrete-vs-flow slopes in [1.7, 2.3] for heavy ball and the
     adaptive update (eps = 1e-3); <= 30 s
  7  permutation-averaged coefficients: 720-ordering exhaustive average
     equals the pair decomposition <= 1e-10; asymptotic values 4/3 and 8/3
     <= 1e-12; coefficient-sum identity <= 1e-12; 1e5-sample Monte Carlo
     within 3 standard errors; <= 60 s
  8  trajectory closeness on the logistic fixture (d = 20, m = 200,
     h in {1e-4, 3e-4}, lambda = 1e-3, eps = 1e-6, T = 0.5): second-order
     gap <= first-order gap at >= 95% of post-burn-in steps; <= 60 s
  9  differential-oracle health: finite-difference gradient/hvp errors
     <= 1e-5 on all fixtures, Hessian asymmetry <= 1e-10
  10 determinism: same seed => byte-identical CSV output
"""
import time

import numpy as np

from memlens import (OptimizerSpec, RunConfig, build_modified_ode,
                     compare_discrete_vs_ode, correction_bruteforce,
                     correction_closed, defect_sweep, fd_check_grad, fd_check_hvp,
                     global_error_sweep, loss_from_config,
                     make_minibatch_quadratics, make_quadratic,
                     make_scalar_quartic, n_burn_steps, ordering_fraction,
                     trajectory_closeness)
from memlens.cli import main as cli_main
from memlens.correction import heavyball_bracket
from memlens.memoryless import MemorylessKind
from memlens.minibatch import (expected_correction_decomposed,
                               expected_correction_exhaustive,
                               expected_correction_mc, perm_coefficients)

from conftest import random_spd, rel_linf
from oracles import correction_signum_adam_identity_check


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def check_runtime(criterion, elapsed, limit):
    report(f"{criterion} runtime", elapsed <= limit,
           f"{elapsed:.1f} s (limit {limit} s)")


def hb_quadratic_config(h=1e-2):
    # d = 10 random SPD quadratic with condition number <= 100
    return RunConfig(seed=7, dimension=10, horizon=1.0, loss_id="quadratic",
                     loss_params={"eig_min": 1e-3, "eig_max": 1e-1},
                     optimizer=OptimizerSpec.heavy_ball(h, 0.9), theta0="gauss")


H_GRID = [1e-2 * 2.0 ** -j for j in range(7)]


def test_criterion_1_global_error_order():
    t0 = time.perf_counter()
    cfg = hb_quadratic_config()
    second, = global_error_sweep(cfg, H_GRID, [MemorylessKind.second()])
    first, = global_error_sweep(cfg, H_GRID, [MemorylessKind.first()])
    elapsed = time.perf_counter() - t0
    report("1 second-order slope", 1.7 <= second.slope <= 2.3 and second.r2 >= 0.98,
           f"slope={second.slope:.3f} r2={second.r2:.4f}")
    report("1 first-order control", 0.8 <= first.slope <= 1.3 and first.r2 >= 0.98,
           f"slope={first.slope:.3f} r2={first.r2:.4f}")
    check_runtime(1, elapsed, 10.0)


def test_criterion_2_defect_order():
    t0 = time.perf_counter()
    rep, _ = defect_sweep(hb_quadratic_config(), H_GRID)
    elapsed = time.perf_counter() - t0
    report("2 defect slope", 2.7 <= rep.slope <= 3.3 and rep.r2 >= 0.98,
           f"slope={rep.slope:.3f} r2={rep.r2:.4f}")
    check_runtime(2, elapsed, 10.0)


def test_criterion_3_closed_vs_bruteforce():
    t0 = time.perf_counter()
    h = 1e-3
    specs = [
        OptimizerSpec.heavy_ball(h, 0.9),
        OptimizerSpec.nesterov(h, 0.9),
        OptimizerSpec.adamw(h, 0.9, 0.99, lam=0.1, eps=1e-4),
        OptimizerSpec.nadamw(h, 0.85, 0.9, lam=0.1, eps=1e-4),
        OptimizerSpec.lion_k(h, 0.9, 0.95, lam=0.1, eps=1e-4),
    ]
    g = np.random.default_rng(2024)
    quad = make_quadratic(random_spd(6, g), g.standard_normal(6))
    quart = make_scalar_quartic(1.0)
    worst = 0.0
    for spec in specs:
        for loss, d in ((quad, 6), (quart, 1)):
            for n in (1, 5, 50, 200):
                for _ in range(20):
                    theta = g.uniform(-2.0, 2.0, size=d)
                    brute = correction_bruteforce(spec, loss, theta, n).vector
                    closed = correction_closed(spec, loss, theta, n).vector
                    worst = max(worst, rel_linf(brute, closed))
    elapsed = time.perf_counter() - t0
    report("3 closed vs brute", worst <= 1e-6, f"max relative gap {worst:.2e}")

    # the large-n forms of Nesterov and NAdamW
    worst_asym = 0.0
    for spec in (specs[1], specs[3]):
        for _ in range(5):
            theta = g.uniform(-2.0, 2.0, size=6)
            brute = correction_bruteforce(spec, quad, theta, 200).vector
            asym = correction_closed(spec, quad, theta, None).vector
            worst_asym = max(worst_asym, rel_linf(brute, asym))
    report("3 large-n forms at n=200", worst_asym <= 1e-4,
           f"max relative gap {worst_asym:.2e}")
    check_runtime(3, elapsed, 30.0)


def test_criterion_4_heavyball_lemma_spot_value():
    for beta in (0.3, 0.9, 0.99):
        ratio = heavyball_bracket(beta, 1) / (1 - beta) ** 3
        report("4 bracket(n=1)", abs(ratio - 1.0) <= 1e-12,
               f"beta={beta}: bracket/(1-beta)^3 = {ratio!r}")
    # d = 1, grad = a*theta: closed n=1 coefficient is exactly h*beta*a^2*theta
    a, beta, h, theta = 2.0, 0.9, 1e-2, 1.3
    loss = make_quadratic(np.array([[a]]), np.zeros(1))
    spec = OptimizerSpec.heavy_ball(h, beta)
    closed = correction_closed(spec, loss, np.array([theta]), 1).vector[0]
    brute = correction_bruteforce(spec, loss, np.array([theta]), 1).vector[0]
    hand = h * beta * a * a * theta
    ok = abs(closed - hand) <= 1e-12 * abs(hand) and abs(closed - brute) <= 1e-12 * abs(hand)
    report("4 n=1 value vs brute force", ok,
           f"hand={hand!r} closed={closed!r} brute={brute!r}")
    # Nesterov: the k=1, s=0 term gives h*beta^2*(1+beta)*a^2*theta
    spec = OptimizerSpec.nesterov(h, beta)
    closed = correction_closed(spec, loss, np.array([theta]), 1).vector[0]
    brute = correction_bruteforce(spec, loss, np.array([theta]), 1).vector[0]
    hand = h * beta * beta * (1 + beta) * a * a * theta
    ok = abs(closed - hand) <= 1e-12 * abs(hand) and abs(closed - brute) <= 1e-12 * abs(hand)
    report("4 Nesterov n=1 value vs brute force", ok,
           f"hand={hand!r} closed={closed!r} brute={brute!r}")


def test_criterion_5_adaptive_sign_identity():
    g = np.random.default_rng(5)
    quad = make_quadratic(random_spd(6, g), g.standard_normal(6))
    worst = 0.0
    for beta in (0.5, 0.9, 0.99):
        for _ in range(50):
            theta = g.standard_normal(6)
            worst = max(worst, correction_signum_adam_identity_check(
                beta, quad, theta, eps=1e-6, lam=0.1))
    report("5 equal-momentum identity", worst <= 1e-12, f"max relative gap {worst:.2e}")


def test_criterion_6_modified_equation():
    t0 = time.perf_counter()
    g = np.random.default_rng(6)
    quad = make_quadratic(random_spd(5, g), g.standard_normal(5))
    beta = 0.9
    ode = build_modified_ode(OptimizerSpec.heavy_ball(1e-2, beta), quad)
    worst = 0.0
    for _ in range(10):
        theta = g.standard_normal(5)
        expected = -(1 + beta) / (4 * (1 - beta) ** 3) * 2.0 * quad.hvp(theta, quad.grad(theta))
        worst = max(worst, float(np.max(np.abs(ode.field(theta)[1] - expected))))
    report("6 heavy-ball G2 closed form", worst <= 1e-10, f"max abs gap {worst:.2e}")

    grid = [1e-2 * 2.0 ** -j for j in range(5)]
    hb = compare_discrete_vs_ode(hb_quadratic_config(), grid)
    report("6 heavy-ball flow slope", 1.7 <= hb.slope <= 2.3 and hb.r2 >= 0.98,
           f"slope={hb.slope:.3f} r2={hb.r2:.4f}")
    adam_cfg = RunConfig(seed=7, dimension=10, horizon=1.0, loss_id="quadratic",
                         loss_params={"eig_min": 1e-3, "eig_max": 1e-1},
                         optimizer=OptimizerSpec.adamw(1e-2, 0.9, 0.95,
                                                       lam=0.1, eps=1e-3))
    ad = compare_discrete_vs_ode(adam_cfg, grid)
    report("6 adaptive flow slope", 1.7 <= ad.slope <= 2.3 and ad.r2 >= 0.98,
           f"slope={ad.slope:.3f} r2={ad.r2:.4f}")
    check_runtime(6, time.perf_counter() - t0, 30.0)


def test_criterion_7_minibatch_coefficients():
    t0 = time.perf_counter()
    fam = make_minibatch_quadratics(6, 4, 0.5, seed=17)
    theta = np.array([0.4, -0.8, 0.3, 1.1])
    beta, h = 0.5, 1e-3
    exact = expected_correction_exhaustive(fam, beta, theta, h)
    dec = expected_correction_decomposed(fam, beta, theta, h)
    gap = float(np.max(np.abs(exact - dec)))
    report("7 exhaustive vs decomposition", gap <= 1e-10, f"720 orderings, gap {gap:.2e}")

    cf = perm_coefficients(0.5)
    ok = abs(cf.c_eq - 4.0 / 3.0) <= 1e-12 and abs(cf.c_neq - 8.0 / 3.0) <= 1e-12
    report("7 asymptotic values at beta=0.5", ok, f"c_eq={cf.c_eq!r} c_neq={cf.c_neq!r}")
    ident = abs(cf.c_eq + cf.c_neq - 0.5 / (1 - 0.5) ** 3)
    report("7 coefficient-sum identity", ident <= 1e-12, f"gap {ident:.2e}")

    mean, stderr = expected_correction_mc(fam, beta, theta, h, 100000, seed=17)
    z = float(np.max(np.abs(mean - exact) / np.maximum(stderr, 1e-300)))
    report("7 Monte Carlo within 3 stderr", z <= 3.0, f"1e5 samples, max |z| = {z:.2f}")
    check_runtime(7, time.perf_counter() - t0, 60.0)


def test_criterion_8_trajectory_closeness():
    t0 = time.perf_counter()
    algos = [
        ("adaptive", OptimizerSpec.adamw(1e-4, 0.9, 0.95, lam=1e-3, eps=1e-6)),
        ("sign-momentum", OptimizerSpec.lion_k(1e-4, 0.9, 0.95, lam=1e-3,
                                               eps=1e-6, bias_correction=True)),
    ]
    for name, spec in algos:
        cfg = RunConfig(seed=11, dimension=20, horizon=0.5, loss_id="logistic",
                        loss_params={"points": 200}, optimizer=spec, theta0="gauss")
        data = trajectory_closeness(cfg, [1e-4, 3e-4])
        n_burn = n_burn_steps(spec)
        for h in (1e-4, 3e-4):
            frac = ordering_fraction(data[h], n_burn)
            report(f"8 {name} h={h}", frac >= 0.95,
                   f"second-order at least as close at {100 * frac:.1f}% of "
                   f"post-burn-in steps")
    check_runtime(8, time.perf_counter() - t0, 60.0)


def test_criterion_9_oracle_health():
    g = np.random.default_rng(9)
    fixtures = [
        ("quadratic", loss_from_config("quadratic", {"eig_min": 0.5, "eig_max": 2.0}, 5, 1), 5),
        ("logistic", loss_from_config("logistic", {"points": 60}, 5, 1), 5),
        ("quartic", loss_from_config("quartic", {}, 1, 1), 1),
        ("minibatch-mean", loss_from_config("minibatch-quadratic", {"count": 4}, 4, 1), 4),
    ]
    worst_fd = 0.0
    worst_sym = 0.0
    for _, loss, d in fixtures:
        theta = g.uniform(0.2, 1.5, size=d)
        worst_fd = max(worst_fd, fd_check_grad(loss, theta))
        worst_fd = max(worst_fd, fd_check_hvp(loss, theta, g.standard_normal(d)))
        H = np.column_stack([loss.hvp(theta, np.eye(d)[i]) for i in range(d)])
        worst_sym = max(worst_sym, float(np.max(np.abs(H - H.T))))
    report("9 finite-difference health", worst_fd <= 1e-5, f"max rel err {worst_fd:.2e}")
    report("9 Hessian symmetry", worst_sym <= 1e-10, f"max asymmetry {worst_sym:.2e}")


SWEEP_CFG = """
[run]
seed = 7
dimension = 10
horizon = 1.0

[loss]
id = quadratic
eig_min = 1e-3
eig_max = 1e-1

[optimizer]
kind = heavyball
h = 1e-2
beta1 = 0.9

[experiment]
h_grid = 1e-2,5e-3,2.5e-3,1.25e-3,6.25e-4,3.125e-4,1.5625e-4
order = both
"""

MINIBATCH_CFG = """
[run]
seed = 17
dimension = 4
horizon = 1.0

[loss]
id = minibatch-quadratic
count = 6
spread = 0.5

[optimizer]
kind = heavyball
h = 1e-3
beta1 = 0.5

[experiment]
samples = 100000
"""


CLOSENESS_CFG = """
[run]
seed = 11
dimension = 20
horizon = 0.2

[loss]
id = logistic
points = 200

[optimizer]
kind = adamw
h = 1e-4
beta1 = 0.9
beta2 = 0.95
lambda = 1e-3
eps = 1e-6

[experiment]
h_grid = 1e-4,3e-4
"""


def test_criterion_10_determinism(tmp_path):
    # closeness and defect step several trajectory kinds or runs as one stack
    for tag, cfg_text, command in (("sweep", SWEEP_CFG, "sweep"),
                                   ("minibatch", MINIBATCH_CFG, "minibatch-corr"),
                                   ("defect", SWEEP_CFG, "defect"),
                                   ("closeness", CLOSENESS_CFG, "closeness")):
        cfg = tmp_path / f"{tag}.cfg"
        cfg.write_text(cfg_text)
        outs = []
        for rep in ("a", "b"):
            out = tmp_path / f"{tag}_{rep}"
            rc = cli_main([command, "--config", str(cfg), "--out-dir", str(out),
                           "--jobs", "1"])
            assert rc == 0
            outs.append(out)
        csvs = sorted(p.name for p in outs[0].glob("*.csv"))
        assert csvs
        identical = all((outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
                        for name in csvs)
        report(f"10 determinism ({tag})", identical,
               f"{len(csvs)} CSV file(s) byte-identical across reruns")
