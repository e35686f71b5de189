"""GARCH(1,1) filter, likelihood, fit, simulation, and rolling forecasts.

Deterministic oracle values frozen from seeded runs on this engine:
  simulate(omega=0.05, alpha=0.10, beta=0.85), n = 1e5, seed 0:
      sample variance 0.9913 (long-run value 1.0), kurtosis 3.679
  same params, iid special case (1.7, 0, 0), seed 3:
      variance 1.6968, kurtosis 2.9907
  fit on n = 3000 simulated points:
      seed 0 -> (0.03581, 0.08650, 0.87700)
      seed 1 -> (0.05896, 0.11399, 0.82634)
  rolling window 350 on n = 600 sims, mean forecast / true variance:
      seed 3 -> 0.9877, seed 11 -> 0.9584 (250 forecasts, no fallbacks)
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import optimize, special
from scipy.linalg import lapack

import lave.garch as garch_mod
from lave.errors import GarchConvergenceError
from lave.garch import (
    GarchParams,
    garch_filter,
    garch_fit,
    garch_loglik,
    garch_simulate,
    rolling_forecast,
)
from lave.series import ReturnSeries
from lave.simulation import ChangePointSpec, generate_change_point_series

TRUE = GarchParams(omega=0.05, alpha=0.10, beta=0.85)


def _kurtosis(x) -> float:
    c = np.asarray(x, dtype=float)
    c = c - c.mean()
    m2 = float(np.mean(c**2))
    return float(np.mean(c**4)) / m2**2


@pytest.fixture(scope="module")
def fit_seed0():
    r = garch_simulate(TRUE, 3000, seed=0)
    return r, garch_fit(r)


@pytest.fixture(scope="module")
def rolling_seed3():
    r = garch_simulate(TRUE, 600, seed=3)
    return r, rolling_forecast(r, window=350)


class TestGarchParams:
    def test_persistence_and_long_run(self):
        assert TRUE.persistence == pytest.approx(0.95)
        assert TRUE.is_stationary
        assert TRUE.long_run_variance() == pytest.approx(1.0, rel=1e-12)

    def test_nonstationary_has_no_long_run_variance(self):
        p = GarchParams(omega=0.1, alpha=0.5, beta=0.5)
        assert not p.is_stationary
        with pytest.raises(ValueError):
            p.long_run_variance()

    def test_validation(self):
        with pytest.raises(ValueError):
            GarchParams(omega=0.0, alpha=0.1, beta=0.8)
        with pytest.raises(ValueError):
            GarchParams(omega=0.1, alpha=-0.1, beta=0.8)
        with pytest.raises(ValueError):
            GarchParams(omega=0.1, alpha=0.1, beta=-0.8)


class TestFilter:
    def test_fixed_point_stays_put(self):
        # R == 1 with these params makes the long-run value 1 a fixed point
        p = GarchParams(omega=0.1, alpha=0.1, beta=0.8)
        s2 = garch_filter(p, ReturnSeries(np.ones(200)), sigma0_sq=1.0)
        np.testing.assert_allclose(s2, 1.0, rtol=1e-12)

    def test_constant_variance_limit(self):
        p = GarchParams(omega=1.7, alpha=0.0, beta=0.0)
        r = ReturnSeries(np.array([0.3, -1.2, 0.7, 2.0]))
        s2 = garch_filter(p, r, sigma0_sq=0.5)
        np.testing.assert_allclose(s2, [0.5, 1.7, 1.7, 1.7], rtol=1e-12)

    def test_matches_direct_recursion(self):
        rng = np.random.default_rng(4)
        r = ReturnSeries(rng.standard_normal(300))
        p = GarchParams(omega=0.02, alpha=0.07, beta=0.9)
        s2 = garch_filter(p, r, sigma0_sq=1.3)
        expect = np.empty(300)
        expect[0] = 1.3
        for t in range(1, 300):
            expect[t] = p.omega + p.alpha * r.values[t - 1] ** 2 + p.beta * expect[t - 1]
        np.testing.assert_allclose(s2, expect, rtol=1e-12)

    def test_floor_and_start(self):
        rng = np.random.default_rng(9)
        r = ReturnSeries(rng.standard_normal(100) * 0.01)
        s2 = garch_filter(TRUE, r, sigma0_sq=2.0)
        assert s2[0] == 2.0
        assert np.all(s2[1:] >= TRUE.omega * (1 - 1e-12))

    def test_single_observation(self):
        s2 = garch_filter(TRUE, ReturnSeries(np.array([1.0])), sigma0_sq=0.7)
        np.testing.assert_array_equal(s2, [0.7])

    def test_start_validation(self):
        r = ReturnSeries(np.ones(10))
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                garch_filter(TRUE, r, sigma0_sq=bad)


class TestLoglik:
    def test_unit_variance_reduces_to_sum_of_squares(self):
        rng = np.random.default_rng(2)
        r = ReturnSeries(rng.standard_normal(500))
        p = GarchParams(omega=1.0, alpha=0.0, beta=0.0)
        expect = -0.5 * float(np.sum(r.values**2))
        assert garch_loglik(p, r, sigma0_sq=1.0) == pytest.approx(expect, rel=1e-12)

    def test_matches_elementwise_formula(self):
        rng = np.random.default_rng(6)
        r = ReturnSeries(rng.standard_normal(150))
        s2 = garch_filter(TRUE, r, sigma0_sq=1.0)
        expect = -0.5 * math.fsum(
            math.log(v) + x**2 / v for x, v in zip(r.values, s2)
        )
        assert garch_loglik(TRUE, r, sigma0_sq=1.0) == pytest.approx(expect, rel=1e-12)

    def test_true_params_beat_misspecified(self):
        # doubling omega halves fit quality on data from the true model
        doubled = GarchParams(omega=2 * TRUE.omega, alpha=TRUE.alpha, beta=TRUE.beta)
        for seed in (0, 1, 2):
            r = garch_simulate(TRUE, 3000, seed=seed)
            s0 = float(np.var(r.values))
            assert garch_loglik(TRUE, r, s0) > garch_loglik(doubled, r, s0)

    def test_overflowing_variance_path_raises(self):
        p = GarchParams(omega=1e308, alpha=0.0, beta=0.9)
        r = ReturnSeries(np.ones(5))
        with pytest.raises(ValueError):
            garch_loglik(p, r, sigma0_sq=1.0)


class TestFit:
    def test_recovers_true_parameters(self, fit_seed0):
        _, p0 = fit_seed0
        assert p0.omega == pytest.approx(0.03581, abs=1e-3)
        assert p0.alpha == pytest.approx(0.08650, abs=1e-3)
        assert p0.beta == pytest.approx(0.87700, abs=1e-3)
        p1 = garch_fit(garch_simulate(TRUE, 3000, seed=1))
        for fitted in (p0, p1):
            assert abs(fitted.omega - TRUE.omega) < 0.05
            assert abs(fitted.alpha - TRUE.alpha) < 0.05
            assert abs(fitted.beta - TRUE.beta) < 0.05
            assert fitted.is_stationary

    def test_refit_from_optimum_is_stable(self, fit_seed0):
        r, p0 = fit_seed0
        s0 = float(np.var(r.values))
        p_again = garch_fit(r, init=p0)
        drift = garch_loglik(p_again, r, s0) - garch_loglik(p0, r, s0)
        assert abs(drift) < 1e-6

    def test_resimulation_reproduces_moments(self, fit_seed0):
        _, p0 = fit_seed0
        resim = garch_simulate(p0, 100_000, seed=0)
        v = float(np.var(resim.values))
        assert v == pytest.approx(0.9712, abs=0.005)
        assert abs(v - p0.long_run_variance()) < 0.05
        assert _kurtosis(resim.values) > 3.2

    def test_iid_data_long_run_variance(self):
        rng = np.random.default_rng(5)
        r = ReturnSeries(1.3 * rng.standard_normal(2000))
        fitted = garch_fit(r)
        sample_var = float(np.var(r.values))
        assert sample_var == pytest.approx(1.6261, abs=1e-3)
        assert fitted.long_run_variance() == pytest.approx(sample_var, rel=0.10)

    def test_requires_enough_data(self):
        with pytest.raises(ValueError):
            garch_fit(garch_simulate(TRUE, 49, seed=0))

    def test_zero_variance_window_rejected(self):
        with pytest.raises(ValueError):
            garch_fit(ReturnSeries(np.zeros(100)))


class TestSimulate:
    def test_seed_determinism(self):
        a = garch_simulate(TRUE, 500, seed=12)
        b = garch_simulate(TRUE, 500, seed=12)
        assert np.array_equal(a.values, b.values)
        c = garch_simulate(TRUE, 500, seed=13)
        assert not np.array_equal(a.values, c.values)

    def test_long_run_moments(self):
        r = garch_simulate(TRUE, 100_000, seed=0)
        v = float(np.var(r.values))
        assert v == pytest.approx(0.9913, abs=0.005)
        assert abs(v - TRUE.long_run_variance()) < 0.05
        # volatility clustering fattens the tails relative to Gaussian
        assert _kurtosis(r.values) == pytest.approx(3.679, abs=0.02)

    def test_iid_special_case_is_gaussian(self):
        p = GarchParams(omega=1.7, alpha=0.0, beta=0.0)
        r = garch_simulate(p, 100_000, seed=3)
        assert float(np.var(r.values)) == pytest.approx(1.6968, abs=0.005)
        k = _kurtosis(r.values)
        assert k == pytest.approx(2.9907, abs=0.02)
        assert abs(k - 3.0) < 0.15

    def test_validation(self):
        with pytest.raises(ValueError):
            garch_simulate(TRUE, 0, seed=0)
        with pytest.raises(ValueError):
            garch_simulate(GarchParams(omega=0.1, alpha=0.5, beta=0.5), 10, seed=0)


class TestRollingForecast:
    def test_count_window_and_no_fallbacks(self, rolling_seed3):
        _, rf = rolling_seed3
        assert len(rf) == 250
        assert rf.window == 350
        assert rf.fallback_times == ()
        times = [t for t, _ in rf.forecasts]
        assert times == list(range(350, 600))
        assert all(fc > 0 for _, fc in rf.forecasts)

    def test_tracks_true_variance(self, rolling_seed3):
        r, rf = rolling_seed3
        true_s2 = garch_filter(TRUE, r, TRUE.long_run_variance())
        ratios = np.array([fc / true_s2[t] for t, fc in rf.forecasts])
        mean3 = float(ratios.mean())
        assert mean3 == pytest.approx(0.9877, abs=0.002)
        assert 0.9 < mean3 < 1.1

        r11 = garch_simulate(TRUE, 600, seed=11)
        rf11 = rolling_forecast(r11, window=350)
        true11 = garch_filter(TRUE, r11, TRUE.long_run_variance())
        mean11 = float(np.mean([fc / true11[t] for t, fc in rf11.forecasts]))
        assert mean11 == pytest.approx(0.9584, abs=0.002)
        assert 0.9 < mean11 < 1.1

    def test_forecast_never_reads_its_target(self, rolling_seed3):
        # the forecast for t+1 must be computable before observing it
        r, rf = rolling_seed3
        tampered = r.values.copy()
        tampered[-1] = 99.0
        rf2 = rolling_forecast(ReturnSeries(tampered), window=350)
        assert rf2.forecasts == rf.forecasts

    def test_validation(self):
        r = garch_simulate(TRUE, 100, seed=0)
        with pytest.raises(ValueError):
            rolling_forecast(r, window=40)
        with pytest.raises(ValueError):
            rolling_forecast(r, window=100)

    def test_fallback_uses_best_params_when_no_fit_ever_succeeds(self, monkeypatch):
        best = GarchParams(omega=0.2, alpha=0.05, beta=0.9)

        def always_fail(window, init):
            raise GarchConvergenceError("budget", best_params=best, best_loglik=-1.0)

        monkeypatch.setattr(garch_mod, "_fit", always_fail)
        rng = np.random.default_rng(1)
        values = rng.standard_normal(80)
        rf = rolling_forecast(ReturnSeries(values), window=50)
        assert rf.fallback_times == tuple(range(50, 80))
        assert len(rf) == 30
        # every forecast comes from the carried best parameters
        t, fc = rf.forecasts[0]
        chunk = ReturnSeries(values[t - 50 : t])
        s2 = garch_filter(best, chunk, float(np.var(chunk.values)))[-1]
        expect = best.omega + best.alpha * values[t - 1] ** 2 + best.beta * s2
        assert fc == pytest.approx(expect, rel=1e-12)

    def test_fallback_reuses_previous_fit(self, monkeypatch):
        real_fit = garch_mod._fit
        returned = []
        calls = {"n": 0}

        def flaky(window, init):
            calls["n"] += 1
            if calls["n"] == 3:
                raise GarchConvergenceError(
                    "budget", best_params=GarchParams(9.9, 0.0, 0.0), best_loglik=0.0
                )
            p, path = real_fit(window, init)
            returned.append(p)
            return p, path

        monkeypatch.setattr(garch_mod, "_fit", flaky)
        rng = np.random.default_rng(14)
        values = rng.standard_normal(60)
        rf = rolling_forecast(ReturnSeries(values), window=50)
        assert rf.fallback_times == (52,)
        assert len(rf) == 10
        # at the failed time the previous window's parameters carry over
        prev = returned[1]
        chunk = ReturnSeries(values[2:52])
        s2 = garch_filter(prev, chunk, float(np.var(chunk.values)))[-1]
        expect = prev.omega + prev.alpha * values[51] ** 2 + prev.beta * s2
        assert rf.forecasts[2] == (52, pytest.approx(expect, rel=1e-12))


def _benchmark_returns(seed: int, n: int = 600) -> np.ndarray:
    # the recipe of the benchmark's backtest-600 input: seeded GARCH(1,1)
    # percent returns started at the long-run variance, 200-step burn-in
    rng = np.random.default_rng([seed, 2])
    alpha = rng.uniform(0.05, 0.12)
    beta = rng.uniform(0.80, 0.90)
    omega = rng.uniform(0.02, 0.08)
    burn = 200
    xi = rng.standard_normal(n + burn)
    r = np.empty(n + burn)
    s2 = omega / (1.0 - alpha - beta)
    for t in range(n + burn):
        r[t] = np.sqrt(s2) * xi[t]
        s2 = omega + alpha * r[t] ** 2 + beta * s2
    return r[burn:]


# every forecast rolling_forecast makes on _benchmark_returns(7), window 350,
# frozen from the warm refits with the variance recursions run as blocked scans,
# whose block ends carry by their own scan
_BENCHMARK_7_FORECASTS = (
    0.9755618830348343, 0.9759399101837392, 0.9945504763078513, 0.9704482195587831,
    0.9539691336986886, 0.9343834998864557, 0.9848563286169165, 0.9630179782338969,
    0.9598865137055465, 0.9437926288258353, 0.9177077550886864, 0.8917677333798848,
    0.8675258645926055, 0.8775268921046165, 0.8912714950829188, 0.867311744053778,
    0.8385139319924565, 0.8132290201699035, 0.793584716009509, 0.8181836422596589,
    0.8041866990625133, 0.8325283479558162, 0.8072058713251677, 0.783066870054085,
    0.7606041874899865, 0.7481047480965696, 0.7299939091343088, 0.7044407541408616,
    0.6800593805710495, 0.6528370622668346, 0.6237355470901592, 0.5858621279922721,
    0.550485546927515, 0.5681402628872674, 0.5343364275762702, 0.5341257876543081,
    0.5141823176988094, 0.5368859082924844, 0.49825318317134304, 0.468472235903759,
    0.4797933049448042, 0.44207502056996856, 0.5094338073496408, 0.5701397529022749,
    0.5340242371069339, 0.5408494108499023, 0.5026112493133363, 0.5981548669355016,
    0.5673654236995519, 0.546261452484931, 0.5323611889595679, 0.5045895794973771,
    0.5062752940851082, 0.5553773539860113, 0.5152810359372304, 0.5812939616027584,
    0.5419550518828299, 0.5924838409241, 0.6165924406595501, 0.5823906638589229,
    0.543774184705743, 0.5163656186165777, 0.5128718443931275, 0.4780414734938301,
    0.520870588522836, 0.48685075415564993, 0.5569434821619157, 0.5413089011161435,
    0.5222703223089957, 0.48585268699002404, 0.4915292544916031, 0.8145546301970961,
    0.8099776510350701, 0.8220620177969861, 0.8154926455988554, 0.9451982460802468,
    0.9917101609422885, 1.0396257774364774, 1.316207230524622, 1.214440941394943,
    1.1625447526801618, 1.0855541985451402, 1.1487031675597363, 1.0966667808921036,
    1.2376385970307369, 1.1567860346033996, 1.0904871181041587, 1.0617442758312234,
    0.9997140029042617, 0.9682551214705034, 0.9233197911886558, 0.9257057698032038,
    0.9720724118862369, 0.9331832261054829, 0.8874048426525, 0.9015361097525189,
    0.8983814297959793, 0.8885746960589398, 1.0068327877132979, 0.950192601857093,
    0.9095226968288964, 0.9013001297840396, 0.8571115128312145, 0.81082378877833,
    0.7698350673886751, 0.7507462913198191, 0.9571452316828777, 0.9158614144826541,
    0.8718246096682772, 0.8388056189874733, 0.7976688830499046, 0.8151601746478041,
    0.7780565487903394, 0.7709553856511054, 0.7376293887633204, 0.729519017983294,
    0.7351108839083771, 0.7093543795465593, 0.7209779458959864, 0.7188320745498472,
    0.703630592544668, 0.668120003225572, 0.6478211240917457, 0.6446675291334047,
    0.6736341033862382, 0.6898029547105956, 0.7915690528728926, 0.7988351243742338,
    0.8957910804565137, 0.8547928018964321, 0.82596353477822, 0.8426125029658139,
    0.7961056869259255, 0.9853428002138147, 0.9358770989455361, 0.8783379082997688,
    0.8520666777111622, 0.8056802191740303, 0.7622818363581327, 0.7428645625897632,
    0.8259740675234597, 0.9028907402934941, 0.85881435236924, 0.8707922893406332,
    0.8330098061737012, 0.7962756540862488, 0.77159850432025, 0.799097348960145,
    0.7945683788572009, 0.8738605590034008, 0.8265882958684576, 0.9522484047376196,
    0.999340671400793, 0.9794292666164579, 0.9659037767421406, 0.9185396975180972,
    1.0410042760499327, 1.3560588366789412, 1.2665485141631416, 1.4250271929381566,
    1.3156015584951244, 1.4790356936727171, 1.4123372805644554, 1.300444176782691,
    1.2099450468095565, 1.121635656174332, 1.071968279462524, 1.102972125368111,
    1.1673711628961125, 1.0881157520519409, 1.025535349857278, 0.9674989274835494,
    0.911165173281102, 0.8487915078082776, 0.8797351656463929, 0.8696714568951508,
    0.8151490082293006, 0.7778519404853903, 0.8743690915168887, 0.8495095811714451,
    0.7969416157239478, 0.7834794799881921, 0.7781114639829108, 0.7271995858885225,
    0.6765044738286482, 0.6644285425201202, 0.7645527763282007, 0.7189235692471706,
    0.7560400286209349, 0.7869084091175631, 0.8449146721142928, 0.8457861804863939,
    0.9424781711674558, 1.0022015850945447, 0.9250611688661732, 0.8924520035349753,
    0.8631902618800483, 0.8003165531609656, 0.7439806342095325, 0.7462284634527108,
    0.7112118877487457, 0.7233436689560305, 0.7180370243975222, 0.7056565218989921,
    0.6591706951422898, 0.7388231260184094, 0.6862732150038447, 0.6400247643836651,
    0.6243881325900135, 0.6049076231835042, 0.9435360186746372, 0.8746981845848852,
    0.87635610317921, 0.8361872562628905, 0.8073007115439452, 0.754281011045263,
    0.7379485774973427, 0.8427626301244119, 0.9099058285723529, 0.8483389247655927,
    0.7913372009843392, 0.7503990754646276, 0.761697261442906, 0.7322588969714179,
    0.7912911549183834, 0.7520020763532141, 1.1092474312606877, 1.0684259885606138,
    1.0432273945631292, 1.0010163913135655, 0.9548920330840428, 0.9207496219762556,
    0.8611010202919136, 0.8267031951389829, 0.7932198842158756, 0.7456773166802906,
    0.701238410045372, 0.7151710058847955, 0.6887697570254395, 0.6647076701240145,
    0.7298399300930536, 0.7347634131688351, 0.6912298595927573, 0.6992318347594663,
    0.6989577113794863, 0.6707806983590239, 0.6293191803391497, 0.5956579758183669,
    0.5626714173271263, 0.6051146898814885,
)

# the same on _benchmark_returns(0), whose first window's cold fit crawls
# toward persistence 0 (1297 simplex evaluations, alpha 1.5e-29)
_BENCHMARK_0_FORECASTS = (
    0.5761415935915769, 0.5769254712383775, 0.575598998307443, 0.5756709716601963,
    0.5767592931806607, 0.5766899484126853, 0.5778524725392192, 0.577802381033077,
    0.575475928616497, 0.5740776134405992, 0.5760970004699664, 0.5706645371678138,
    0.5701454954644037, 0.5701397512645419, 0.5699778855737755, 0.5698431016833531,
    0.5717277166103051, 0.5715870588692574, 0.5749629899333145, 0.5744180747467175,
    0.5756240038883226, 0.5704715892674831, 0.5655643159171725, 0.5657179527818146,
    0.5651734329798859, 0.5660384402905652, 0.5624293887008993, 0.5609448622951939,
    0.5617507723179926, 0.5634735240978149, 0.5692410111015878, 0.5621392097481392,
    0.5655560282921297, 0.5598146260191783, 0.5625199814982689, 0.5501841090221194,
    0.5505250272479043, 0.5503480059711195, 0.5494101828097777, 0.5444911326639383,
    0.547809126435297, 0.5489703656588911, 0.5466808575169756, 0.5469155805475299,
    0.5439562553643157, 0.543839980014493, 0.5475172918927983, 0.5481864395632207,
    0.5485581940391732, 0.5456367062984282, 0.5478979016588948, 0.5477646740203612,
    0.5476858729467694, 0.5476840638574042, 0.5485162828604604, 0.5497909999931213,
    0.5453269546053789, 0.5507476609714135, 0.5509499208072087, 0.5498108057918603,
    0.5527486773692353, 0.5518927176042095, 0.5560826476771921, 0.5543867707538077,
    0.5576861737769738, 0.5560235760403731, 0.5627531614310193, 0.5659933040012199,
    0.5673528332540165, 0.5698423521471364, 0.5720996765764039, 0.5731981869519703,
    0.5729091181204752, 0.5751671046120762, 0.5761946567283582, 0.571702755876538,
    0.5710440739492079, 0.5575647905698986, 0.5643792294820145, 0.563393805053062,
    0.5659349275729486, 0.5658343005084123, 0.5629129857556057, 0.563980921681943,
    0.5630222065685313, 0.5606068674344028, 0.5606376435227828, 0.5616458306943446,
    0.561332885259949, 0.5605910085311818, 0.5574892643578485, 0.5558649493516155,
    0.5616363754233137, 0.5611113638687989, 0.5608749763567196, 0.5604768785911918,
    0.5612328089453475, 0.5610543675457836, 0.5563472871861918, 0.5525524125377933,
    0.5522965920172437, 0.5516644010015271, 0.5520687955084422, 0.5514759644708349,
    0.547798405309296, 0.5493320926083511, 0.5499060565676117, 0.5453423679331172,
    0.5441180699305618, 0.5417255039285956, 0.541622259498409, 0.5416838643300055,
    0.5421728835648804, 0.5398253690072387, 0.5376909829110671, 0.5397358964912798,
    0.5405461520222538, 0.538915684825956, 0.538961421316628, 0.539440053593506,
    0.5535082206502083, 0.5531752822120313, 0.5546966612095638, 0.5549815102749487,
    0.5548998541646207, 0.5566202649937356, 0.5603762864342153, 0.5617099128819586,
    0.5617071280532755, 0.5620750634879239, 0.5612380401071626, 0.5608618936602299,
    0.5601383052086969, 0.5603007371474181, 0.5597033724686156, 0.5585077430877298,
    0.5585408506651188, 0.5579941406546982, 0.5595116624115676, 0.5577659502495957,
    0.5626520234874441, 0.5668414003073895, 0.5662417246003416, 0.566189658639982,
    0.5666952055076787, 0.5755557248580238, 0.5756305669734412, 0.5745806799542529,
    0.5743720537197119, 0.5772059704484455, 0.5859734494796638, 0.572523476174655,
    0.5722717687420303, 0.5721131125280513, 0.5728630134682456, 0.5769314327370699,
    0.5771345690973979, 0.5772476273717486, 0.577640721848345, 0.5790970817649977,
    0.5765340460853292, 0.5768343395646586, 0.5769505130137391, 0.5690981957981756,
    0.568657366130902, 0.5752452192999813, 0.5752286919977457, 0.5937156417999769,
    0.58982590839459, 0.5941623362413201, 0.5860948386110753, 0.5844619978174245,
    0.5819168227819206, 0.5789867845276867, 0.5789844087179822, 0.5757812758184335,
    0.5784650186340778, 0.5768655656171576, 0.5797246837260677, 0.5767669240609622,
    0.5750472378378227, 0.5780899306214391, 0.5752630145241032, 0.5750721624420378,
    0.581248679954286, 0.5802901886166848, 0.578774601798798, 0.5774500270184286,
    0.5774007656802849, 0.5710069099458565, 0.5708183239286582, 0.5700945397667722,
    0.5613795484279951, 0.5584943849326064, 0.5614242472287657, 0.5620829939788483,
    0.5673114555756948, 0.5710086432027456, 0.5721797875411103, 0.5726297751415141,
    0.5717636534988239, 0.5718186832358882, 0.570006819603012, 0.5644274750483794,
    0.5635374764191803, 0.564353192494307, 0.5632948269760277, 0.562514659314987,
    0.5548117509469408, 0.5540569306288138, 0.5558745845749924, 0.5558416503294195,
    0.5549711295161789, 0.5567659621358211, 0.5531706345233665, 0.5524234558156231,
    0.550352336956571, 0.5457990674047106, 0.5526349589398519, 0.5541088597132875,
    0.5573397690417327, 0.5573629109937533, 0.5570283399611825, 0.5510816745124113,
    0.5535186194615497, 0.5540382888185786, 0.5545790009916005, 0.5554440782177515,
    0.5596861602343444, 0.5639698912642962, 0.5635187780846129, 0.5643550762036795,
    0.5710008666195483, 0.5675569295655576, 0.568428765096872, 0.5676913275604121,
    0.5684861092870415, 0.5712170940720673, 0.5705962081533577, 0.5708030840232596,
    0.5679767482595167, 0.5680623481891337, 0.5630407298359257, 0.5607709768705496,
    0.5624224117628369, 0.5606689676409953, 0.5598725787321902, 0.5606187673222892,
    0.5589263383235616, 0.5588956016572263,
)


def _direct_path(params, values, sigma0_sq):
    # sigma2_t = omega + alpha R_{t-1}^2 + beta sigma2_{t-1} in Python floats
    path = [float(sigma0_sq)]
    for r in values[:-1].tolist():
        path.append(params.omega + params.alpha * (r * r) + params.beta * path[-1])
    return np.array(path)


def _exact_recursion(beta, rows):
    # y_0 = x_0, y_t = x_t + beta y_{t-1} along each row, in exact rationals
    b = Fraction(beta)
    exact = []
    for row in rows:
        y = [Fraction(row[0])]
        for value in row[1:]:
            y.append(Fraction(value) + b * y[-1])
        exact.append(y)
    return exact


def _assert_near_exact(got, exact):
    # relative error at most 16 sqrt(n) eps in every value, n the row length
    n = len(exact[0])
    tol = Fraction(16 * math.sqrt(n) * np.finfo(float).eps)
    rows = np.reshape(got, (-1, n)).tolist()
    assert len(rows) == len(exact)
    for got_row, exact_row in zip(rows, exact):
        for value, truth in zip(got_row, exact_row):
            assert abs(Fraction(value) - truth) <= tol * truth


def _direct_recursion(beta, x):
    # y_0 = x_0, y_t = x_t + beta y_{t-1} along the last axis, in Python floats
    rows = np.reshape(x, (-1, np.shape(x)[-1])).tolist()
    for row in rows:
        for t in range(1, len(row)):
            row[t] = row[t] + beta * row[t - 1]
    return np.array(rows).reshape(np.shape(x))


class TestBidiagonalSolve:
    """The recursions y_t - beta y_{t-1} = x_t, a lower bidiagonal system,
    are solved by blocked scans (garch._beta_recursion)."""

    @pytest.mark.parametrize("n", [2, 3, 26, 349, 350, 353, 626, 650])
    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.9, 1 - 1e-6, 1.0])
    def test_is_within_16_sqrt_n_eps_of_the_exact_solution(self, beta, n):
        # 26 is the first length of two blocks, the first with a carry; 350
        # is 14 blocks of 25; 349 and 353 are padded to whole blocks; 626 and
        # 650 are the first and last lengths of 26 blocks, whose 25 ends are
        # the most that the ends' scan solves as one block
        rng = np.random.default_rng([n, int(beta * 1e6)])
        # a variance path from its start value, through garch_filter on n
        # observations, against the exact solution of its drive
        r = ReturnSeries(rng.standard_normal(n) * rng.lognormal(0.0, 2.0, n))
        p = GarchParams(omega=0.05, alpha=0.1, beta=beta)
        drive = [1.7, *(p.omega + p.alpha * r.values[:-1] ** 2).tolist()]
        _assert_near_exact(garch_filter(p, r, 1.7), _exact_recursion(beta, [drive]))
        # three nonnegative drive rows, shaped like the derivative recursions'
        drives = np.stack((np.ones(n), rng.lognormal(0.0, 2.0, n), rng.lognormal(0.0, 3.0, n)))
        before = drives.copy()
        exact = _exact_recursion(beta, drives.tolist())
        got = garch_mod._beta_recursion(beta, drives)
        assert got.shape == drives.shape
        _assert_near_exact(got, exact)
        np.testing.assert_array_equal(drives, before)
        one = garch_mod._beta_recursion(beta, drives[1])
        assert one.shape == (n,)
        _assert_near_exact(one, exact[1:2])

    # where the scan rounds no more than the recursion: at beta = 0 its block
    # solver is the identity, and at n = 2 each value is one multiply-add
    @pytest.mark.parametrize(
        "beta, n", [(0.0, 2), (0.0, 3), (0.0, 350), (0.5, 2), (0.9, 2), (1 - 1e-6, 2), (1.0, 2)]
    )
    def test_equals_the_direct_recursion_bit_for_bit(self, beta, n):
        rng = np.random.default_rng([n, int(beta * 1e6)])
        # a variance path from its start value, through garch_filter on n
        # observations
        r = ReturnSeries(rng.standard_normal(n) * rng.lognormal(0.0, 2.0, n))
        p = GarchParams(omega=0.05, alpha=0.1, beta=beta)
        np.testing.assert_array_equal(garch_filter(p, r, 1.7), _direct_path(p, r.values, 1.7))
        # three drive rows, shaped like the derivative recursions'
        drives = np.stack((np.ones(n), rng.lognormal(0.0, 2.0, n), rng.lognormal(0.0, 3.0, n)))
        before = drives.copy()
        got = garch_mod._beta_recursion(beta, drives)
        assert got.shape == drives.shape
        np.testing.assert_array_equal(got, _direct_recursion(beta, drives))
        np.testing.assert_array_equal(drives, before)
        np.testing.assert_array_equal(
            garch_mod._beta_recursion(beta, drives[1]), _direct_recursion(beta, drives[1])
        )

    @pytest.mark.parametrize("n", [651, 1301])
    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.75, 1 - 2.0**-10, 1.0])
    def test_past_26_blocks_the_ends_get_a_scan_of_their_own(self, beta, n):
        # every scan of more than one block carries its block ends by their
        # own scan; past 26 blocks that scan has more than one block, so it
        # carries its ends by a scan of its own too. 651 is 27 blocks of 25,
        # whose ends make 2 blocks; 1301 is 53, whose ends make 3. Betas with
        # short binary expansions keep the exact reference quick at these
        # lengths
        _, m, _, (ends, _) = garch_mod._scan_plan(beta, n)
        assert m - 1 > 25 and ends[3] is not None and ends[3][0][3] is None
        x = np.random.default_rng([n, 7]).lognormal(0.0, 2.0, (2, n))
        _assert_near_exact(garch_mod._beta_recursion(beta, x), _exact_recursion(beta, x.tolist()))

    def test_single_value_is_its_own_solution(self):
        # a single value is not scanned: the Python-float recursion returns it
        for x in (np.array([2.5]), np.array([[2.5], [0.5], [1.0]])):
            np.testing.assert_array_equal(garch_mod._beta_recursion(0.9, x), x)

    def test_overflow_keeps_the_finite_prefix(self):
        # past the scan's bound the recursion runs in Python floats, where an
        # overflow stays in the tail; a block's matmul would multiply the inf
        # by the zeros of its solver and turn the values before it into nan
        p = GarchParams(omega=1e308, alpha=0.0, beta=0.9)
        s2 = garch_filter(p, ReturnSeries(np.ones(5)), sigma0_sq=1.0)
        assert s2[:2].tolist() == [1.0, 1e308 + 0.9]
        assert np.all(np.isposinf(s2[2:]))

    def test_explosive_beta_never_yields_a_finite_loglik(self):
        # for beta > 1 the recursion runs in Python floats, not as a scan, and
        # overflows. A general tridiagonal solve, LAPACK's dgtsv, would instead
        # swap rows, underflow its pivots (info > 0) and answer a finite path
        r = ReturnSeries(np.random.default_rng(0).standard_normal(350))
        p = GarchParams(omega=0.05, alpha=0.1, beta=10.0)
        drive = np.concatenate(([1.0], p.omega + p.alpha * r.values[:-1] ** 2))
        _, _, _, wrong, info = lapack.dgtsv(np.full(349, -10.0), np.ones(350), np.zeros(349), drive)
        assert info > 0 and np.all(np.isfinite(wrong))
        assert np.isposinf(garch_filter(p, r, sigma0_sq=1.0)[-1])
        with pytest.raises(ValueError):
            garch_loglik(p, r, sigma0_sq=1.0)

    def test_explosive_beta_without_overflow_matches_direct_recursion(self):
        r = ReturnSeries(np.random.default_rng(1).standard_normal(60))
        p = GarchParams(omega=0.05, alpha=0.1, beta=1.5)
        s2 = garch_filter(p, r, sigma0_sq=1.0)
        np.testing.assert_allclose(s2, _direct_path(p, r.values, 1.0), rtol=1e-12)
        assert np.isfinite(garch_loglik(p, r, sigma0_sq=1.0))


class TestScipyPorts:
    """_pack's logit and _unpack's expit are scipy.special's logit and expit
    in Python floats, bit for bit, so the GARCH code imports no scipy."""

    def test_logit_equals_scipy(self):
        rng = np.random.default_rng(12)
        near_ends = 10.0 ** rng.uniform(-12.0, np.log10(0.3), 10_000)
        spreads = (
            rng.uniform(0.3, 0.65, 20_000),  # the log1p form
            np.concatenate((near_ends, 1.0 - near_ends, rng.uniform(0.65, 1.0, 10_000))),
            np.array([1e-12, 1.0 - 1e-12, 0.3, 0.65, 0.5]),  # _pack's clip ends
        )
        for p in spreads:
            got = np.array([garch_mod._logit(x) for x in p.tolist()])
            assert got.tobytes() == special.logit(p).tobytes()

    def test_expit_equals_scipy(self):
        # _unpack clips its arguments to [-40, 40]
        z = np.random.default_rng(13).uniform(-40.0, 40.0, 20_000)
        z = np.concatenate((z, [-40.0, 0.0, 40.0]))
        got = np.array([garch_mod._expit(x) for x in z.tolist()])
        assert got.tobytes() == special.expit(z).tobytes()


SCORE_POINTS = [
    TRUE,
    GarchParams(omega=0.01, alpha=0.1, beta=0.9 - 2e-6),  # persistence 1 - 2e-6
    GarchParams(omega=0.3, alpha=1e-9, beta=0.6),  # alpha near 0
    GarchParams(omega=1.0, alpha=0.3, beta=0.2),
]


class TestAnalyticDerivatives:
    @pytest.mark.parametrize("params", SCORE_POINTS)
    def test_gradient_matches_central_differences(self, params):
        r = garch_simulate(TRUE, 350, seed=3)
        s0 = float(np.var(r.values))
        z = garch_mod._pack(params)
        value, grad, _, _ = garch_mod._loglik_grad_hess(z, garch_mod._Window(r.values))
        assert value == -garch_loglik(garch_mod._unpack(z), r, s0)

        def objective(x):
            return -garch_loglik(garch_mod._unpack(x), r, s0)

        h = 1e-6
        fd = np.array([(objective(z + h * e) - objective(z - h * e)) / (2 * h) for e in np.eye(3)])
        scale = float(np.max(np.abs(fd)))
        np.testing.assert_allclose(grad, fd, rtol=0, atol=1e-5 * scale)

    @pytest.mark.parametrize("params", SCORE_POINTS)
    def test_hessian_matches_central_differences_of_the_gradient(self, params):
        r = garch_simulate(TRUE, 350, seed=3)
        z = garch_mod._pack(params)
        window = garch_mod._Window(r.values)
        _, _, hess, _ = garch_mod._loglik_grad_hess(z, window)

        def gradient(x):
            return garch_mod._loglik_grad_hess(x, window)[1]

        h = 1e-6
        fd = np.array([(gradient(z + h * e) - gradient(z - h * e)) / (2 * h) for e in np.eye(3)])
        scale = float(np.max(np.abs(fd)))
        np.testing.assert_allclose(hess, fd, rtol=0, atol=1e-5 * scale)
        np.testing.assert_allclose(hess, hess.T, rtol=1e-12)

    def test_zero_where_the_box_clips(self):
        r = garch_simulate(TRUE, 350, seed=3)
        z = np.array([np.log(0.05), 45.0, -41.0])
        _, grad, hess, _ = garch_mod._loglik_grad_hess(z, garch_mod._Window(r.values))
        assert grad[0] != 0.0 and hess[0, 0] != 0.0
        assert grad[1] == 0.0 and grad[2] == 0.0
        assert not hess[1:].any() and not hess[:, 1:].any()


class TestWarmFits:
    def test_cold_fit_and_rolling_forecast_on_the_benchmark_input(self):
        # frozen from the Nelder-Mead engine that refitted every window before
        # warm refits, with the variance recursion run as a blocked scan. The
        # values frozen from exact recursions, before the scan, agree within
        # the benchmark's GARCH tolerance of 1e-6 relative; the exact tuple is
        # the current fit's, whose scans carry the block ends by their own scan
        values = _benchmark_returns(7)
        cold = garch_fit(ReturnSeries(values[:350]))
        fitted = (cold.omega, cold.alpha, cold.beta)
        assert fitted == pytest.approx(
            (0.0666791310119367, 0.023093161771008293, 0.9144633414457719), rel=1e-6
        )
        assert fitted == (0.06667913010750641, 0.023093162176718602, 0.9144633419235664)
        rf = rolling_forecast(ReturnSeries(values), window=350)
        assert rf.fallback_times == ()
        t, last = rf.forecasts[-1]
        assert t == 599
        assert last == pytest.approx(0.6051146777082796, rel=1e-6)

    def test_every_forecast_on_the_benchmark_input_is_frozen_bit_for_bit(self):
        rf = rolling_forecast(ReturnSeries(_benchmark_returns(7)), window=350)
        assert [t for t, _ in rf.forecasts] == list(range(350, 600))
        assert tuple(fc for _, fc in rf.forecasts) == _BENCHMARK_7_FORECASTS

    @pytest.mark.parametrize("n", [350, 700])
    def test_the_window_path_is_garch_filter_bit_for_bit(self, n):
        # a converged refit forecasts from its window's path, one that falls
        # back from garch_filter's; at 700 the block ends' scan carries too
        values = _benchmark_returns(7, n=max(n, 600))[:n]
        fit = garch_fit(ReturnSeries(values))
        path, _ = garch_mod._Window(values).path_and_cost(fit.omega, fit.alpha, fit.beta)
        filtered = garch_filter(
            GarchParams(fit.omega, fit.alpha, fit.beta), ReturnSeries(values), float(np.var(values))
        )
        assert path.tobytes() == filtered.tobytes()

    def test_where_the_simplex_crawls_every_forecast_is_frozen_bit_for_bit(self):
        values = _benchmark_returns(0)
        cold = garch_fit(ReturnSeries(values[:350]))
        assert (cold.omega, cold.alpha, cold.beta) == (
            0.5761415935895952, 1.4613303992709976e-29, 3.4397564596945275e-12
        )
        rf = rolling_forecast(ReturnSeries(values), window=350)
        assert rf.fallback_times == ()
        assert [t for t, _ in rf.forecasts] == list(range(350, 600))
        assert tuple(fc for _, fc in rf.forecasts) == _BENCHMARK_0_FORECASTS

    def test_a_stalled_refit_forecasts_from_the_point_it_returns(self, monkeypatch):
        # once an evaluation's gradient is below _STALL_GTOL but not _GTOL,
        # every later trial of the refit is walled off: its value is raised
        # by 1, so the line search finds no decrease and the refit stops by
        # the stall rule at its last accepted point. The walled trials keep
        # their own variance paths, so a forecast taken from the last point
        # evaluated instead of the point returned would differ
        real_eval, real_fit = garch_mod._loglik_grad_hess, garch_mod._fit
        walled, stalled, returned = [], [], []

        def wall(z, window):
            value, grad, hess, path = real_eval(z, window)
            if walled[-1]:
                return value + 1.0, grad, hess, path
            walled[-1] = garch_mod._GTOL <= np.max(np.abs(grad)) < garch_mod._STALL_GTOL
            return value, grad, hess, path

        def fit(window, init):
            walled.append(False)
            params, path = real_fit(window, init)
            stalled.append(walled[-1])
            returned.append(params)
            return params, path

        monkeypatch.setattr(garch_mod, "_loglik_grad_hess", wall)
        monkeypatch.setattr(garch_mod, "_fit", fit)
        values = np.random.default_rng(5).standard_normal(160)
        rf = rolling_forecast(ReturnSeries(values), window=100)
        assert rf.fallback_times == ()
        assert sum(stalled) >= 30
        for (t, fc), p in zip(rf.forecasts, returned):
            chunk = ReturnSeries(values[t - 100 : t])
            s2 = garch_filter(p, chunk, float(np.var(chunk.values)))[-1]
            assert fc == p.omega + p.alpha * values[t - 1] ** 2 + p.beta * s2

    def test_no_state_carries_from_one_call_to_the_next(self):
        a = ReturnSeries(np.random.default_rng(21).standard_normal(160))
        b = ReturnSeries(2.0 * np.random.default_rng(22).standard_normal(200))
        first = rolling_forecast(a, window=100)
        other = rolling_forecast(b, window=100)
        again = rolling_forecast(a, window=100)
        assert len(other) == 100 and other.forecasts[:60] != first.forecasts
        assert np.array(again.forecasts).tobytes() == np.array(first.forecasts).tobytes()

    def test_only_the_converged_point_of_a_warm_refit_goes_without_a_hessian(
        self, monkeypatch
    ):
        # the Hessian is formed only where a Newton step may use it: every
        # refit ends at one evaluation whose gradient meets _GTOL
        real = garch_mod._loglik_grad_hess
        skipped = []

        def recording(z, window):
            value, grad, hess, path = real(z, window)
            skipped[-1].append(hess is None)
            if hess is None:
                assert np.max(np.abs(grad)) < garch_mod._GTOL
            return value, grad, hess, path

        real_fit = garch_mod._fit

        def fit(window, init):
            skipped.append([])
            return real_fit(window, init)

        monkeypatch.setattr(garch_mod, "_loglik_grad_hess", recording)
        monkeypatch.setattr(garch_mod, "_fit", fit)
        rolling_forecast(ReturnSeries(_benchmark_returns(7)), window=350)
        warm = skipped[1:]
        assert len(warm) == 249 and skipped[0] == []
        assert all(refit[-1] and not any(refit[:-1]) for refit in warm)

    def test_every_warm_refit_takes_a_few_newton_steps(self, monkeypatch):
        # the cost of a refit hardly depends on the data: measured 3 to 10
        # evaluations, 4.13 on average, over the 249 warm refits here
        real = garch_mod._loglik_grad_hess
        calls = []

        def counting(z, window):
            calls[-1] += 1
            return real(z, window)

        real_fit = garch_mod._fit

        def fit(window, init):
            calls.append(0)
            return real_fit(window, init)

        monkeypatch.setattr(garch_mod, "_loglik_grad_hess", counting)
        monkeypatch.setattr(garch_mod, "_fit", fit)
        rolling_forecast(ReturnSeries(_benchmark_returns(7)), window=350)
        warm = calls[1:]
        assert len(warm) == 249 and calls[0] == 0
        assert max(warm) <= 12
        assert sum(warm) / len(warm) <= 4.5

    def test_non_finite_start_raises(self, monkeypatch):
        r = garch_simulate(TRUE, 350, seed=3)
        monkeypatch.setattr(
            garch_mod,
            "_loglik_grad_hess",
            lambda z, window: (np.inf, np.zeros(3), np.zeros((3, 3)), None),
        )
        with pytest.raises(GarchConvergenceError) as info:
            garch_fit(r, init=TRUE)
        assert isinstance(info.value.best_params, GarchParams)

    @pytest.mark.parametrize("radius", [0.0, 1.0, 2.0, 3.0])
    def test_non_finite_retreat_converges_or_raises(self, monkeypatch, radius):
        # every trial point farther than radius from the start meets the
        # non-finite retreat; radius 0 leaves the search no move at all, and
        # the unwalled optimum lies 1.59 from the start
        r = garch_simulate(TRUE, 350, seed=3)
        start = GarchParams(omega=0.08, alpha=0.15, beta=0.7)
        z0 = garch_mod._pack(start)
        real = garch_mod._loglik_grad_hess

        def walled(z, window):
            if np.max(np.abs(z - z0)) > radius:
                return np.inf, np.zeros(3), np.zeros((3, 3)), None
            return real(z, window)

        monkeypatch.setattr(garch_mod, "_loglik_grad_hess", walled)
        try:
            fitted = garch_fit(r, init=start)
        except GarchConvergenceError as exc:
            assert isinstance(exc.best_params, GarchParams)
        else:
            assert isinstance(fitted, GarchParams)
            assert np.max(np.abs(garch_mod._pack(fitted) - z0)) <= radius


def _cold_problem(monkeypatch, values):
    # the objective, start and options garch_fit hands its simplex, and the fit
    seen = []
    real = garch_mod._nelder_mead

    def recording(func, x0, **options):
        seen.append((func, x0, options))
        return real(func, x0, **options)

    with monkeypatch.context() as m:
        m.setattr(garch_mod, "_nelder_mead", recording)
        fitted = garch_fit(ReturnSeries(values))
    (func, x0, options), = seen
    return func, x0, options, fitted


def test_cold_objective_is_the_negative_loglik_or_the_retreat(monkeypatch):
    # the simplex's objective squares the window once per fit; its values
    # must be -garch_loglik's, and 1e12 where that raises
    values = _window("benchmark", 2)
    func, x0, _, _ = _cold_problem(monkeypatch, values)
    r, s0 = ReturnSeries(values), float(np.var(values))
    points = np.random.default_rng(3).normal(x0, 4.0, (200, 3))
    for z in (x0, *points, np.array([45.0, -45.0, 50.0])):
        assert func(z) == -garch_loglik(garch_mod._unpack(z), r, s0)
    # a nan coordinate leaves omega nan, which GarchParams refuses
    assert func(np.array([np.nan, 0.0, 0.0])) == 1e12


def _walled(func, x0, radius):
    # the objective behind a wall of the 1e12 retreat at radius from x0
    return lambda z: 1e12 if np.max(np.abs(z - x0)) > radius else func(z)


def _assert_scipy_steps(func, x0, **options):
    # _nelder_mead against scipy's Nelder-Mead, bit for bit; returns scipy's result
    ref = optimize.minimize(func, x0, method="Nelder-Mead", options=options)
    x, fun, status = garch_mod._nelder_mead(func, x0, **options)
    assert x.tobytes() == ref.x.tobytes()
    assert np.float64(fun).tobytes() == np.float64(ref.fun).tobytes()
    assert (status == 0) == ref.success
    assert status == ref.status
    if status:
        assert garch_mod._BUDGET_MESSAGES[status] == ref.message
    return ref


_ALTERNATING = tuple((60, 1.0) if i % 2 == 0 else (60, 3.0) for i in range(10))


def _window(kind: str, seed: int) -> np.ndarray:
    if kind == "benchmark":
        return _benchmark_returns(seed)[:350]
    if kind == "break":  # gate 09's 1x/3x break series
        r, _ = generate_change_point_series(ChangePointSpec(_ALTERNATING, seed=seed))
        return r.values[:350]
    rng = np.random.default_rng([seed, 5])  # a short random window
    return rng.uniform(0.2, 3.0) * rng.standard_normal(int(rng.integers(50, 200)))


class TestNelderMead:
    """The cold fit's simplex equals scipy.optimize.minimize(method="Nelder-Mead")
    step for step: same x, fun and success, also when a budget runs out."""

    @pytest.mark.parametrize(
        "kind, seed",
        [("benchmark", s) for s in range(8)]
        + [("short", s) for s in range(6)]
        + [("break", s) for s in range(3)],
    )
    def test_cold_fit_equals_scipy(self, monkeypatch, kind, seed):
        func, x0, options, fitted = _cold_problem(monkeypatch, _window(kind, seed))
        assert options == {"xatol": 1e-8, "fatol": 1e-10, "maxiter": 4000, "maxfev": 8000}
        ref = _assert_scipy_steps(func, x0, **options)
        assert ref.success
        assert fitted == garch_mod._unpack(ref.x)

    @pytest.mark.parametrize("radius", [0.02, 0.05, 0.1])
    def test_retreat_wall_equals_scipy(self, monkeypatch, radius):
        # vertices that meet the wall tie at 1e12, so the sorts must match too
        func, x0, options, _ = _cold_problem(monkeypatch, _window("benchmark", 3))
        walled = _walled(func, x0, radius)
        assert walled(x0 + 2.0 * radius) == 1e12
        _assert_scipy_steps(walled, x0, **options)

    @pytest.mark.parametrize("maxfev", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 25, 60])
    def test_exhausted_evaluations_equal_scipy(self, monkeypatch, maxfev):
        # below 4 the budget ends among the first simplex's evaluations; the
        # walled search's first shrink makes evaluations 7 to 9, so 6, 7 and 8
        # end inside it; either way a vertex is left that was never evaluated
        func, x0, _, _ = _cold_problem(monkeypatch, _window("benchmark", 3))
        walled = _walled(func, x0, 0.02)
        evaluated = []

        def recording(z):
            evaluated.append(z.copy())
            return walled(z)

        ref = _assert_scipy_steps(
            recording, x0, xatol=1e-8, fatol=1e-10, maxiter=4000, maxfev=maxfev
        )
        assert ref.status == 1 and ref.nfev == maxfev
        unevaluated = [
            not any(np.array_equal(v, z) for z in evaluated) for v in ref.final_simplex[0]
        ]
        assert any(unevaluated) == (maxfev in (1, 2, 3, 6, 7, 8))

    @pytest.mark.parametrize("maxfev", [29, 30])
    def test_exhausted_inside_a_shrink_that_finds_a_new_best(self, maxfev):
        # on the 3-D Rosenbrock function from (-1.5, 0.5, 2) a shrink makes
        # evaluations 29 to 31 and its first moved vertex falls below the best
        # one; the budget ends before the shrink does, so only the re-sort puts
        # the new best first
        evaluated = []

        def recording(z):
            evaluated.append(z.copy())
            return optimize.rosen(z)

        ref = _assert_scipy_steps(
            recording, np.array([-1.5, 0.5, 2.0]), xatol=1e-8, fatol=1e-10, maxiter=4000,
            maxfev=maxfev,
        )
        assert ref.status == 1 and ref.nfev == maxfev
        # scipy's evaluations come first: 29 on move vertices halfway to the best
        before = [optimize.rosen(z) for z in evaluated[:28]]
        best = evaluated[int(np.argmin(before))]
        for z in evaluated[28:maxfev]:
            assert any(np.array_equal(z, best + 0.5 * (v - best)) for v in evaluated[:28])
        assert np.array_equal(ref.x, evaluated[28]) and ref.fun < min(before)

    @pytest.mark.parametrize("maxiter", [1, 2, 3, 5, 20, 100])
    def test_exhausted_iterations_equal_scipy(self, monkeypatch, maxiter):
        func, x0, _, _ = _cold_problem(monkeypatch, _window("benchmark", 0))
        ref = _assert_scipy_steps(func, x0, xatol=1e-8, fatol=1e-10, maxiter=maxiter, maxfev=8000)
        assert ref.status == 2

    @pytest.mark.parametrize(
        "budget, status, message",
        [
            ({"maxfev": 30}, 1, "Maximum number of function evaluations has been exceeded."),
            ({"maxiter": 12}, 2, "Maximum number of iterations has been exceeded."),
        ],
    )
    def test_exhausted_cold_fit_names_its_budget(self, monkeypatch, budget, status, message):
        real = garch_mod._nelder_mead
        ends = []

        def capped(func, x0, **options):
            ends.append(real(func, x0, **{**options, **budget}))
            return ends[-1]

        monkeypatch.setattr(garch_mod, "_nelder_mead", capped)
        with pytest.raises(GarchConvergenceError) as info:
            garch_fit(ReturnSeries(_window("benchmark", 0)))
        (x, fun, ended), = ends
        assert ended == status
        assert str(info.value) == f"fit did not converge within the iteration budget: {message}"
        assert info.value.best_params == garch_mod._unpack(x)
        assert info.value.best_loglik == -float(fun)
