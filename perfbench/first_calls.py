"""The first default-config call of each moment engine.

Between them they also make the first cdf, bivariate and QMC kernel calls.
`setup_s` times ``import truncskew`` plus :func:`run` in fresh interpreters;
the in-process workloads call it once, untimed, before their passes.
"""


def run(ts) -> None:
    par = ts.EsnParams(mu=[0.1, -0.2], sigma=[[1.0, 0.3], [0.3, 1.5]],
                       lam=[0.8, -0.5], tau=0.3)
    box = ts.TruncationBox([-1.0, -1.5], [1.2, 1.0])
    ts.tesn_mean_cov(box, par)
    ts.tesn_mean_cov(box, par, method="recurrence")


if __name__ == "__main__":
    import time

    t0 = time.perf_counter()
    import truncskew

    run(truncskew)
    print(time.perf_counter() - t0)
