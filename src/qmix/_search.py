"""qmix's one Nelder-Mead and bounded Brent, as searches run side by side.

A search is a generator: it yields a list of the points it wants evaluated
next (points that need no answer from each other go out in one list), is
sent the list of their values, and returns its result.  `_nelder_mead` and
`_bounded_brent` are scipy 1.17.1's `_minimize_neldermead` (no bounds, not
adaptive) and `_minimize_scalar_bounded` step for step, so they give
scipy's `minimize` and `minimize_scalar` results bit for bit.
`ls_estimator.estimate_alpha` and `mixing.pq_norm` search through them.
"""

from __future__ import annotations

import numpy as np

from .operator_core import STACK_ENTRIES


def _nelder_mead(x0, maxfev: int, xatol: float, fatol: float):
    """scipy 1.17.1's `_minimize_neldermead` as a search, with maxiter unset,
    no bounds and adaptive=False; returns (x, fun, nfev), which equal
    minimize(func, x0, method="Nelder-Mead", options={"maxfev": maxfev,
    "xatol": xatol, "fatol": fatol}) bit for bit.  The first simplex and each
    shrink are one request; as scipy's budget error does, a step that would
    pass maxfev ends the search, and a shrink cut by it has moved one more
    vertex than it evaluated.  A budget below n + 1 ends the search inside
    the first simplex, so only the vertices it evaluates are built, where
    scipy builds all n + 1."""
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025
    x0 = np.asarray(x0, dtype=float).flatten()
    n = len(x0)
    step = np.where(x0 != 0, (1 + nonzdelt) * x0, zdelt)

    def vertices(index):
        """Rows `index` of the first simplex: row 0 is x0, and row i is x0
        with coordinate i - 1 set to step[i - 1]."""
        rows = np.tile(x0, (len(index), 1))
        moved = np.flatnonzero(index)
        rows[moved, index[moved] - 1] = step[index[moved] - 1]
        return rows

    nfev = max(0, min(maxfev, n + 1))
    sim = vertices(np.arange(nfev))
    fsim = np.full((n + 1,), np.inf, dtype=float)
    if nfev:
        fsim[:nfev] = yield list(sim.copy())
    ind = np.argsort(fsim)
    ind = ind[np.argsort(fsim[ind])]  # scipy sorts twice; argsort may reorder ties
    fsim = fsim[ind]
    if nfev < n + 1:  # the budget is spent; the best vertex may be one never evaluated
        return vertices(ind[:1])[0], np.min(fsim), nfev
    sim = sim[ind]

    while nfev < maxfev:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol and
                np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        [fxr] = yield [xr]
        nfev += 1
        if fxr < fsim[0]:
            if nfev < maxfev:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                [fxe] = yield [xe]
                nfev += 1
                if fxe < fxr:
                    sim[-1] = xe
                    fsim[-1] = fxe
                else:
                    sim[-1] = xr
                    fsim[-1] = fxr
        elif fxr < fsim[-2]:
            sim[-1] = xr
            fsim[-1] = fxr
        elif nfev < maxfev:
            if fxr < fsim[-1]:
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                [fxc] = yield [xc]
                nfev += 1
                shrink = not fxc <= fxr
                if not shrink:
                    sim[-1] = xc
                    fsim[-1] = fxc
            else:  # inside contraction
                xcc = (1 - psi) * xbar + psi * sim[-1]
                [fxcc] = yield [xcc]
                nfev += 1
                shrink = not fxcc < fsim[-1]
                if not shrink:
                    sim[-1] = xcc
                    fsim[-1] = fxcc
            if shrink:
                m = min(n, maxfev - nfev)  # the vertices the budget can evaluate
                moved = min(n, m + 1)
                sim[1:moved + 1] = sim[0] + sigma * (sim[1:moved + 1] - sim[0])
                if m:
                    fsim[1:m + 1] = yield list(sim[1:m + 1].copy())
                    nfev += m
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return sim[0].copy(), np.min(fsim), nfev  # a copy: a view would keep the simplex alive


def _bounded_brent(x1: float, x2: float, xatol: float, maxiter: int = 500):
    """scipy 1.17.1's `_minimize_scalar_bounded` on finite bounds x1 <= x2 as
    a search of one point per request; returns (x, fun, nfev), which equal
    minimize_scalar(func, bounds=(x1, x2), method="bounded",
    options={"xatol": xatol, "maxiter": maxiter}) bit for bit."""
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    a, b = x1, x2
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    [fx] = yield [xf]
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = 1
        if np.abs(e) > tol1:  # parabolic fit
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            if ((np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf)) and
                    (p < q * (b - xf))):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = 1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        [fu] = yield [x]
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            break
    return xf, fx, num


def _through(search, make):
    """`search` with each point it asks for passed through make."""
    try:
        request = next(search)
        while True:
            request = search.send((yield [make(x) for x in request]))
    except StopIteration as stop:
        return stop.value


def _lockstep(evaluate, searches) -> list:
    """Run searches side by side and return their results in order.  Each
    round makes one evaluate(points) call on the pending points of every live
    search, which returns their values in order, and sends each search its own."""
    results = [None] * len(searches)
    live = [(i, search, None) for i, search in enumerate(searches)]
    while live:
        asked = []
        for i, search, values in live:
            try:
                asked.append((i, search, search.send(values)))
            except StopIteration as stop:
                results[i] = stop.value
        points = [x for _, _, request in asked for x in request]
        values = iter(evaluate(points) if points else ())
        live = [(i, search, [next(values) for _ in request]) for i, search, request in asked]
    return results


def _side_by_side(evaluate, searches, first_sizes, d: int) -> list:
    """`_lockstep` over runs of consecutive searches whose first requests
    (first_sizes points of d^2 entries each) fit in STACK_ENTRIES together; a
    search that does not fit alone runs alone, so its memory is what it was
    when each search ran on its own.  The searches are not yet started:
    a search holds its first request only once its run starts."""
    results, run, size = [], [], 0
    for search, n in zip(searches, first_sizes):
        if run and (size + n) * d * d > STACK_ENTRIES:
            results += _lockstep(evaluate, run)
            run, size = [], 0
        run.append(search)
        size += n
    return results + _lockstep(evaluate, run)
