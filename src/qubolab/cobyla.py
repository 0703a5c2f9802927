"""Powell's COBYLA for unconstrained, unbounded problems.

COBYLA (M. J. D. Powell, "A direct search optimization method that models the
objective and constraint functions by linear interpolation", 1994) as PRIMA
implements it (Z. Zhang, "PRIMA: Reference Implementation for Powell's Methods
with Modernization and Amelioration", 2023, doi:10.5281/zenodo.8052654), in
the Python translation by Nickolai Belakovski that scipy >= 1.16 ships as
``scipy/_lib/pyprima``. This module transcribes the path an unconstrained,
unbounded problem runs through in scipy 1.17.1's ``cobyla/{cobylb,
trustregion,geometry,update,initialize}.py`` and the ``common/`` helpers they
call. Every rounding step is kept: the same elementwise operations, and the
same reductions and BLAS/LAPACK calls (``@``, ``np.dot``, ``np.add.reduce``,
``inv``) on operands of the same layout, in the same order. So ``cobyla``
makes the same evaluations and returns the same point, value and evaluation
count as ``scipy.optimize.minimize(fun, x0, method="COBYLA", tol=rhoend,
options={"maxiter": maxfun})``.

Dropped, each with the rule that keeps every number the same:

- ``getcpen`` and the constraint arrays: with no violation, no penalty.
- The filter: ``selectx`` then returns the first point of least value.
- The history, messages, ``preproc`` and debugging checks: they set no iterate.
- ``trstlp``'s cascade on ``z = eye(n)``: one term of each product is an exact
  zero, so one carried column of ``z`` has the same bits (inf or NaN: no step).
- ``trstlp``'s ``d = 0`` arithmetic: each term it adds is an exact zero.
- ``updatepole`` at each iteration's start and after a ``rho`` cut: it gets
  the last ``updatepole``'s (or ``initialize``'s) output, and is idempotent.
- ``np.tile(v, (n, 1)).T``: ``v[:, None]`` broadcasts the same arithmetic.
- ``trstlp``'s multiplier ``lstsq`` and finiteness tests: past ``qradd``,
  ``|R| > EPS**2``; a finite ``step`` means ``delta < 1.35e154`` (``delta**2``
  is inf above), so ``|d| ~ delta`` and the multiplier ``|d| / |R|`` are finite.
- ``planerot``'s NaN, inf/inf and 0/0 branches: ``qradd`` rotates only finite
  pairs (entries below ``1e12 * sqrt(n)``) whose second entry is nonzero.
- ``updatepole``'s inverse check of an unmoved pole: ``updatexfc`` has just
  run it on the same arrays, got ``erri <= 1``, and a rerun changes nothing.
- A second sum of the vertex lengths: ``setdrop_geo`` reads the geometry test's.

Spelled without numpy's Python wrappers, each with the rule that keeps it exact:

- Scalars as Python floats, with ``math``: ``+ - * /`` and ``sqrt`` are
  correctly rounded on either type, and ``min``/``max`` pick the same value.
  ``qradd``'s rotated vector, its carried column of ``z`` and ``trstlp``'s
  step are Python floats too, with the ``z`` products in the same order.
- ``np.add.reduce`` for ``np.sum`` (the ufunc it runs); ``math.sqrt(v.dot(v))``
  for ``np.linalg.norm`` (its 1-D path); ``a[:, None] * b`` for ``np.outer``
  (the same products); ``np.logical_and.reduce``/``np.logical_or.reduce`` for
  ``all``/``any`` and the array methods, ``np.maximum.reduce(v, axis=None)``
  for ``max`` and ``np.minimum(np.maximum(x, lo), hi)`` for ``clip`` (the
  ufuncs the methods run); ``np.eye(n)`` built once per size. Not respelled:
  ``planerot``'s ``x.dot(x)`` as ``a*a + b*b`` (16% of random pairs differ,
  likely BLAS's FMA), ``np.hypot`` as ``math.hypot`` (another algorithm),
  ``trstlp``'s ``np.dot(sdirn, sdirn)``, and ``updatexfc``'s left-to-right
  ``sum(simid)`` as pairwise ``np.add.reduce``.

Kept from scipy's ``ScalarFunction``: a point equal to the last one evaluated
reuses its value instead of calling ``fun`` again.

PRIMA is Copyright (c) Zaikun Zhang; the Python translation is part of SciPy,
Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers. Both are
distributed under the BSD 3-Clause License:

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions are
    met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above copyright
       notice, this list of conditions and the following disclaimer in the
       documentation and/or other materials provided with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived from
       this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS "AS
    IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT LIMITED TO,
    THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR A PARTICULAR
    PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT HOLDER OR
    CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL, SPECIAL,
    EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT LIMITED TO,
    PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE, DATA, OR
    PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY THEORY OF
    LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT (INCLUDING
    NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE OF THIS
    SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import functools
import math

import numpy as np

REALMIN = float(np.finfo(float).tiny)  # Python floats, as the scalar bookkeeping is
REALMAX = float(np.finfo(float).max)
EPS = float(np.finfo(float).eps)
FUNCMAX = 10.0**30  # objective values above this (and NaN) count as this
RHOBEG = 1.0  # the initial trust-region radius, scipy's default
# trust-region radius update; PRIMA derives eta2 from eta1, so it is not 0.7
ETA1 = 0.1
ETA2 = (ETA1 + 2) / 3
GAMMA1 = 0.5
GAMMA2 = 2
# DELTA at most GAMMA3 * RHO is set to RHO
GAMMA3 = max(1, min(0.75 * GAMMA2, 1.5))
# a step predicting less than this times RHO counts as a failed step; it is
# 1e-6 * min(cpen, 1), where the penalty cpen stays at its floor EPS
_TRFAIL = 1.0e-6 * EPS
_identity = functools.cache(np.eye)  # np.eye(n), built once per size and only read


def cobyla(fun, x0, rhoend: float, maxfun: int):
    """Minimise ``fun`` from ``x0`` until the trust-region radius falls from
    ``RHOBEG`` to ``rhoend`` or ``maxfun`` evaluations are counted. Returns
    ``(x, f, nf)``: the first point that reached the least value, that value
    (clipped to ``FUNCMAX``) and the count of evaluations, reused values
    included."""
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    if x0.ndim != 1 or n < 1 or not np.logical_and.reduce(np.isfinite(x0)):
        raise ValueError(f"x0 must be a non-empty finite vector, got {x0}")
    if maxfun < n + 2:
        raise ValueError(f"maxfun must be at least len(x0) + 2 = {n + 2}, got {maxfun}")
    objective = _Objective(fun, x0)
    fval, sim, simi = _initialize(objective, x0)

    distsq = np.zeros(n + 1)
    d = np.zeros(n)
    rho = RHOBEG
    delta = RHOBEG
    shortd = False
    ratio = -1
    jdrop_tr = 0
    small_radius = False
    for _ in range(10 * maxfun):
        adequate_geo = np.logical_and.reduce(
            np.add.reduce(sim[:, :n] * sim[:, :n], axis=0) <= 4 * (delta * delta)
        )

        g = (fval[:n] - fval[n]) @ simi
        d = _trstlp(g, delta)
        dnorm = min(delta, math.sqrt(d.dot(d)))
        shortd = dnorm <= 0.1 * rho
        preref = -np.dot(d, g)
        trfail = not (preref > _TRFAIL * rho)

        if shortd or trfail:
            delta *= 0.1
            if delta <= GAMMA3 * rho:
                delta = rho
        else:
            x = sim[:, n] + d
            f = _value_at(x, sim, fval, distsq, rhoend, objective)
            actrem = fval[n] - f
            ratio = _redrat(actrem, preref)
            delta = _trrad(delta, dnorm, ratio)
            if delta <= GAMMA3 * rho:
                delta = rho
            jdrop_tr = _setdrop_tr(actrem > 0, d, delta, rho, sim, simi)
            sim, simi, damaging = _updatexfc(jdrop_tr, d, f, fval, sim, simi)
            if damaging or not np.logical_and.reduce(np.isfinite(x)) or objective.nf >= maxfun:
                break

        bad_trstep = shortd or trfail or ratio <= 0 or jdrop_tr is None
        improve_geo = bad_trstep and not adequate_geo
        reduce_rho = bad_trstep and adequate_geo and max(delta, dnorm) <= rho

        if improve_geo and not np.logical_and.reduce(
            (distsq_sim := np.add.reduce(sim[:, :n] * sim[:, :n], axis=0)) <= 4 * (delta * delta)
        ):
            jdrop_geo = distsq_sim.argmax()
            d = _geostep(jdrop_geo, delta / 2, fval, simi)
            x = sim[:, n] + d
            f = _value_at(x, sim, fval, distsq, rhoend, objective)
            sim, simi, damaging = _updatexfc(jdrop_geo, d, f, fval, sim, simi)
            if damaging or not np.logical_and.reduce(np.isfinite(x)) or objective.nf >= maxfun:
                break

        if reduce_rho:
            if rho <= rhoend:
                small_radius = True
                break
            delta = max(0.5 * rho, _redrho(rho, rhoend))
            rho = _redrho(rho, rhoend)

    # the last trust-region step is tried if it was cut short at the end
    x = sim[:, n] + d
    if (small_radius and shortd and np.linalg.norm(x - sim[:, n]) > 1.0e-3 * rhoend
            and objective.nf < maxfun):
        objective.offer(x, objective(x))
    return objective.best_x, objective.best_f, objective.nf


class _Objective:
    """The objective as COBYLA sees it: NaN points are not evaluated,
    infinite entries are clipped, values are clipped to ``FUNCMAX``, and a
    point equal to the last one evaluated reuses its value. ``fun`` gets a
    copy of every point; ``x0`` is evaluated on construction. ``nf`` counts
    the calls, reused values included, and ``best_x``/``best_f`` hold the
    answer: the filter's pick without constraints, a candidate taken only if
    its value is below every earlier one."""

    def __init__(self, fun, x0):
        self.fun = fun
        self.x = x0.copy()
        self.f = fun(x0.copy())
        self.nf = 1
        self.best_x = None

    def offer(self, x, f):
        if self.best_x is None or f < self.best_f:
            self.best_x = x
            self.best_f = f

    def __call__(self, x):
        self.nf += 1
        if np.logical_or.reduce(np.isnan(x)):
            return FUNCMAX  # a NaN value, moderated
        x = np.minimum(np.maximum(x, -REALMAX), REALMAX)
        if not np.logical_and.reduce(x == self.x):
            self.x = x
            self.f = self.fun(x.copy())
        return _moderatef(self.f)


def _moderatef(f):
    return FUNCMAX if math.isnan(f) else min(max(f, -REALMAX), FUNCMAX)


def _initialize(objective, x0):
    """The initial simplex: ``x0`` and ``x0 + RHOBEG * e_j``, with the first
    point of least value moved to the pole ``sim[:, n]``. The vertices are
    offered as the answer in column order, the pole last."""
    n = x0.size
    sim = np.eye(n, n + 1) * RHOBEG
    sim[:, n] = x0
    fval = np.zeros(n + 1) + REALMAX
    fval[n] = _moderatef(objective.f)
    for j in range(n):
        x = sim[:, n].copy()
        x[j] += RHOBEG
        fval[j] = objective(x)
        if fval[j] < fval[n]:
            fval[j], fval[n] = fval[n], fval[j]
            sim[:, n] = x
            sim[j, : j + 1] = -RHOBEG
    simi = np.linalg.inv(sim[:, :n])
    for i in range(n + 1):
        objective.offer(sim[:, i] + sim[:, n] if i < n else sim[:, n].copy(), fval[i])
    return fval, sim, simi


def _value_at(x, sim, fval, distsq, rhoend, objective):
    """The value at ``x``: a vertex's own value within ``1e-4 * rhoend`` of
    it, else an evaluation, offered as the answer."""
    n = sim.shape[0]
    step = x - sim[:, n]
    distsq[n] = np.add.reduce(step * step)
    diff = x.reshape(n, 1) - (sim[:, n].reshape(n, 1) + sim[:, :n])
    distsq[:n] = np.add.reduce(diff * diff, axis=0)
    j = distsq.argmin()
    if distsq[j] <= (1e-4 * rhoend) * (1e-4 * rhoend):
        return fval[j]
    f = objective(x)
    objective.offer(x, f)
    return f


def _redrat(ared, pred):
    """The reduction ratio ``ared / pred``, with NaN and infinities handled."""
    if math.isnan(ared):
        return -REALMAX
    if math.isnan(pred) or pred <= 0:
        return ETA1 / 2 if ared > 0 else -REALMAX
    if pred == math.inf and math.isinf(ared):
        return 1 if ared > 0 else -REALMAX
    return ared / pred


def _trrad(delta_in, dnorm, ratio):
    if ratio <= ETA1:
        return GAMMA1 * dnorm
    if ratio <= ETA2:
        return max(GAMMA1 * delta_in, dnorm)
    return max(GAMMA1 * delta_in, GAMMA2 * dnorm)


def _redrho(rho_in, rhoend):
    rho_ratio = rho_in / rhoend
    if rho_ratio > 250:
        return 0.1 * rho_in
    if rho_ratio <= 16:
        return rhoend
    return math.sqrt(rho_ratio) * rhoend


def _updatepole(fval, sim, simi):
    """Move the vertex of least value to the pole, keeping ``simi`` the
    inverse of ``sim[:, :n]``. Returns ``(sim, simi, damaging)``; ``simi``
    is checked only if the pole moves, as the caller has just checked it."""
    n = sim.shape[0]
    jopt = fval.argmin()
    if not fval[jopt] < fval[n]:
        return sim, simi, False
    sim[:, n] += sim[:, jopt]
    sim_jopt = sim[:, jopt].copy()
    sim[:, jopt] = 0
    sim[:, :n] -= sim_jopt[:, None]
    simi[jopt, :] = -np.add.reduce(simi, axis=0)
    simi, erri = _checked_inverse(sim, simi)
    if erri <= 1:
        fval[jopt], fval[n] = fval[n], fval[jopt]
        return sim, simi, False
    return sim, simi, True


def _updatexfc(jdrop, d, f, fval, sim, simi):
    """Replace vertex ``jdrop`` with the pole plus ``d``, then move the pole.
    Returns ``(sim, simi, damaging)``."""
    if jdrop is None:
        # no vertex scored above 0, which takes a NaN or all-zero simi @ d;
        # the point is dropped (scipy 1.17.1 returns its arrays out of order
        # here, a branch finite steps and a checked inverse do not reach)
        return sim, simi, False
    n = sim.shape[0]
    if jdrop < n:
        sim[:, jdrop] = d
        simi_jdrop = simi[jdrop, :] / np.dot(simi[jdrop, :], d)
        simi -= (simi @ d)[:, None] * simi_jdrop
        simi[jdrop, :] = simi_jdrop
    else:
        sim[:, n] += d
        sim[:, :n] -= d[:, None]
        simid = simi @ d
        sum_simi = np.add.reduce(simi, axis=0)
        simi += simid[:, None] * (sum_simi / (1 - sum(simid)))
    simi, erri = _checked_inverse(sim, simi)
    if erri <= 1:
        fval[jdrop] = f
        return _updatepole(fval, sim, simi)
    return sim, simi, True


def _checked_inverse(sim, simi):
    """(simi, erri): ``simi`` replaced by a fresh inverse when its error
    exceeds 0.1 and the fresh one is better."""
    n = sim.shape[0]
    eye = _identity(n)
    erri = np.maximum.reduce(abs(simi @ sim[:, :n] - eye), axis=None)
    if erri > 0.1 or math.isnan(erri):
        simi_test = np.linalg.inv(sim[:, :n])
        erri_test = np.maximum.reduce(abs(simi_test @ sim[:, :n] - eye), axis=None)
        if erri_test < erri or (math.isnan(erri) and not math.isnan(erri_test)):
            return simi_test, erri_test
    return simi, erri


def _setdrop_tr(ximproved, d, delta, rho, sim, simi):
    """The vertex to replace with the trust-region point, or None."""
    n = sim.shape[0]
    distsq = np.zeros(n + 1)
    if ximproved:
        diff = sim[:, :n] - d[:, None]
        distsq[:n] = np.add.reduce(diff * diff, axis=0)
        distsq[n] = np.add.reduce(d * d)
    else:
        distsq[:n] = np.add.reduce(sim[:, :n] * sim[:, :n], axis=0)
        distsq[n] = 0
    scale = max(rho, delta / 10)
    weight = np.maximum(1, distsq / (scale * scale))
    simid = simi @ d
    score = weight * abs(np.concatenate((simid, [1 - np.add.reduce(simid)])))
    if not ximproved:
        score[n] = -1
    score[np.isnan(score)] = -1
    if np.logical_or.reduce(score > 0):
        return score.argmax()
    if ximproved:
        return distsq.argmax()
    return None


def _geostep(jdrop, delbar, fval, simi):
    """A step of length ``delbar`` along row ``jdrop`` of ``simi``, signed to
    predict the lower value."""
    n = simi.shape[0]
    d = simi[jdrop, :]
    d = delbar * (d / math.sqrt(d.dot(d)))
    g = (fval[:n] - fval[n]) @ simi
    if -np.dot(d, g) < np.dot(d, g):
        d *= -1
    return d


def _trstlp(g, delta):
    """The trust-region step: ``-delta * g / |g|`` as PRIMA's ``trstlp``
    computes it when ``g`` is its only column. Its first stage, which
    reduces constraint violations, returns ``d = 0`` and ``z = I``."""
    a = g.copy()
    if (maxval := np.maximum.reduce(abs(a), axis=None)) > 1e12:
        a *= max(2 * REALMIN, 1 / maxval)
    d = np.zeros(g.size)
    # add the column to the empty QR factorization of the active set
    if (qr := _qradd(a)) is None:
        return d
    z, zdota = qr
    sdirn = -1 / zdota * np.array(z)
    ss = float(np.dot(sdirn, sdirn))
    if ss <= EPS * delta * delta:
        return d
    step = math.sqrt(ss * (delta * delta)) / ss
    if step <= 0 or not math.isfinite(step):
        return d
    # the column's multiplier, clipped at 0, is never negative, so the step
    # is taken whole; adding it to d = 0 turns a -0.0 into +0.0
    return d + step * sdirn


def _qradd(c):
    """PRIMA's ``qradd_Rdiag`` for an empty factorization, ``q = I``: rotates
    ``c`` into the first column of ``q`` and returns that column (a list)
    and its ``R`` diagonal entry, or None when ``c`` is negligible. Past the
    minor test the entries are Python floats: the same IEEE products, in the
    same order, as on the array."""
    if not np.logical_and.reduce(np.isfinite(c)):
        return None  # PRIMA's c @ eye(n) then holds a NaN (inf * 0) or an inf: no step
    n = c.size
    cq = np.where(_isminor(c, abs(c)), 0.0, c).tolist()
    # q's column k + 1 after the rotations below k + 1; column k is e_k until
    # rotation k gives it c * e_k + s * z
    z = [0.0] * n
    z[n - 1] = 1.0
    for k in range(n - 2, -1, -1):
        if abs(cq[k + 1]) > 0:
            cos, sin = _planerot(cq[k], cq[k + 1])
            for j in range(k + 1, n):
                z[j] *= sin
            z[k] = cos
            cq[k] = float(np.hypot(cq[k], cq[k + 1]))
        else:
            z[k + 1 :] = [0.0] * (n - k - 1)
            z[k] = 1.0
    if abs(cq[0]) > EPS**2 and not _isminor(cq[0], abs(float(c[0]))):
        return z, cq[0]
    return None


def _isminor(x, ref):
    """True where ``x`` is 0 or rounding noise next to ``ref``: arrays or
    Python floats."""
    refa = abs(ref) + 0.1 * abs(x)
    refb = abs(ref) + 2 * 0.1 * abs(x)
    return (abs(ref) >= refa) | (refa >= refb)


_SQRT_REALMIN = math.sqrt(REALMIN)
_SQRT_REALMAX = math.sqrt(REALMAX / 2.1)


def _planerot(a, b):
    """``(c, s)`` of the Givens rotation ``G = [[c, s], [-s, c]]`` with
    ``G @ (a, b) == (r, 0)`` for finite floats with ``b != 0`` (the same IEEE
    operations as on arrays); the norm is ``np.linalg.norm``'s own
    ``sqrt(x.dot(x))`` of the 2-vector."""
    if abs(b) <= EPS * abs(a):
        c, s = np.sign(a), 0
    elif abs(a) <= EPS * abs(b):
        c, s = 0, np.sign(b)
    elif _SQRT_REALMIN < abs(a) < _SQRT_REALMAX and _SQRT_REALMIN < abs(b) < _SQRT_REALMAX:
        x = np.array((a, b))
        r = math.sqrt(x.dot(x))
        c, s = a / r, b / r
    elif abs(a) > abs(b):
        t = b / a
        u = max(1, abs(t), math.sqrt(1 + t * t)) * np.sign(a)
        c, s = 1 / u, t / u
    else:
        t = a / b
        u = max(1, abs(t), math.sqrt(1 + t * t)) * np.sign(b)
        c, s = t / u, 1 / u
    return c, s
