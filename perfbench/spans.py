"""Spans around the calls into diracbag's layers, recorded from outside.

The tracer rebinds module attributes: every public function a layer defines
is replaced, in its own module and in every module that imported it by name,
with a wrapper that records a span.  ``eig_sym_tridiag`` is therefore wrapped
separately in the ``fiber`` and the ``disk`` namespace, and each solve is
attributed to the layer that issued it.  Nothing under ``src/`` changes.

A span is ``[name, caller, start, end, parent, op, info]``: the function as
``layer.function``, the layer whose namespace the call went through, start
and end on ``time.perf_counter``, the index of the enclosing span (-1 at top
level), the operation id (``"setup"`` before the first operation) and a
per-function detail filled by a hook (matrix order, evaluation count, ...).
Spans stay in memory until the repetition ends.
"""

from __future__ import annotations

import time

PACKAGE = "diracbag"
LAYERS = ("numerics", "fiber", "dispersion", "disk", "constants", "effective")

EIG = "numerics.eig_sym_tridiag"

# (name, unit); counts and ratios of counts must repeat exactly between
# traced repetitions of the same inputs, times are reported as medians.
METRICS = (
    ("numerics.eig.calls", "count"),
    ("numerics.eig.rows", "count"),
    ("numerics.eig.s", "s"),
    ("numerics.eig.us_per_row", "us"),
    ("numerics.bisect.evals", "count"),
    ("numerics.golden.evals", "count"),
    ("numerics.self_s", "s"),
    ("fiber.eig.calls", "count"),
    ("fiber.nu_k.calls", "count"),
    ("fiber.fiber_eigs.calls", "count"),
    ("fiber.values_cache.hit_ratio", "ratio"),
    ("fiber.self_s", "s"),
    ("dispersion.find_a0.s", "s"),
    ("dispersion.find_a0.eig_calls", "count"),
    ("dispersion.nu_of_alpha.calls", "count"),
    ("dispersion.nu_of_alpha.s", "s"),
    ("dispersion.c_gamma.s", "s"),
    ("dispersion.c_gamma.eig_calls", "count"),
    ("dispersion.theta.calls", "count"),
    ("dispersion.theta.s", "s"),
    ("dispersion.theta.solves_per_point", "ratio"),
    ("dispersion.theta.floor_hits", "count"),
    ("dispersion.self_s", "s"),
    ("disk.eig.calls", "count"),
    ("disk.eig.rows", "count"),
    ("disk.dirac_spectrum.s", "s"),
    ("disk.dirac_spectrum.eig_calls", "count"),
    ("disk.solves_per_eigenvalue", "ratio"),
    ("disk.modes", "count"),
    ("disk.hardy_nu_k.s", "s"),
    ("disk.zigzag_spectrum.s", "s"),
    ("disk.dirac_radial_direct.s", "s"),
    ("disk.radial_phi.s", "s"),
    ("disk.self_s", "s"),
    ("constants.ck_constant.calls", "count"),
    ("constants.ck_constant.s", "s"),
    ("constants.hardy_distance.s", "s"),
    ("constants.bargmann_distance.s", "s"),
    ("constants.self_s", "s"),
    ("effective.qeff_general.calls", "count"),
    ("effective.qeff_general.s", "s"),
    ("effective.qeff_disk.s", "s"),
    ("effective.self_s", "s"),
)


def _matrix_order(rec, args, kwargs):
    rec[6] = (args[0] if args else kwargs["m"]).n
    return args, kwargs


def _count_evals(rec, args, kwargs):
    """Wrap the callback of bisect/golden_min so its evaluations are counted."""
    f = args[0] if args else kwargs.pop("f")
    rec[6] = 0

    def counted(x):
        rec[6] += 1
        return f(x)

    return (counted,) + tuple(args[1:]), kwargs


def _theta_floor(rec, out, args, kwargs):
    rec[6] = out.theta == 0.0


def _spectrum_size(rec, out, args, kwargs):
    m_lo, m_hi = (args[0] if args else kwargs["spec"]).m_range
    rec[6] = (out.pos.size + out.neg.size, m_hi - m_lo + 1)


BEFORE = {
    EIG: _matrix_order,
    "numerics.bisect": _count_evals,
    "numerics.golden_min": _count_evals,
}
AFTER = {
    "dispersion.theta": _theta_floor,
    "disk.dirac_spectrum": _spectrum_size,
}


class Tracer:
    """Records spans while installed; ``uninstall`` restores every binding."""

    def __init__(self):
        self.spans = []
        self.op = "setup"
        self._stack = []
        self._saved = []

    def install(self, modules):
        """Wrap the public functions of ``modules`` (layer name -> module)."""
        for caller, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                owner = getattr(obj, "__module__", None) or ""
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                layer = owner.rpartition(".")[2]
                if not owner.startswith(PACKAGE + ".") or layer not in modules:
                    continue
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, self._wrap(obj, f"{layer}.{obj.__name__}", caller))

    def uninstall(self):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def _wrap(self, fn, name, caller):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before, after = BEFORE.get(name), AFTER.get(name)

        def traced(*args, **kwargs):
            rec = [name, caller, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            if before is not None:
                args, kwargs = before(rec, args, kwargs)
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                after(rec, out, args, kwargs)
            return out

        return traced


def analyse(spans, loop_wall_s):
    """Per-layer metrics, per-operation eigensolve counts and tracer checks.

    Self time is a span's duration minus the durations of its direct
    children; spans are strictly nested because the program is single
    threaded.  Only spans inside operations count, except ``radial_phi``,
    whose lazy gauge set-up belongs to set-up time.
    """
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    self_s = dur[:]
    eig_below = [1 if s[0] == EIG else 0 for s in spans]
    for i in range(n - 1, -1, -1):  # children are appended after their parent
        p = spans[i][4]
        if p >= 0:
            self_s[p] -= dur[i]
            eig_below[p] += eig_below[i]

    def outermost(i):
        name, p = spans[i][0], spans[i][4]
        while p >= 0:
            if spans[p][0] == name:
                return False
            p = spans[p][4]
        return True

    in_op = [s[5] != "setup" for s in spans]

    def select(name, caller=None, ops_only=True):
        return [i for i in range(n) if spans[i][0] == name
                and (caller is None or spans[i][1] == caller)
                and (in_op[i] or not ops_only)]

    def busy(name, ops_only=True):
        return sum(dur[i] for i in select(name, ops_only=ops_only) if outermost(i))

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    eig = select(EIG)
    m["numerics.eig.calls"] = len(eig)
    m["numerics.eig.rows"] = sum(spans[i][6] for i in eig)
    m["numerics.eig.s"] = sum(dur[i] for i in eig)
    m["numerics.eig.us_per_row"] = 1e6 * ratio(m["numerics.eig.s"], m["numerics.eig.rows"])
    m["numerics.bisect.evals"] = sum(spans[i][6] for i in select("numerics.bisect"))
    m["numerics.golden.evals"] = sum(spans[i][6] for i in select("numerics.golden_min"))

    fiber_eig = select(EIG, caller="fiber")
    nu_k = select("fiber.nu_k")
    misses = sum(1 for i in nu_k if eig_below[i])
    m["fiber.eig.calls"] = len(fiber_eig)
    m["fiber.nu_k.calls"] = len(nu_k)
    m["fiber.fiber_eigs.calls"] = len(select("fiber.fiber_eigs"))
    m["fiber.values_cache.hit_ratio"] = ratio(len(nu_k) - misses, len(nu_k))

    m["dispersion.find_a0.s"] = busy("dispersion.find_a0")
    m["dispersion.find_a0.eig_calls"] = sum(eig_below[i] for i in select("dispersion.find_a0"))
    m["dispersion.nu_of_alpha.calls"] = len(select("dispersion.nu_of_alpha"))
    m["dispersion.nu_of_alpha.s"] = busy("dispersion.nu_of_alpha")
    m["dispersion.c_gamma.s"] = busy("dispersion.c_gamma")
    m["dispersion.c_gamma.eig_calls"] = sum(eig_below[i] for i in select("dispersion.c_gamma"))
    theta = select("dispersion.theta")
    m["dispersion.theta.calls"] = len(theta)
    m["dispersion.theta.s"] = busy("dispersion.theta")
    m["dispersion.theta.solves_per_point"] = ratio(sum(eig_below[i] for i in theta), len(theta))
    m["dispersion.theta.floor_hits"] = sum(1 for i in theta if spans[i][6])

    disk_eig = select(EIG, caller="disk")
    spectra = select("disk.dirac_spectrum")
    m["disk.eig.calls"] = len(disk_eig)
    m["disk.eig.rows"] = sum(spans[i][6] for i in disk_eig)
    m["disk.dirac_spectrum.s"] = busy("disk.dirac_spectrum")
    m["disk.dirac_spectrum.eig_calls"] = sum(eig_below[i] for i in spectra)
    sizes = [spans[i][6] for i in spectra if spans[i][6]]  # none when the call raised
    m["disk.solves_per_eigenvalue"] = ratio(
        m["disk.dirac_spectrum.eig_calls"], sum(values for values, _ in sizes)
    )
    m["disk.modes"] = sum(modes for _, modes in sizes)
    for fn in ("hardy_nu_k", "zigzag_spectrum", "dirac_radial_direct"):
        m[f"disk.{fn}.s"] = busy(f"disk.{fn}")
    m["disk.radial_phi.s"] = busy("disk.radial_phi", ops_only=False)

    m["constants.ck_constant.calls"] = len(select("constants.ck_constant"))
    for fn in ("ck_constant", "hardy_distance", "bargmann_distance"):
        m[f"constants.{fn}.s"] = busy(f"constants.{fn}")
    m["effective.qeff_general.calls"] = len(select("effective.qeff_general"))
    m["effective.qeff_general.s"] = busy("effective.qeff_general")
    m["effective.qeff_disk.s"] = busy("effective.qeff_disk")

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i in range(n):
        if in_op[i]:
            layer_self[spans[i][0].partition(".")[0]] += self_s[i]
    for layer, value in layer_self.items():
        m[f"{layer}.self_s"] = value

    errors = []
    total_self = sum(layer_self.values())
    if total_self > loop_wall_s * (1.0 + 1e-9):
        errors.append(
            f"per-layer self times sum to {total_self:.6f} s, more than the traced "
            f"wall time {loop_wall_s:.6f} s"
        )

    # eigensolves under each top-level call, per operation
    per_op = {}
    for i in range(n):
        if spans[i][4] == -1 and in_op[i]:
            calls = per_op.setdefault(str(spans[i][5]), {})
            calls[spans[i][0]] = calls.get(spans[i][0], 0) + eig_below[i]

    cache = {"hits": len(nu_k) - misses, "misses": misses}
    return m, errors, per_op, cache
