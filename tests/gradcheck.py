"""Central finite-difference oracle used by gradient tests.

Independent of the autodiff engine: it perturbs raw numpy arrays and
re-evaluates a scalar-valued closure.
"""

import numpy as np

EPS = 1e-4
TOL = 1e-3


def numeric_gradient(f, arrays, eps=EPS):
    """d f / d a for each array in `arrays`, via central differences.

    `f` takes no arguments and reads the arrays in place; each entry is
    nudged by +-eps and restored.
    """
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f()
            flat[i] = orig - eps
            lo = f()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * eps)
        grads.append(g)
    return grads


def channels_last(a):
    """A (B, C, ...) array with its channel axis moved last, made contiguous so
    that the in-place nudges of `numeric_gradient` reach the data."""
    return np.ascontiguousarray(np.moveaxis(a, 1, -1))


def max_rel_error(analytic, numeric):
    """Worst elementwise |a - n| / max(|a|, |n|, 1)."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1.0)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def check_gradients(build_loss, leaves, eps=EPS, tol=TOL):
    """Assert analytic gradients of `build_loss()` match finite differences.

    `leaves` are the Tensors to differentiate; `build_loss` must rebuild
    the graph from their current .data on every call.
    """
    loss = build_loss()
    for leaf in leaves:
        leaf.grad = None
    loss.backward()
    analytic = [leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
                for leaf in leaves]
    numeric = numeric_gradient(lambda: build_loss().item(), [leaf.data for leaf in leaves], eps)
    err = max_rel_error(analytic, numeric)
    assert err < tol, f"gradient mismatch: max rel error {err:.3e} >= {tol}"
    return err
