#!/usr/bin/env python3
"""The reverse-mode engine underneath the trainable pipeline.

Builds a small expression, backpropagates, and checks two gradients against
central finite differences; then runs the packaged whole-model check that
differentiates the entire enhancement graph parameter by parameter.
"""

import numpy as np

from nkf import autodiff as ad
from nkf.enhancer import gradient_check

rng = np.random.default_rng(5)
x = ad.DiffArray(rng.standard_normal((3, 4)))
w = ad.DiffArray(rng.standard_normal((4, 2)))
b = ad.DiffArray(rng.standard_normal(2))
target = rng.standard_normal((3, 2))

# one dense layer, softplus(x @ w + b), as one node
loss = ad.mean_square(ad.dense(x, w, b, "softplus"), ad.lift(target))
loss.backward()
print(f"loss value: {float(loss.values):.6f}")

step = 1e-6
flat = w.values.reshape(-1)
for idx in (0, 5):
    saved = flat[idx]
    flat[idx] = saved + step
    with ad.no_grad():
        up = float(ad.mean_square(ad.dense(x, w, b, "softplus"),
                                  ad.lift(target)).values)
    flat[idx] = saved - step
    with ad.no_grad():
        down = float(ad.mean_square(ad.dense(x, w, b, "softplus"),
                                    ad.lift(target)).values)
    flat[idx] = saved
    numeric = (up - down) / (2 * step)
    analytic = w.grad.reshape(-1)[idx]
    print(f"dloss/dw[{idx}]: analytic {analytic:+.8f}, "
          f"finite difference {numeric:+.8f}")

print("\nwhole-pipeline gradient check (tiny model, every parameter):")
print(f"  max relative error: {gradient_check(seed=0):.3e}")
