"""Deblurring as a tensor linear system.

Blurring a stack of images with one convolution kernel is a t-product:
frontal slice k of the operator is the circulant matrix of kernel column
k, and image j is stored down lateral slice j.  Solving the system
deblurs every image at once.
"""

import numpy as np

from tubalsketch import SolverConfig, make_slice_sketches, solve, tprod
from tubalsketch.harness import (
    ProblemSpec,
    gaussian_kernel,
    gen_deblur,
    relative_error,
)

spec = ProblemSpec(kind="deblur", image_size=32, num_images=3,
                   kernel_size=5, kernel_sigma=2.0, seed=8)
A, x_star, B = gen_deblur(spec)
pad = A.shape[0]
print(f"operator: {A.shape[0]}x{A.shape[1]}x{A.shape[2]} "
      f"(images padded from {spec.image_size} to {pad})")

print("\n== operator sanity: it really is a 2-D circular convolution ==")
kernel = np.zeros((pad, pad))
kernel[:spec.kernel_size, :spec.kernel_size] = gaussian_kernel(
    spec.kernel_size, spec.kernel_sigma
)
img = x_star[:, 0, :].T
blurred = tprod(A, x_star)[:, 0, :].T
direct = np.zeros_like(img)  # shift-and-add: each kernel entry moves the image
for a, b in zip(*np.nonzero(kernel.T)):
    direct += kernel.T[a, b] * np.roll(img, (a, b), axis=(0, 1))
print(f"  t-product vs direct convolution: "
      f"{np.linalg.norm(blurred - direct) / np.linalg.norm(direct):.2e}")

print("\n== deblurring by greedy sketch-and-project ==")
sketches = make_slice_sketches(pad, pad)
cfg = SolverConfig(method="ATSP-MD", sketches=sketches, tol=0.005, seed=9,
                   max_iters=60_000, record_every=1000)
X, record = solve(A, B, cfg, x_star=x_star)
print(f"  reached relative error {record.epsilon[-1]:.4f} "
      f"in {record.iterations} iterations")
print(f"  recovered image error: {relative_error(X, x_star):.4f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 3, figsize=(9, 3))
    s = spec.image_size
    for ax, data, title in zip(
        axes,
        (x_star[:, 0, :].T[:s, :s], B[:, 0, :].T[:s, :s], X[:, 0, :].T[:s, :s]),
        ("original", "blurred", "recovered"),
    ):
        ax.imshow(data, cmap="gray")
        ax.set_title(title)
        ax.axis("off")
    fig.tight_layout()
    fig.savefig("deblur_demo.png", dpi=120)
    print("  wrote deblur_demo.png")
except ImportError:
    print("  (matplotlib not installed; skipping the picture)")
