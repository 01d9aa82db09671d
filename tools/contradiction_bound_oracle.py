"""Independent oracle for the baseline negation fit's residual lower bound.

Recomputes, without importing the package, the least-squares residual of
the joint (value + function) negation constraint system on the default
demonstration sample set, using an explicit per-index row construction
and a normal-equations solve. The resulting residual, shaved by a
1e-6 relative margin to absorb solver rounding differences, is frozen
into tests/fixtures/contradiction_bound.json as the lower bound the
package's fitter must meet or exceed.

The sample set is regenerated here from its documented recipe (seed 0,
count 50, layout 4+2+2, noise 0.1, alpha 1) rather than imported, so the
oracle and the package share only the written contract. A SHA-256 over
the sample bytes is stored so the consuming test can prove both sides
generated identical data.

Run from the repository root:  python3 tools/contradiction_bound_oracle.py
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np

COUNT = 50
D_DOMAIN, D_STABLE, D_INVERTED = 4, 2, 2
N = D_DOMAIN + D_STABLE + D_INVERTED
SEED = 0
NOISE = 0.1
MU = 0.5
NU = 0.5
MARGIN = 1e-6

OUT = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "contradiction_bound.json"


def generate_samples():
    rng = np.random.default_rng(SEED)
    eye = np.eye(N)
    samples = []
    for _ in range(COUNT):
        while True:
            v = rng.uniform(-1.0, 1.0, N)
            if np.any(v):
                break
        while True:
            m = eye + NOISE * rng.standard_normal((N, N))
            if np.any(m) and not np.array_equal(m, eye):
                break
        samples.append((v, m))
    return samples


def negation_diag(mu):
    diag = np.ones(N)
    diag[D_DOMAIN + D_STABLE :] = -mu
    return diag


def sample_digest(samples):
    h = hashlib.sha256()
    for v, m in samples:
        h.update(np.ascontiguousarray(v).tobytes())
        h.update(np.ascontiguousarray(m).tobytes())
    return h.hexdigest()


def build_system(samples):
    """Rows over x = [M_not entries row-major (N*N), v_not (N)].

    Per sample: N once-negated value rows, N twice-negated value rows;
    then, after all value rows, per sample N*N function rows M_not = 0 and
    N*N rows 2*M_not = 0.
    """
    j_mu = negation_diag(MU)
    j_nu = negation_diag(NU)
    n_unknowns = N * N + N
    rows = []
    rhs = []
    for v, m in samples:
        once = j_mu * v
        for w, target in ((v, once), (once, j_nu * once)):
            for i in range(N):
                row = np.zeros(n_unknowns)
                for j in range(N):
                    row[i * N + j] = w[j]
                for k in range(N):
                    row[N * N + k] = m[i, k]
                rows.append(row)
                rhs.append(target[i])
    for _ in samples:
        for scale in (1.0, 2.0):
            for i in range(N):
                for j in range(N):
                    row = np.zeros(n_unknowns)
                    row[i * N + j] = scale
                    rows.append(row)
                    rhs.append(0.0)
    return np.array(rows), np.array(rhs)


def fixture():
    """The fixture dict that ``main`` writes to OUT."""
    samples = generate_samples()
    design, rhs = build_system(samples)
    gram = design.T @ design
    x = np.linalg.solve(gram, design.T @ rhs)
    residual = float(np.linalg.norm(design @ x - rhs))
    return {
        "description": (
            "Lower bound on the joint value+function baseline negation fit "
            "residual over the default demonstration sample set; computed by "
            "an independent normal-equations solve in "
            "tools/contradiction_bound_oracle.py"
        ),
        "params": {
            "count": COUNT,
            "layout": [D_DOMAIN, D_STABLE, D_INVERTED],
            "seed": SEED,
            "noise": NOISE,
            "mu": MU,
            "nu": NU,
            "margin": MARGIN,
        },
        "residual_normal_equations": residual,
        "lower_bound": residual * (1.0 - MARGIN),
        "sample_sha256": sample_digest(samples),
        "environment": {
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }


def main():
    data = fixture()
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    print(f"residual (normal equations): {data['residual_normal_equations']!r}")
    print(f"lower bound written to {OUT}: {data['lower_bound']!r}")


if __name__ == "__main__":
    main()
