"""Output checks against references that share no code with nepoll.

Each check function reads one iteration's output directory and returns
``(name, ok, detail)`` triples.  The references are plain numpy, scipy's
ARPACK eigensolver and networkx; the files are parsed here again, without
nepoll's readers.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path

import numpy as np

Check = tuple[str, bool, str]

# A sweep row fails when its empirical bias or MSE lies further than this
# many standard errors from the exact column.  Over 32 rows the chance that
# a correct program trips it is below 1e-4.
Z_LIMIT = 5.0


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


class Dataset:
    """An edge list and label file parsed with numpy alone."""

    def __init__(self, edge_path: Path, label_path: Path):
        raw = np.loadtxt(edge_path, dtype=np.int64, comments="#", ndmin=2)
        self.ids, compact = np.unique(raw, return_inverse=True)
        compact = compact.reshape(raw.shape)
        self.u, self.v = compact[:, 0], compact[:, 1]
        self.n = len(self.ids)
        self.m = len(raw)
        self.deg = np.bincount(compact.ravel(), minlength=self.n)
        lab = np.loadtxt(label_path, dtype=np.int64, comments="#", ndmin=2)
        self.labels = np.zeros(self.n, dtype=np.int64)
        self.labels[np.searchsorted(self.ids, lab[:, 0])] = lab[:, 1]
        self.labeled = len(lab)

    def networkx(self):
        import networkx as nx
        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(zip(self.u.tolist(), self.v.tolist()))
        return g

    def mean_degrees(self) -> tuple[float, float, float]:
        d = self.deg.astype(float)
        nbr_sum = (np.bincount(self.u, weights=d[self.v], minlength=self.n)
                   + np.bincount(self.v, weights=d[self.u], minlength=self.n))
        return (d.sum() / self.n, float((d * d).sum() / d.sum()),
                float(np.mean(nbr_sum / d)))

    def degree_label_corr(self) -> float:
        return float(np.corrcoef(self.deg, self.labels)[0, 1])

    def lambda2(self) -> float:
        """Second largest |eigenvalue| of D^-1/2 A D^-1/2 (ARPACK)."""
        from scipy.sparse import coo_matrix
        from scipy.sparse.linalg import eigsh
        scale = 1.0 / np.sqrt(self.deg.astype(float))
        w = scale[self.u] * scale[self.v]
        mat = coo_matrix((np.concatenate([w, w]),
                          (np.concatenate([self.u, self.v]),
                           np.concatenate([self.v, self.u]))),
                         shape=(self.n, self.n)).tocsr()
        v0 = np.random.default_rng(0).random(self.n)
        vals = eigsh(mat, k=2, which="LM", v0=v0, tol=1e-12,
                     return_eigenvectors=False)
        return float(np.sort(np.abs(vals))[0])


def parse_colon_lines(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


# --- sweep-n20k -------------------------------------------------------------

def _mse_se(bias: float, var: float, budget: int, reps: int) -> float:
    """Standard error of the empirical MSE, from the exact moments alone.

    With X = estimate - truth, a mean of ``budget`` iid responses in [0, 1]
    with bias b and variance v, the central third and fourth moments of one
    response are at most its variance, which bounds
    Var(X^2) <= 4 b^2 v + 2 v^2 + 4 |b| v / budget + v / budget^2.
    """
    var_sq = (4 * bias * bias * var + 2 * var * var
              + 4 * abs(bias) * var / budget + var / budget ** 2)
    return math.sqrt(var_sq / reps)


def check_sweep(d: Path, params: dict, facts: dict) -> list[Check]:
    with open(d / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    expected = [(k, b) for k in params["estimators"]
                for b in params["budgets"]]
    got = [(r["estimator"], int(r["budget"])) for r in rows]
    checks: list[Check] = [("sweep_rows", got == expected,
                            f"{len(rows)} rows, expected {len(expected)}")]
    exact_cols = ("exact_bias", "exact_var", "exact_mse")
    blank = [f"{r['estimator']}@{r['budget']}" for r in rows
             if any(r[c] == "" for c in exact_cols)]
    # RW ran, so the graph is connected; a generated graph with triangles is
    # not bipartite, so the README promises every exact column is filled.
    checks.append(("sweep_exact_columns_filled", not blank,
                   f"blank: {blank}" if blank else "all rows"))
    if blank or got != expected:
        return checks
    reps = params["replications"]
    worst_bias = worst_mse = 0.0
    for r in rows:
        bias, var, mse = (float(r[c]) for c in exact_cols)
        se_bias = math.sqrt(var / reps)
        se_mse = _mse_se(bias, var, int(r["budget"]), reps)
        worst_bias = max(worst_bias,
                         abs(float(r["emp_bias"]) - bias) / se_bias)
        worst_mse = max(worst_mse, abs(float(r["emp_mse"]) - mse) / se_mse)
    checks.append(("sweep_emp_bias_within_se", worst_bias <= Z_LIMIT,
                   f"worst row {worst_bias:.2f} SE (limit {Z_LIMIT})"))
    checks.append(("sweep_emp_mse_within_se", worst_mse <= Z_LIMIT,
                   f"worst row {worst_mse:.2f} SE (limit {Z_LIMIT})"))
    return checks


# --- report-spectral --------------------------------------------------------

def _check_report(name: str, rep: dict[str, str], ds: Dataset) -> list[Check]:
    import networkx as nx
    g = ds.networkx()
    checks: list[Check] = []

    def add(key: str, ok: bool, detail: str) -> None:
        checks.append((f"report_{name}_{key}", ok, detail))

    add("counts", int(rep["nodes"]) == ds.n and int(rep["edges"]) == ds.m,
        f"nodes {rep['nodes']} vs {ds.n}, edges {rep['edges']} vs {ds.m}")
    add("flags",
        rep["connected"] == str(nx.is_connected(g)).lower()
        and rep["bipartite"] == str(nx.is_bipartite(g)).lower(),
        f"connected {rep['connected']}, bipartite {rep['bipartite']}")
    ref = ds.mean_degrees()
    got = tuple(float(rep[k]) for k in ("mean_degree_uniform",
                                        "mean_degree_friend",
                                        "mean_degree_neighbor"))
    add("mean_degrees", all(_close(a, b, 1e-9) for a, b in zip(got, ref)),
        f"{got} vs numpy {tuple(map(float, ref))}")
    r_ref = nx.degree_assortativity_coefficient(g)
    add("assortativity", _close(float(rep["assortativity"]), r_ref, 1e-8),
        f"{rep['assortativity']} vs networkx {r_ref!r}")
    lam2, lam_ref = float(rep["lambda2"]), ds.lambda2()
    add("lambda2", _close(lam2, lam_ref, 1e-8),
        f"{lam2!r} vs eigsh {lam_ref!r}")
    lam_n = float(rep["lambda_n"])
    add("lambda_n_range", -1e-12 <= lam_n <= lam2 + 1e-12,
        f"{lam_n!r} in [0, {lam2!r}]")
    rho_ref = ds.degree_label_corr()
    add("degree_label_corr",
        _close(float(rep["degree_label_corr"]), rho_ref, 1e-9)
        and _close(float(rep["true_fraction"]), ds.labels.mean(), 1e-12),
        f"{rep['degree_label_corr']} vs numpy {rho_ref!r}")
    return checks


def check_report(d: Path, params: dict, facts: dict) -> list[Check]:
    checks: list[Check] = []
    for name in params:
        rep = parse_colon_lines(d / f"report_{name}.txt")
        ds = Dataset(d / f"{name}.edges", d / f"{name}.labels")
        checks += _check_report(name, rep, ds)
    return checks


# --- generate-load-n200k ----------------------------------------------------

def _header_numbers(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return re.findall(r"[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?",
                          fh.readline())


def check_generate(d: Path, params: dict, facts: dict) -> list[Check]:
    import networkx as nx
    printed = parse_colon_lines(d / "generate.out")
    ds = Dataset(d / "big.edges", d / "big.labels")
    g = ds.networkx()
    checks: list[Check] = []
    rkk, rkk_ref = float(printed["achieved_rkk"]), \
        nx.degree_assortativity_coefficient(g)
    checks.append(("generate_rkk",
                   _close(rkk, rkk_ref, 1e-8)
                   and abs(rkk_ref - params["rkk"]) <= params["rkk_tol"],
                   f"printed {rkk!r}, networkx {rkk_ref!r}, target "
                   f"{params['rkk']} +- {params['rkk_tol']}"))
    rho, rho_ref = float(printed["achieved_rho"]), ds.degree_label_corr()
    checks.append(("generate_rho",
                   _close(rho, rho_ref, 1e-9)
                   and abs(rho_ref - params["rho"]) <= params["rho_tol"],
                   f"printed {rho!r}, numpy {rho_ref!r}, target "
                   f"{params['rho']} +- {params['rho_tol']}"))
    nodes_hdr, edges_hdr = map(int, _header_numbers(d / "big.edges")[:2])
    fraction_hdr = float(_header_numbers(d / "big.labels")[-1])
    checks.append(("load_nodes", facts["nodes"] == ds.n == nodes_hdr
                   == params["n"],
                   f"loaded {facts['nodes']}, parsed {ds.n}, header "
                   f"{nodes_hdr}, requested {params['n']}"))
    checks.append(("load_degree_sum",
                   facts["degree_sum"] == 2 * ds.m == 2 * edges_hdr,
                   f"loaded {facts['degree_sum']}, parsed 2*{ds.m}, header "
                   f"2*{edges_hdr}"))
    checks.append(("load_label_fraction",
                   facts["defaulted"] == 0 and ds.labeled == ds.n
                   and facts["label_fraction"] == fraction_hdr
                   and _close(facts["label_fraction"], ds.labels.mean(),
                              1e-12),
                   f"loaded {facts['label_fraction']!r}, header "
                   f"{fraction_hdr!r}, parsed {float(ds.labels.mean())!r}"))
    checks.append(("load_flags",
                   facts["connected"] == nx.is_connected(g)
                   and facts["bipartite"] == nx.is_bipartite(g),
                   f"connected {facts['connected']}, "
                   f"bipartite {facts['bipartite']}"))
    return checks


CHECKS = {
    "sweep-n20k": check_sweep,
    "report-spectral": check_report,
    "generate-load-n200k": check_generate,
}
