#!/usr/bin/env python3
"""Plot the paper's figures from the CSVs under data/.

The analog of the PanguLU artifact's figureX.py scripts: run the Rust
experiments first (`cargo run --release -p pangulu-bench --bin
figures`), then

    python3 scripts/plot_figures.py [fig03|fig04|fig05|fig07|fig11|
                                     fig12|fig13|fig14|fig15|all]

PNGs land in figures/. Requires matplotlib (not needed by anything else
in this repository).
"""

import csv
import math
import os
import sys
from collections import defaultdict

import matplotlib

matplotlib.use("Agg")
import matplotlib.pyplot as plt  # noqa: E402

DATA = os.path.join(os.path.dirname(__file__), "..", "data")
OUT = os.path.join(os.path.dirname(__file__), "..", "figures")


def rows(name):
    with open(os.path.join(DATA, name + ".csv")) as f:
        return list(csv.DictReader(f))


def save(fig, name):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, name + ".png")
    fig.savefig(path, dpi=150, bbox_inches="tight")
    print("wrote", path)


def fig03():
    data = rows("fig03_supernode_sizes")
    matrices = sorted({r["matrix"] for r in data})
    fig, axes = plt.subplots(1, len(matrices), figsize=(6 * len(matrices), 5))
    for ax, m in zip(axes if len(matrices) > 1 else [axes], matrices):
        edges = [1, 2, 4, 8, 16, 32, 64, 128]
        grid = [[0] * len(edges) for _ in edges]
        for r in (r for r in data if r["matrix"] == m):
            ri = edges.index(int(r["rows_bin"]))
            ci = edges.index(int(r["cols_bin"]))
            grid[ci][ri] = int(r["count"])
        im = ax.imshow(grid, origin="lower", aspect="auto", cmap="YlOrRd")
        ax.set_xticks(range(len(edges)), [f"[{e},..)" for e in edges], rotation=45)
        ax.set_yticks(range(len(edges)), [f"[{e},..)" for e in edges])
        ax.set_xlabel("#rows of supernodes")
        ax.set_ylabel("#columns of supernodes")
        ax.set_title(m)
        fig.colorbar(im, ax=ax)
    fig.suptitle("Figure 3: supernode size distribution")
    save(fig, "fig03_supernode_sizes")


def fig04():
    data = rows("fig04_gemm_density")
    matrices = sorted({r["matrix"] for r in data})
    fig, axes = plt.subplots(1, len(matrices), figsize=(5 * len(matrices), 4))
    for ax, m in zip(axes, matrices):
        sub = [r for r in data if r["matrix"] == m]
        x = range(len(sub))
        for key, label in [("pct_A", "Matrix A"), ("pct_B", "Matrix B"), ("pct_C", "Matrix C")]:
            ax.plot(x, [float(r[key]) for r in sub], marker="o", label=label)
        ax.set_xticks(list(x), [r["density_bin"] for r in sub], rotation=45)
        ax.set_xlabel("Density (%)")
        ax.set_ylabel("Percentage (%)")
        ax.set_title(m)
        ax.legend()
    fig.suptitle("Figure 4: density of GEMM operand blocks")
    save(fig, "fig04_gemm_density")


def fig05():
    data = rows("fig05_sync_ratio")
    by_matrix = defaultdict(list)
    for r in data:
        by_matrix[r["matrix"]].append((int(r["ranks"]), float(r["sync_pct_of_numeric"])))
    fig, ax = plt.subplots(figsize=(9, 5))
    width = 0.12
    matrices = list(by_matrix)
    ranks = sorted({p for v in by_matrix.values() for p, _ in v})
    for i, p in enumerate(ranks):
        xs = range(len(matrices))
        ys = [dict(by_matrix[m]).get(p, 0.0) for m in matrices]
        ax.bar([x + i * width for x in xs], ys, width, label=f"{p}-process")
    ax.set_xticks([x + width * len(ranks) / 2 for x in range(len(matrices))], matrices, rotation=30)
    ax.set_ylabel("Synchronisation / Numeric factorisation (%)")
    ax.legend(ncol=4, fontsize=8)
    fig.suptitle("Figure 5: level-set synchronisation cost ratio")
    save(fig, "fig05_sync_ratio")


def fig07():
    data = rows("fig07_kernels")
    kernels = ["GETRF", "GESSM", "TSTRF", "SSSSM"]
    fig, axes = plt.subplots(2, 2, figsize=(12, 9))
    for ax, k in zip(axes.flat, kernels):
        sub = [r for r in data if r["kernel"] == k]
        for v in sorted({r["variant"] for r in sub}):
            pts = [(float(r["feature"]), float(r["seconds"]) * 1e3) for r in sub if r["variant"] == v]
            pts.sort()
            ax.scatter([p[0] for p in pts], [p[1] for p in pts], s=8, label=v, alpha=0.6)
        ax.set_xscale("log")
        ax.set_yscale("log")
        ax.set_xlabel("nnz" if k != "SSSSM" else "FLOPs")
        ax.set_ylabel("time (ms)")
        ax.set_title(k)
        ax.legend(fontsize=8)
    fig.suptitle("Figure 7: sparse kernel performance by variant")
    save(fig, "fig07_kernels")


def _bar_compare(name, title, a_key, b_key, a_label, b_label, ylabel):
    data = [r for r in rows(name) if r["matrix"] != "geomean"]
    fig, ax = plt.subplots(figsize=(10, 4))
    x = range(len(data))
    w = 0.38
    ax.bar([i - w / 2 for i in x], [float(r[a_key]) for r in data], w, label=a_label)
    ax.bar([i + w / 2 for i in x], [float(r[b_key]) for r in data], w, label=b_label)
    ax.set_xticks(list(x), [r["matrix"][:6] + "..." for r in data], rotation=30)
    ax.set_ylabel(ylabel)
    ax.legend()
    fig.suptitle(title)
    save(fig, name)


def fig11():
    _bar_compare(
        "fig11_symbolic",
        "Figure 11: symbolic factorisation time",
        "superlu_style_s",
        "pangulu_s",
        "SuperLU-style (GP)",
        "PanguLU (symmetric pruning)",
        "Symbolic time (s)",
    )


def fig12():
    data = rows("fig12_scaling")
    matrices = sorted({r["matrix"] for r in data})
    cols = 4
    rowsn = math.ceil(len(matrices) / cols)
    fig, axes = plt.subplots(rowsn, cols, figsize=(4.2 * cols, 3.2 * rowsn))
    for ax, m in zip(axes.flat, matrices):
        for plat, style in [("A100-class", "-"), ("MI50-class", "--")]:
            sub = [r for r in data if r["matrix"] == m and r["platform"] == plat]
            sub.sort(key=lambda r: int(r["ranks"]))
            xs = [int(r["ranks"]) for r in sub]
            ax.plot(xs, [float(r["pangulu_gflops"]) for r in sub], "b" + style, label=f"PanguLU ({plat[:4]})")
            ax.plot(xs, [float(r["supernodal_gflops"]) for r in sub], "r" + style, label=f"Supernodal ({plat[:4]})")
        ax.set_xscale("log", base=2)
        ax.set_title(m, fontsize=9)
        ax.set_xlabel("ranks")
        ax.set_ylabel("GFlops")
    for ax in axes.flat[len(matrices):]:
        ax.axis("off")
    axes.flat[0].legend(fontsize=7)
    fig.suptitle("Figure 12: numeric factorisation scalability (DES)")
    fig.tight_layout()
    save(fig, "fig12_scaling")


def fig13():
    _bar_compare(
        "fig13_sync128",
        "Figure 13: synchronisation time on 128 ranks (DES)",
        "supernodal_sync_s",
        "pangulu_sync_s",
        "Level-set supernodal",
        "PanguLU sync-free",
        "Sync time (s)",
    )


def fig14():
    data = [r for r in rows("fig14_ablation") if r["matrix"]]
    fig, ax = plt.subplots(figsize=(11, 4))
    x = range(len(data))
    w = 0.28
    ax.bar([i - w for i in x], [1.0] * len(data), w, label="Baseline")
    ax.bar(list(x), [float(r["kernel_selection"]) for r in data], w, label="Kernel selection")
    ax.bar(
        [i + w for i in x],
        [float(r["kernel_selection_and_syncfree"]) for r in data],
        w,
        label="Kernel selection & sync-free",
    )
    ax.set_xticks(list(x), [r["matrix"][:6] + "..." for r in data], rotation=30)
    ax.set_ylabel("Speedup")
    ax.legend()
    fig.suptitle("Figure 14: optimisation ablation")
    save(fig, "fig14_ablation")


def fig15():
    _bar_compare(
        "fig15_preprocess",
        "Figure 15: preprocessing time",
        "supernodal_s",
        "pangulu_s",
        "Supernodal",
        "PanguLU",
        "Preprocess time (s)",
    )


def weak_scaling():
    data = rows("weak_scaling")
    fig, ax = plt.subplots(figsize=(6, 4))
    xs = [int(r["ranks"]) for r in data]
    ax.plot(xs, [float(r["syncfree_efficiency"]) for r in data], "b-o", label="sync-free")
    ax.plot(xs, [float(r["levelset_efficiency"]) for r in data], "r--s", label="level-set")
    ax.set_xscale("log", base=2)
    ax.set_xlabel("ranks (problem grows with p)")
    ax.set_ylabel("per-rank throughput vs 1 rank")
    ax.legend()
    fig.suptitle("Weak scaling (extension study)")
    save(fig, "weak_scaling")


def mapping():
    data = rows("mapping_study")
    matrices = sorted({r["matrix"] for r in data})
    fig, axes = plt.subplots(1, len(matrices), figsize=(5 * len(matrices), 4))
    for ax, m in zip(axes if len(matrices) > 1 else [axes], matrices):
        sub = [r for r in data if r["matrix"] == m]
        mappings = ["1d_row", "1d_col", "2d_cyclic", "2d_balanced"]
        for p in sorted({int(r["ranks"]) for r in sub}):
            ys = [
                next(float(r["simulated_s"]) for r in sub if r["mapping"] == mp and int(r["ranks"]) == p)
                for mp in mappings
            ]
            ax.plot(range(len(mappings)), ys, marker="o", label=f"{p} ranks")
        ax.set_xticks(range(len(mappings)), mappings, rotation=20)
        ax.set_yscale("log")
        ax.set_ylabel("simulated time (s)")
        ax.set_title(m)
        ax.legend()
    fig.suptitle("Mapping study (extension): layout vs simulated makespan")
    save(fig, "mapping_study")


def timeline():
    data = rows("timeline_sync_free")
    fig, ax = plt.subplots(figsize=(10, 4))
    colors = {"GETRF": "tab:red", "GESSM": "tab:blue", "TSTRF": "tab:green", "SSSSM": "tab:orange"}
    for r in data:
        ax.barh(
            int(r["rank"]),
            float(r["end_s"]) - float(r["start_s"]),
            left=float(r["start_s"]),
            height=0.8,
            color=colors[r["kernel"]],
            linewidth=0,
        )
    ax.set_xlabel("time (s)")
    ax.set_ylabel("rank")
    handles = [plt.Rectangle((0, 0), 1, 1, color=c) for c in colors.values()]
    ax.legend(handles, colors.keys(), fontsize=8)
    fig.suptitle("Execution timeline (sync-free)")
    save(fig, "timeline_sync_free")


ALL = {
    "fig03": fig03,
    "fig04": fig04,
    "fig05": fig05,
    "fig07": fig07,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "fig15": fig15,
    "weak": weak_scaling,
    "mapping": mapping,
    "timeline": timeline,
}


def main():
    want = sys.argv[1] if len(sys.argv) > 1 else "all"
    targets = ALL.values() if want == "all" else [ALL[want]]
    for f in targets:
        try:
            f()
        except FileNotFoundError as e:
            print(f"skipping {f.__name__}: {e} (run the bench generators first)")


if __name__ == "__main__":
    main()
