"""The benchmark tracer must find every name it wraps in the package.

``perfbench/tracer.py`` replaces functions by name in the milsde modules
that look them up.  A refactor that drops or renames one of those names
breaks every traced benchmark run; this test shows it in about a second.
A traced call must also still attribute its work to the right spans.
"""

import ast
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the package as a benchmark call imports it: the CLI pulls in every module
_INSTALL = """
import milsde
import milsde.cli
from tracer import SITES, Tracer
Tracer().install(milsde)
print(len(SITES))
"""


def test_tracer_installs_on_the_package():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", _INSTALL], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0


def test_traced_lemma_check_attributes_draws_and_quartic_products(tmp_path):
    # the benchmark's own child process, traced: every oracle normal is
    # counted by the rng span, and the quartic products have their own span
    n, fine_factor, n_paths = 8, 4, 50
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    argv = [sys.executable, os.path.join(ROOT, "perfbench", "child.py"), str(result),
            repr(time.monotonic()), "1", "lemma-check", "--case", "7.3", "--n", str(n),
            "--fine-factor", str(fine_factor), "--paths", str(n_paths), "--seed", "1",
            "--out", str(tmp_path / "report")]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(result.read_text())["layers"]
    assert layers["rng.normals"] == n_paths * n * fine_factor * 4
    assert layers["oracles.quartic_time_average.calls"] >= 1


def test_traced_error_law_forms_limit_increments_per_time_block(tmp_path):
    # the scheme side draws one normal per path and fine cell; the limit side
    # one per draw and cell for W and each B^{pij}, and none for Wbar, since
    # gbm is affine and error-law reads no fingerprints.  Its 32.8 MB of
    # noise are drawn in two time blocks of the 16 MB budget, each stream
    # drawn on from where the first block stopped, so the exact count covers
    # the carried streams.  dM is formed per time block inside U, never for
    # a whole chunk.  The tracer wraps the limit side by the names
    # limits looks up, so each of its sites records calls; the scheme side
    # calls the reference once for its one chunk, the limit side once per
    # block of U's steps, and the auxiliary noise is sampled per time block.
    # Y is assembled by build_driver on both sides: once for the scheme
    # side's one block of paths (W alone, since gbm's Y is its W: 129 nodes,
    # 1032 bytes a path, so 2032 paths fill a block) and once per time block
    # of the limit side.  gbm's driver is scalar, so its Milstein step forms
    # each cell's K from its own dY: no sub-grid K pass runs
    n, fine_factor, fine_count, n_paths, draws, m = 16, 8, 2048, 1000, 1000, 1
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    argv = [sys.executable, os.path.join(ROOT, "perfbench", "child.py"), str(result),
            repr(time.monotonic()), "1", "error-law", "--model", "gbm", "--n", str(n),
            "--fine-factor", str(fine_factor), "--fine-count", str(fine_count),
            "--paths", str(n_paths), "--draws", str(draws), "--seed", "2",
            "--out", str(tmp_path / "report")]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode in (0, 1), proc.stderr
    layers = json.loads(result.read_text())["layers"]
    assert layers["rng.normals"] == n_paths * n * fine_factor + draws * fine_count * (1 + m ** 3)
    for site in ("limits.sample_aux", "limits.simulate_mn", "limits.simulate_u",
                 "schemes.reference"):
        assert layers[f"{site}.calls"] >= 1, site
    assert layers["limits.simulate_u.calls"] == 1
    assert layers["limits.sample_aux.calls"] == 2
    assert layers["paths.build_driver.calls"] == 1 + layers["limits.sample_aux.calls"]
    assert layers["schemes.reference.calls"] > 2
    assert layers["limits.mn_mb"] < draws * fine_count * 8 / (1 << 20)
    assert layers["schemes.milstein.calls"] == 1
    assert layers["schemes.iterated_integrals.calls"] == 0
    assert layers["schemes.k_fine_cells"] == 0


def test_traced_limit_sim_draws_wbar_for_its_fingerprints(tmp_path):
    # limit-sim reads the fingerprints of dN, so on gbm too it draws one
    # normal per draw and cell for W, each B^{pij} and each Wbar^p, in one
    # time block of 2.4 MB
    fine_count, draws, m = 1024, 100, 1
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    argv = [sys.executable, os.path.join(ROOT, "perfbench", "child.py"), str(result),
            repr(time.monotonic()), "1", "limit-sim", "--model", "gbm", "--fine-count",
            str(fine_count), "--draws", str(draws), "--seed", "1",
            "--out", str(tmp_path / "report")]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(result.read_text())["layers"]
    assert layers["rng.normals"] == draws * fine_count * (1 + m ** 3 + m)
    assert layers["limits.sample_aux.calls"] == 1


def _traced_rate(tmp_path, model, scheme, n_list, n_paths):
    """The layers of a traced ``rate`` run at fine factor 8 and seed 1."""
    result = tmp_path / f"result-{model}-{scheme}.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    argv = [sys.executable, os.path.join(ROOT, "perfbench", "child.py"), str(result),
            repr(time.monotonic()), "1", "rate", "--model", model, "--scheme",
            scheme, "--n-list", ",".join(map(str, n_list)), "--fine-factor", "8",
            "--paths", str(n_paths), "--seed", "1",
            "--out", str(tmp_path / f"report-{model}-{scheme}")]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode in (0, 1), proc.stderr
    return json.loads(result.read_text())["layers"]


def test_traced_rate_attributes_steps_corrections_and_k(tmp_path):
    # the scheme side of a rate fit: one Milstein run per chunk and n, one
    # correction per coarse step, and the reference once per block of
    # paths, and so is Y's assembly: a block holds W and the two-channel Y of
    # 1025 fine nodes, 24600 bytes a path, so 85 paths fill its 2 MB and a
    # chunk of 1000 has 12.  gbm-drift's field is commutative, so Milstein's
    # step forms each cell's K from its own dY: no sub-grid K pass runs.
    # milstein54 on the same config, and Milstein on ou, whose field is not
    # commutative, form the sub-grid K once per block of paths: 24 passes
    n_list, n_paths, chunks, blocks = (16, 32, 64, 128), 2000, 2, 12
    layers = _traced_rate(tmp_path, "gbm-drift", "milstein", n_list, n_paths)
    assert layers["schemes.steps"] == n_paths * sum(n_list)
    assert layers["schemes.milstein.calls"] == chunks * len(n_list)
    assert layers["model.correction_pairing.calls"] == chunks * sum(n_list)
    assert layers["schemes.iterated_integrals.calls"] == 0
    assert layers["schemes.k_fine_cells"] == 0
    assert layers["schemes.reference.calls"] == chunks * blocks
    assert layers["paths.build_driver.calls"] == chunks * blocks
    for model, scheme in (("gbm-drift", "milstein54"), ("ou", "milstein")):
        layers = _traced_rate(tmp_path, model, scheme, n_list, n_paths)
        assert layers["schemes.iterated_integrals.calls"] == chunks * blocks == 24, model
        assert layers["schemes.k_fine_cells"] == n_paths * max(n_list) * 8, model
        assert layers["paths.build_driver.calls"] == chunks * blocks, model


def _tracer_sites():
    spec = importlib.util.spec_from_file_location(
        "tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {(module, attr) for sites in tracer.SITES.values() for module, attr, *_ in sites}


def test_every_unused_sibling_import_is_a_tracer_site():
    # a name a module imports from a sibling and never reads is there only
    # for the tracer to wrap; any other is stale, left behind by a refactor.
    # The package's __init__ imports to re-export, so it is not checked
    sites, stale = _tracer_sites(), []
    for path in sorted(pathlib.Path(ROOT, "src", "milsde").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    name = alias.asname or alias.name
                    if name not in read and (path.stem, name) not in sites:
                        stale.append(f"{path.stem}: {name}")
    assert not stale
