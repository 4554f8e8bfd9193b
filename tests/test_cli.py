import json
import math
import sys

import pytest

from fluxholo import FluxConfig, curvature_abelian, validate
from fluxholo import cli, config, transport
from fluxholo.cli import main
from fluxholo.errors import CoincidentFluxons


def write_config(tmp_path, fluxes, positions, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps({
        "fluxes": list(fluxes),
        "positions": [[z.real, z.imag] for z in map(complex, positions)],
    }))
    return str(p)


def run(args, tmp_path, out_name="out.json"):
    out = tmp_path / out_name
    code = main(["--output", str(out), *args])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


class TestModes:
    def test_two_cluster_critical_config(self, tmp_path):
        pos = [0, 0.4 + 0.1j, 0.2 + 0.35j, 5, 5.4 + 0.1j, 5.2 + 0.35j, 5.1 - 0.3j]
        cfg = write_config(tmp_path, [1] * 7, pos)
        code, doc = run(["modes", cfg], tmp_path)
        assert code == 0
        assert doc["D"] == 6
        assert all(f["class"] == "critical" for f in doc["fluxons"])

    def test_no_zero_modes(self, tmp_path):
        cfg = write_config(tmp_path, [0.5], [0.0])
        code, doc = run(["modes", cfg], tmp_path)
        assert code == 0
        assert doc["D"] == 0
        assert doc["note"] == "no zero modes"

    def test_two_subcritical(self, tmp_path):
        cfg = write_config(tmp_path, [0.9, 0.9], [0.0, 1.0])
        code, doc = run(["modes", cfg], tmp_path)
        assert code == 0 and doc["D"] == 1

    @pytest.mark.parametrize("data", [
        {"fluxes": 0.5, "positions": [[0.0, 0.0]]},
        {"fluxes": [0.5], "positions": ["ab"]},
        {"fluxes": [0.5], "positions": [[1.0, "x"]]},
        [[0.0, 0.0], [1.0, 0.0]],
        {"fluxes": [True, 0.5], "positions": [[0.0, 0.0], [1.0, 0.0]]},
    ])
    def test_malformed_config_rejected(self, tmp_path, data):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        code, _ = run(["modes", str(cfg)], tmp_path)
        assert code == 2


class TestMetric:
    def test_both_methods_close(self, tmp_path):
        cfg = write_config(tmp_path, [0.5, 0.5, 0.5], [0.0, 1.0, 0.5 + 0.6j])
        code, doc = run(["metric", cfg], tmp_path)
        assert code == 0
        assert doc["relative_discrepancy"] < 1e-5
        assert doc["elliptic_convention"] == "parameter-m"

    def test_factorized_only(self, tmp_path):
        cfg = write_config(tmp_path, [0.7, 0.8], [0.0, 0.3 + 1.0j])
        code, doc = run(["metric", cfg, "--factorized-only"], tmp_path)
        assert code == 0
        assert "bruteforce" not in doc

    def test_near_threshold_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, [0.9995, 1.0003], [0.0, 1.0 + 0.5j])
        code, _ = run(["metric", cfg], tmp_path)
        assert code == 2
        assert "1.9998" in capsys.readouterr().err  # message names the total flux


class TestCurvatureMap:
    def test_two_fluxon_map_is_flat(self, tmp_path):
        cfg = write_config(tmp_path, [0.7, 0.8], [0.0, 0.3 + 1.0j])
        out = tmp_path / "map.csv"
        code = main(["--output", str(out), "curvature-map", cfg,
                     "--mover", "1", "--grid", "1.2:2.0:3,0.8:1.4:3"])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,y,R"
        vals = [float(l.split(",")[2]) for l in lines[1:]]
        assert all(abs(v) < 1e-6 for v in vals if not math.isnan(v))

    def test_rows_equal_curvature_abelian(self, tmp_path):
        # the cells run in batches; a cell's value is the library's
        # curvature_abelian at the CLI's quad_tol, to the printed digit
        fluxes, base = [0.5, 0.5, 0.5], [0.0, 1.0, 0.4 + 0.5j]
        cfg = write_config(tmp_path, fluxes, base)
        out = tmp_path / "map.csv"
        code = main(["--output", str(out), "curvature-map", cfg,
                     "--mover", "2", "--grid", "0.2:0.8:3,0.3:0.9:2"])
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        cells = [complex(0.2 + (0.8 - 0.2) * ix / 2, 0.3 + (0.9 - 0.3) * iy / 1)
                 for iy in range(2) for ix in range(3)]
        assert len(rows) == len(cells)
        for row, u in zip(rows, cells):
            vc = validate(FluxConfig([0.0, 1.0, u], fluxes))
            r = curvature_abelian(vc, moving=2, quad_tol=1e-8).real
            assert row == f"{u.real:.10g},{u.imag:.10g},{r:.12g}"

    def test_chunked_map_equals_single_cells(self, tmp_path):
        # 20 grid points: the guarded one (1, 1/30) falls in the middle of
        # a chunk, and the 19 computed cells end in a partial chunk
        fluxes, base = [0.5, 0.5, 0.5], [0.0, 1.0, 0.4 + 0.5j]
        cfg = write_config(tmp_path, fluxes, base)
        out = tmp_path / "map.csv"
        code = main(["--output", str(out), "--collision-guard", "0.06", "curvature-map",
                     cfg, "--mover", "2", "--grid=0.8:1.2:5,-0.1:0.3:4"])
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        grid = [complex(0.8 + (1.2 - 0.8) * ix / 4, -0.1 + (0.3 + 0.1) * iy / 3)
                for iy in range(4) for ix in range(5)]
        computed = [u for u in grid if abs(u - 1.0) > 0.06]
        assert [i for i, u in enumerate(grid) if u not in computed] == [7]
        chunks = [computed[lo:lo + cli.CURVATURE_CHUNK]
                  for lo in range(0, len(computed), cli.CURVATURE_CHUNK)]
        assert len(chunks) > 1 and len(chunks[-1]) < cli.CURVATURE_CHUNK
        assert any(grid.index(c[0]) < 7 < grid.index(c[-1]) for c in chunks)
        single = {}
        for u in computed:
            vc = validate(FluxConfig([0.0, 1.0, u], fluxes))
            single[u] = curvature_abelian(vc, moving=2, quad_tol=1e-8)
        for chunk in chunks:
            vcs = [validate(FluxConfig([0.0, 1.0, u], fluxes)) for u in chunk]
            assert transport.curvature_abelians(vcs, moving=2, quad_tol=1e-8) == [
                single[u] for u in chunk]
        for row, u in zip(rows, grid):
            r = f"{single[u].real:.12g}" if u in single else "nan"
            assert row == f"{u.real:.10g},{u.imag:.10g},{r}"

    def test_map_validates_each_cell_once(self, tmp_path, monkeypatch):
        # the 5 x 4 map above: the configuration and each of its 19
        # computed cells are validated once, by the command; nothing
        # validates the stencil positions
        callers = []
        original = config.validate

        def counting(*args, **kwargs):
            callers.append(sys._getframe(1).f_globals["__name__"])
            return original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("fluxholo") and getattr(
                    module, "validate", None) is original:
                monkeypatch.setattr(module, "validate", counting)
        cfg = write_config(tmp_path, [0.5, 0.5, 0.5], [0.0, 1.0, 0.4 + 0.5j])
        code = main(["--output", str(tmp_path / "map.csv"), "--collision-guard", "0.06",
                     "curvature-map", cfg, "--mover", "2", "--grid=0.8:1.2:5,-0.1:0.3:4"])
        assert code == 0
        assert callers == ["fluxholo.cli"] * (1 + 19)

    def test_failing_cell_in_a_later_chunk(self, tmp_path, capsys):
        # the last cell, in the second chunk, sits 1e-13 from fluxon 0,
        # outside the guard but inside the coincidence tolerance: the map
        # stops with that cell's own validation error, as a cell-by-cell
        # run does
        fluxes, base = [0.5, 0.5, 0.5], [0.0, 1.0, 0.4 + 0.5j]
        cfg = write_config(tmp_path, fluxes, base)
        out = tmp_path / "map.csv"
        rows = cli.CURVATURE_CHUNK // 2 + 2
        code = main(["--output", str(out), "--collision-guard", "1e-14", "curvature-map",
                     cfg, "--mover", "2", f"--grid=0.3:1e-13:2,0.8:0:{rows}"])
        with pytest.raises(CoincidentFluxons) as exc:
            validate(FluxConfig([0.0, 1.0, 0.3 + (1e-13 - 0.3)], fluxes))
        assert code == 2
        assert capsys.readouterr().err == f"error: {exc.value}\n"
        assert not out.exists()

    def test_guarded_cells_are_nan(self, tmp_path):
        cfg = write_config(tmp_path, [0.5, 0.5, 0.5], [0.0, 1.0, 0.4 + 0.5j])
        out = tmp_path / "map.csv"
        code = main(["--output", str(out), "--collision-guard", "0.3",
                     "curvature-map", cfg, "--mover", "2",
                     "--grid", "0.9:1.1:2,-0.05:0.05:2"])
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert all(r.endswith(",nan") for r in rows)

    @pytest.mark.parametrize("scale, grid", [(1e300, "0:1:2,0:1:2"),
                                             (1e-200, "0:1e-200:2,0:1e-200:2")])
    def test_stencil_out_of_float_range_is_numerical(self, tmp_path, capsys, scale, grid):
        # the default stencil step, 2e-3 of the fluxon distance, squares to
        # inf at the first scale and to 0 at the second
        cfg = write_config(tmp_path, [0.5, 0.7], [0.0, scale * (1 + 1j)])
        out = tmp_path / "map.csv"
        code = main(["--output", str(out), "curvature-map", cfg,
                     "--mover", "0", f"--grid={grid}"])
        assert code == 3
        assert "squared leaves the float range" in capsys.readouterr().err
        assert not out.exists()

    def test_fd_step_flag_is_gone(self, tmp_path):
        cfg = write_config(tmp_path, [0.7, 0.8], [0.0, 0.3 + 1.0j])
        with pytest.raises(SystemExit) as exc:
            main(["--fd-step", "1e-3", "curvature-map", cfg,
                  "--mover", "1", "--grid", "1.2:2.0:2,0.8:1.4:2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("args", [
        ["--mover", "-1", "--grid", "0.9:1.1:2,0.2:0.4:2"],
        ["--mover", "2", "--grid", "0.9:1.1:0,0.2:0.4:2"],
    ])
    def test_bad_mover_or_grid_rejected(self, tmp_path, args):
        cfg = write_config(tmp_path, [0.5, 0.5, 0.5], [0.0, 1.0, 0.4 + 0.5j])
        out = tmp_path / "map.csv"
        code = main(["--output", str(out), "curvature-map", cfg, *args])
        assert code == 2
        assert not out.exists()


class TestHolonomy:
    def test_circle_loop_numeric(self, tmp_path):
        cfg = write_config(tmp_path, [0.7, 0.8], [0.0, 0.3 + 1.0j])
        path = json.dumps([{"type": "circle", "mover": 0,
                            "center": [0.3, 1.0], "turns": 1}])
        code, doc = run(["--ode-tol", "1e-7", "holonomy", cfg, "--path", path],
                        tmp_path)
        assert code == 0
        phase = doc["numeric"]["eigenphases"][0]
        assert abs(abs(phase) - math.pi) < 1e-4

    def test_word_runs_both_routes(self, tmp_path):
        cfg = write_config(tmp_path, [0.9, 0.9, 0.9],
                           [0.0, 0.3 + 1.0j, -0.2 + 2.2j])
        word = json.dumps({"moves": [{"encircle": [0, 1], "power": 1}]})
        code, doc = run(["--ode-tol", "1e-6", "holonomy", cfg, "--word", word],
                        tmp_path)
        assert code == 0
        assert doc["discrepancy"] < 1e-3
        assert doc["analytic"]["norm_drift"] < 1e-9

    def test_colored_word_runs_both_routes(self, tmp_path):
        # sigma_0 sigma_1^2 sigma_0^-1 on three distinct fluxes closes; a lone
        # exchange of the 0.6 and 0.7 fluxons does not
        cfg = write_config(tmp_path, [0.6, 0.7, 0.8], [0.0, 0.3 + 1.0j, -0.2 + 2.2j])
        word = json.dumps({"moves": [{"exchange": 0}, {"encircle": [1, 2]},
                                     {"exchange": 0, "power": -1}]})
        code, doc = run(["--ode-tol", "1e-8", "holonomy", cfg, "--word", word], tmp_path)
        assert code == 0
        assert doc["discrepancy"] <= 10 * 1e-8
        code, doc = run(["holonomy", cfg, "--word", '{"moves": [{"exchange": 0}]}'],
                        tmp_path, out_name="refused.json")
        assert code == 2 and doc is None

    def test_open_path_rejected(self, tmp_path):
        cfg = write_config(tmp_path, [0.7, 0.8], [0.0, 0.3 + 1.0j])
        path = json.dumps([{"type": "segment", "mover": 0, "to": [-2.0, 0.0]}])
        code, _ = run(["holonomy", cfg, "--path", path], tmp_path)
        assert code == 2

    def test_malformed_word_rejected(self, tmp_path):
        cfg = write_config(tmp_path, [0.9, 0.9, 0.9],
                           [0.0, 0.3 + 1.0j, -0.2 + 2.2j])
        word = json.dumps({"moves": [{"encircle": 0}]})
        code, _ = run(["holonomy", cfg, "--word", word, "--analytic-only"], tmp_path)
        assert code == 2

    @pytest.mark.parametrize("path", [
        [{"type": "circle", "mover": 0, "center": 5}],
        {"type": "circle"},
        [{"type": "exchange", "pair": 3}],
        [{"type": "circle", "mover": 0.9, "center": [0.3, 1.0]}],
        [{"type": "circle", "mover": -1, "center": [0.3, 1.0]}],
        [{"type": "exchange", "pair": [-1, 0]}],
        [{"type": "exchange", "pair": [1, 1]}],
    ])
    def test_malformed_path_rejected(self, tmp_path, path):
        cfg = write_config(tmp_path, [0.9, 0.9, 0.9],
                           [0.0, 0.3 + 1.0j, -0.2 + 2.2j])
        code, _ = run(["holonomy", cfg, "--path", json.dumps(path)], tmp_path)
        assert code == 2

    @pytest.mark.parametrize("word", [None, {"moves": [{"encircle": [0, 1]}]}])
    def test_empty_path_rejected(self, tmp_path, capsys, word):
        # an empty move list is an error, also next to a word whose own
        # path would otherwise run in its place
        cfg = write_config(tmp_path, [0.9, 0.9, 0.9],
                           [0.0, 0.3 + 1.0j, -0.2 + 2.2j])
        args = ["holonomy", cfg, "--path", "[]"]
        if word is not None:
            args += ["--word", json.dumps(word)]
        code, doc = run(args, tmp_path)
        assert code == 2 and doc is None
        assert "at least one move" in capsys.readouterr().err


class TestVerify:
    def test_quick_level_deterministic(self, tmp_path):
        code1 = main(["--output", str(tmp_path / "a.json"), "verify", "--level", "quick"])
        code2 = main(["--output", str(tmp_path / "b.json"), "verify", "--level", "quick"])
        assert code1 == 0 and code2 == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        doc = json.loads((tmp_path / "a.json").read_text())
        assert doc["passed"] and doc["n_failed"] == 0

    def test_full_level_deterministic(self, tmp_path):
        code1 = main(["--output", str(tmp_path / "a.json"), "verify", "--level", "full"])
        code2 = main(["--output", str(tmp_path / "b.json"), "verify", "--level", "full"])
        assert code1 == 0 and code2 == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_bad_tolerance_rejected(self, tmp_path):
        code = main(["--quad-tol", "-1", "verify", "--level", "quick"])
        assert code == 2
        code = main(["--quad-tol", "nan", "verify", "--level", "quick"])
        assert code == 2

    def test_out_of_range_mover_rejected(self, tmp_path):
        cfg = write_config(tmp_path, [0.7, 0.8], [0.0, 0.3 + 1.0j])
        path = json.dumps([{"type": "circle", "mover": 5,
                            "center": [0.3, 1.0], "turns": 1}])
        code, _ = run(["holonomy", cfg, "--path", path], tmp_path)
        assert code == 2
