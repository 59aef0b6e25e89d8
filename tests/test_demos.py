"""The demos import library API that no other test covers: each one must
still load and parse its flags, and the scene tour's SVG must draw every
point of its scan."""

import runpy
import sys
from pathlib import Path

import pytest

from radfiner.synthdata import SceneConfig, generate_scene

DEMO_DIR = Path(__file__).parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_help_exits_zero(path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(path), "--help"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(path), run_name="__main__")
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_scene_tour_svg_draws_every_point(tmp_path, monkeypatch, capsys):
    out = tmp_path / "scene.svg"
    demo = DEMO_DIR / "scene_tour.py"
    monkeypatch.setattr(sys, "argv", [str(demo), "--seed", "7", "--svg", str(out)])
    runpy.run_path(str(demo), run_name="__main__")
    svg = out.read_text()
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert svg.count("<circle") == len(generate_scene(SceneConfig(), seed=7))
    assert f"wrote {out}" in capsys.readouterr().out
