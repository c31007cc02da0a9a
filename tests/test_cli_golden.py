"""Golden digests of every command's outputs.

Each invocation runs through click's test runner into its own output
directory.  Its digest is the SHA-256 of each output file, sorted by
name, followed by stdout; the temporary directory is replaced by
``<tmp>`` in both, because the ``wrote ...`` lines and the manifests
carry paths.  A refactor that must leave outputs byte-identical keeps
every digest here; a change to an output on purpose updates its digest
and says why.
"""

import hashlib
import json

import numpy as np
import pytest
from click.testing import CliRunner

from wiretapkit import channel, cli

from conftest import save_capture, synth_capture

WIDE_TAUS = "19,22,24,25,26,27,28,29,30,31"

INVOCATIONS = {
    "demo": ["demo"],
    "synth": ["synth"],
    "sound": ["sound", "{tmp}/c.iq", "--sidecar", "{tmp}/c.json", "--x", "1.5", "--region", "hall"],
    "heatmap": ["heatmap", "--tau", "27", "--svg"],
    "capacity": ["capacity", "--svg"],
    "secrecy": ["secrecy", "--svg"],
    "eqmatrix": ["eqmatrix", "--code", "rm:2,4", "--orientation", "Cperp"],
    # Base dim 11 > 8: the dual (d = 5) is tallied by subcode enumeration
    # at n <= 24 and flipped.
    "eqmatrix_rm24": ["eqmatrix", "--code", "rm:2,4"],
    # Above n = 24: subcode enumeration of the smaller side (d = 6 and 7).
    "eqmatrix_rm15": ["eqmatrix", "--code", "rm:1,5"],
    "eqmatrix_rm16": ["eqmatrix", "--code", "rm:1,6"],
    # Bases larger than their duals (dims 26 and 57): the dual is tallied
    # and flipped; at n = 64 the uint64 solve wraps on the way to exact h.
    "eqmatrix_rm35": ["eqmatrix", "--code", "rm:3,5"],
    "eqmatrix_rm46": ["eqmatrix", "--code", "rm:4,6"],
    "ghw_exact": ["ghw", "--code", "rm:1,4"],
    "ghw_table1": ["ghw", "--code", "table1"],
    "ghw_monomial": ["ghw", "--code", "rm:2,7"],
    "ghw_monomial_m9": ["ghw", "--code", "rm:4,9"],
    "sweep": ["sweep"],
    "sweep_interleave": ["sweep", "--interleave"],
    "sweep_m7": ["sweep", "--max-m", "7", "--taus", WIDE_TAUS, "--allow-partial", "--svg"],
    "sweep_m7_interleave": ["sweep", "--max-m", "7", "--taus", WIDE_TAUS, "--interleave", "--svg"],
    "sweep_m9": ["sweep", "--max-m", "9", "--taus", WIDE_TAUS, "--allow-partial"],
    "simulate": ["simulate"],
    "simulate_best": ["simulate", "--code", "rm:4,5", "--orientation", "Cperp", "--tau", "30"],
    "simulate_rm15": ["simulate", "--code", "rm:1,5", "--tau", "25", "--trials", "300", "--seed", "4"],
    # The bundled grid read back from the CSV that synth writes.
    "sweep_grid_csv": ["sweep", "--grid", "{tmp}/g/grid.csv", "--regions", "{tmp}/regions.json"],
}

GOLDEN = {
    "demo": "4f209384d597ce166ab04d62c979c3b38e6d3c6b001f9666ee09233b4f036455",
    "synth": "3a80e3a94569f653b0bedec059aafbf8d82d0c6991282699c55e11a22a132cbe",
    "sound": "3149f83e156340ea834c4a9a154dc06dd344b93b6bbe9dfc92e5ba6e9b75c89e",
    "heatmap": "12f56f8fc6627ab71fc0531128857b1dd0222bc24f6522cb6dc6f6c0467e5dcf",
    "capacity": "433288d95cceb4fd0cde4f1b009c36ef7a3116051bcd3a8befd13753eac02d13",
    "secrecy": "b87199f2bbd8d5786356c6837519850fe0b90c013538d2e61100cb8bfcb25b92",
    "eqmatrix": "5de8b0d4b1d9b0877f036086d46b68dfec4714b984323e1d2bbd9b6f32ac3dbf",
    "eqmatrix_rm24": "3b45efd6e8944a5f56aa327d41b69ba301b9a3ddab5ffc3b9097f76a7174b892",
    "eqmatrix_rm15": "8cbbace093ea744d3da3f2659f2bb8a699348bf896dcab67b3c513e587eda46f",
    "eqmatrix_rm16": "24fe7432ca8ffc3c8974c5609b0640858eb405e3c4ef5fc16f07036a1fd708fb",
    "eqmatrix_rm35": "7fe8f9e6b2186c026c685e647c46762568d9e180b5f0d14c5e4f174421cc6d32",
    "eqmatrix_rm46": "49d7754cae6235f97335f78825d30fdf6aff0b4bde50e3f9e62c4a84cc88e14f",
    "ghw_exact": "17a9283adb753c028039a46eb298a4c4eee8b16ffe9374e507a59e13de4ad0b8",
    "ghw_table1": "e3512a1163bd27cf71c0d5b3863daa382e78a22cc941b141e27ec5725c95e237",
    "ghw_monomial": "67572c9337feffc3d9720dcd634e279dec7134475d9bc1a2ea61dd688e2bceaf",
    "ghw_monomial_m9": "9446756ad3cb06efc8326c946196b810ef774875959c37a93b0c771822df0039",
    "sweep": "f7b901be16689c5979d36fbbfe30f174fc3625ac74ea7861f6195673034fda42",
    "sweep_interleave": "9df1425391bebb43049de8bf284dbccaa8b8aea4b9dccd27ecddfbe94f676915",
    "sweep_m7": "9b9c3fdf3534850cd1af06149eb836213a041c7a1275071b1a3180a5cb9a0b07",
    "sweep_m7_interleave": "9ffc6a0dd6572f38a96f63d7a24e89363b7584fdb6c75bf0ce31be03b6390d31",
    "sweep_m9": "a73d7de7c23caed906a59ece4ae9bcb1ec5915bcebc14add8914128db1933858",
    "simulate": "739120355dcc1d37cd3c72a6ec7db88e9875f214c9d42f3e921e3cf23245d0fb",
    "simulate_rm15": "a7458f7b0fdc619937910568b8612ed40fe809965071a222ac9364aace009408",
    "simulate_best": "aaa47c5947dbcf8035d22b360fabf8676f43f148aa90f7d26894c20a668402c3",
    "sweep_grid_csv": "8db1bd57d985463d8f6c2d80e2e23d9528d93b5f274dd0509ee36ed1fcd42a8f",
}


def run_digest(name: str, tmp_path) -> str:
    """Run one invocation into ``tmp_path / name`` and digest its outputs."""
    tmp = str(tmp_path)
    if name == "sound":
        cap = synth_capture(np.linspace(10.0, 40.0, 64), seed=5)
        save_capture(cap, tmp_path / "c.iq", tmp_path / "c.json")
    if name == "sweep_grid_csv":
        res = CliRunner().invoke(cli.main, ["synth", "--out-dir", str(tmp_path / "g")])
        assert res.exit_code == 0, res.output
        (tmp_path / "regions.json").write_text(json.dumps(channel.default_environment().region_map.to_dict()))
    out = tmp_path / name
    args = [a.format(tmp=tmp) for a in INVOCATIONS[name]] + ["--out-dir", str(out)]
    res = CliRunner().invoke(cli.main, args)
    assert res.exit_code == 0, res.output
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes().replace(tmp.encode(), b"<tmp>") + b"\0")
    h.update(res.output.replace(tmp, "<tmp>").encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_outputs_match_golden_digest(name, tmp_path):
    assert run_digest(name, tmp_path) == GOLDEN[name]
