import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radonet import store
from radonet.models import (
    BUNDLE_VERSION,
    DeepOnetModel,
    RAdaptiveSystem,
    deeponet_backward_batch,
    deeponet_forward_batch,
    load_bundle,
    mesh_forward_batch,
    radaptive_predict_graph,
    save_bundle,
)
from radonet.nn import mlp_init, substream

from containers import corrupt, join_npy, load_guarded, restore, snapshot, split_npy
from oracles import deeponet_forward_loops, flat_grad_rel_error, numerical_gradient


def make_deeponet(n_in=3, n_basis=5, d=1, seed=0, lo=0.0, hi=1.0):
    branch = mlp_init([n_in, 10, n_basis], activation="tanh", seed=seed)
    trunk = mlp_init([d, 10, n_basis], activation="relu", seed=seed + 1)
    return DeepOnetModel(branch=branch, trunk=trunk, n_basis=n_basis,
                         query_lo=[lo] * d, query_hi=[hi] * d)


def test_deeponet_validates_sizes():
    branch = mlp_init([3, 8, 4], seed=0)
    trunk = mlp_init([1, 8, 5], seed=1)
    with pytest.raises(ValueError):
        DeepOnetModel(branch=branch, trunk=trunk, n_basis=4,
                      query_lo=[0.0], query_hi=[1.0])
    with pytest.raises(ValueError):
        DeepOnetModel(branch=mlp_init([3, 8, 5], seed=0), trunk=trunk, n_basis=5,
                      query_lo=[1.0], query_hi=[0.0])


def test_query_normalization_endpoints():
    model = make_deeponet(lo=-2.0, hi=6.0)
    qn = model.normalize_queries(np.array([[-2.0], [2.0], [6.0]]))
    np.testing.assert_allclose(qn[:, 0], [-1.0, 0.0, 1.0])


def test_deeponet_forward_matches_loop_reference():
    rng = substream(5, "don")
    for trial in range(5):
        model = make_deeponet(seed=40 + trial)
        a = rng.standard_normal((4, 3))
        q = rng.uniform(0.0, 1.0, size=(7, 1))
        pred, _ = deeponet_forward_batch(model, a, q)
        np.testing.assert_allclose(pred, deeponet_forward_loops(model, a, q),
                                   rtol=1e-12, atol=1e-12)


def test_deeponet_backward_matches_finite_differences():
    rng = substream(6, "don-grad")
    model = make_deeponet(n_in=2, n_basis=3, seed=77)
    a = rng.standard_normal((3, 2))
    q = rng.uniform(0.0, 1.0, size=(4, 1))
    target = rng.standard_normal((3, 4))

    pred, cache = deeponet_forward_batch(model, a, q)
    bg, tg = deeponet_backward_batch(model, cache, 2.0 * (pred - target))

    def branch_loss(p):
        probe = DeepOnetModel(branch=p, trunk=model.trunk, n_basis=model.n_basis,
                              query_lo=model.query_lo, query_hi=model.query_hi)
        out, _ = deeponet_forward_batch(probe, a, q)
        return float(np.sum((out - target) ** 2))

    def trunk_loss(p):
        probe = DeepOnetModel(branch=model.branch, trunk=p, n_basis=model.n_basis,
                              query_lo=model.query_lo, query_hi=model.query_hi)
        out, _ = deeponet_forward_batch(probe, a, q)
        return float(np.sum((out - target) ** 2))

    num_w, num_b = numerical_gradient(branch_loss, model.branch)
    assert flat_grad_rel_error(bg.weights, bg.biases, num_w, num_b) < 1e-7
    num_w, num_b = numerical_gradient(trunk_loss, model.trunk)
    assert flat_grad_rel_error(tg.weights, tg.biases, num_w, num_b) < 1e-7


def test_radaptive_system_validation():
    coord = make_deeponet(seed=1)
    sol = make_deeponet(seed=2)
    xi = np.linspace(0.0, 1.0, 17)
    system = RAdaptiveSystem(coord_net=coord, sol_net=sol, xi_grid=xi)
    assert system.xi_grid.size == 17
    with pytest.raises(ValueError):
        RAdaptiveSystem(coord_net=coord, sol_net=sol, xi_grid=xi[::-1])


def test_radaptive_graph_default_and_custom_grid():
    system = RAdaptiveSystem(coord_net=make_deeponet(seed=3),
                             sol_net=make_deeponet(seed=4),
                             xi_grid=np.linspace(0.0, 1.0, 9))
    a = np.array([[0.4, 0.1, 0.3]])
    g_default = radaptive_predict_graph(system, a, system.xi_grid)
    assert g_default.knots.shape == (1, 9)
    xi_dense = np.linspace(0.0, 1.0, 33)
    g_dense = radaptive_predict_graph(system, a, xi=xi_dense)
    assert g_dense.knots.shape == (1, 33)
    # dense grid contains the default one every 4th point
    np.testing.assert_allclose(g_dense.knots[0, ::4], g_default.knots[0], rtol=1e-12)
    np.testing.assert_allclose(g_dense.values[0, ::4], g_default.values[0], rtol=1e-12)


def test_radaptive_batch_rows_match_single_input_forward():
    # every row of a batched call is bit-identical to that input run alone
    # through the single-input forward passes, on the native and a dense grid
    xi_grid = np.linspace(0.0, 1.0, 9)
    system = RAdaptiveSystem(coord_net=make_deeponet(seed=5),
                             sol_net=make_deeponet(seed=6), xi_grid=xi_grid)
    inputs = substream(9, "rad-batch").standard_normal((5, 3))
    xi_dense = np.linspace(0.0, 1.0, 41)
    native = radaptive_predict_graph(system, inputs, xi_grid)
    dense = radaptive_predict_graph(system, inputs, xi=xi_dense)
    assert native.knots.shape == native.values.shape == (5, 9)
    assert dense.knots.shape == dense.values.shape == (5, 41)
    for i, a in enumerate(inputs):
        knots = mesh_forward_batch(system.coord_net, a[None, :], xi_grid)[0][0]
        for pred, xi, on_xi in ((native, xi_grid, knots),
                                (dense, xi_dense, np.interp(xi_dense, xi_grid, knots))):
            np.testing.assert_array_equal(pred.native_knots[i], knots)
            np.testing.assert_array_equal(pred.knots[i], on_xi)
            np.testing.assert_array_equal(
                pred.values[i], deeponet_forward_batch(system.sol_net, a[None, :], xi)[0][0])


@pytest.mark.parametrize("kind", ["deeponet", "radaptive"])
def test_bundle_roundtrip(tmp_path, kind):
    if kind == "deeponet":
        model = make_deeponet(seed=21)
    else:
        model = RAdaptiveSystem(coord_net=make_deeponet(seed=23),
                                sol_net=make_deeponet(seed=24),
                                xi_grid=np.linspace(0.0, 1.0, 11))
    out = tmp_path / kind
    save_bundle(out, model, input_encoding="test-encoding")
    loaded = load_bundle(out)
    assert type(loaded) is type(model)
    a = np.array([[0.3, 0.6, 0.2]])
    q = np.linspace(0.0, 1.0, 5)
    if kind == "deeponet":
        np.testing.assert_array_equal(deeponet_forward_batch(model, a, q)[0][0],
                                      deeponet_forward_batch(loaded, a, q)[0][0])
    else:
        g1 = radaptive_predict_graph(model, a, model.xi_grid)
        g2 = radaptive_predict_graph(loaded, a, loaded.xi_grid)
        np.testing.assert_array_equal(g1.knots, g2.knots)
        np.testing.assert_array_equal(g1.values, g2.values)


def test_bundle_rejects_non_bundle_dir(tmp_path):
    with pytest.raises(ValueError):
        load_bundle(tmp_path)


def test_bundle_refuses_radaptive_bundle_without_coordinate_head(tmp_path):
    # a bundle written before the coordinate head holds raw knot nets; reading
    # them through the head would give a different mesh, so it is refused
    system = RAdaptiveSystem(coord_net=make_deeponet(seed=25),
                             sol_net=make_deeponet(seed=26),
                             xi_grid=np.linspace(0.0, 1.0, 11))
    out = tmp_path / "rad"
    save_bundle(out, system)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["coord_head"] == "softplus-cumtrapz"

    old = dict(manifest, format_version=1)
    del old["coord_head"]
    for path in (out / "manifest.json", out / "coord" / "manifest.json",
                 out / "sol" / "manifest.json"):
        doc = json.loads(path.read_text())
        doc["format_version"] = 1
        path.write_text(json.dumps(old if path.parent == out else doc))
    with pytest.raises(ValueError, match="format version 1"):
        load_bundle(out)

    # a current version number does not make a headless bundle readable
    (out / "manifest.json").write_text(json.dumps(dict(old, format_version=BUNDLE_VERSION)))
    with pytest.raises(ValueError, match="coordinate head"):
        load_bundle(out)


# --- bundle files and the bundle loader on corrupt directories ---------------


def _npy_bytes(arr) -> bytes:
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


def test_bundle_stores_each_net_as_npy_arrays(tmp_path):
    model = DeepOnetModel(branch=mlp_init([5, 12, 3], activation="relu", seed=42),
                          trunk=mlp_init([1, 7, 3], activation="tanh", seed=43),
                          n_basis=3, query_lo=[0.0], query_hi=[2.0])
    save_bundle(tmp_path, model)
    files = snapshot(tmp_path)
    assert set(files) == {"manifest.json"} | {f"{net}_{part}_{i}.npy" for net in ("branch", "trunk")
                                              for part in ("weight", "bias") for i in (0, 1)}
    manifest = json.loads(files["manifest.json"])
    assert manifest["nets"] == {"branch": {"layer_sizes": [5, 12, 3], "activation": "relu"},
                                "trunk": {"layer_sizes": [1, 7, 3], "activation": "tanh"}}
    assert "n_basis" not in manifest  # the branch's output size
    loaded = load_bundle(tmp_path)
    assert loaded.n_basis == 3
    for net in ("branch", "trunk"):
        params, again = getattr(model, net), getattr(loaded, net)
        assert (again.layer_sizes, again.activation) == (params.layer_sizes, params.activation)
        for i, (w, b) in enumerate(zip(params.weights, params.biases)):
            assert files[f"{net}_weight_{i}.npy"] == _npy_bytes(w)
            assert files[f"{net}_bias_{i}.npy"] == _npy_bytes(b)
            np.testing.assert_array_equal(again.weights[i], w)
            np.testing.assert_array_equal(again.biases[i], b)


def test_bundle_rejects_foreign_arrays_and_old_versions(tmp_path):
    save_bundle(tmp_path / "good", make_deeponet(seed=30))
    good = snapshot(tmp_path / "good")
    restore(tmp_path / "foreign", dict(good, **{"trunk_weight_0.npy": _npy_bytes(np.arange(4))}))
    with pytest.raises(ValueError, match="trunk_weight_0.npy"):
        load_bundle(tmp_path / "foreign")
    # version 2 kept each net in one <net>.npz file
    manifest = json.loads(good["manifest.json"])
    old = {"manifest.json": json.dumps(dict(manifest, format_version=2)).encode(),
           "branch.npz": b"PK", "trunk.npz": b"PK"}
    restore(tmp_path / "old", old)
    with pytest.raises(ValueError, match="format version 2"):
        load_bundle(tmp_path / "old")


def test_bundle_weight_header_claiming_a_huge_array_is_refused_before_allocating(tmp_path):
    save_bundle(tmp_path / "good", make_deeponet(seed=31))
    files = snapshot(tmp_path / "good")
    header, body = split_npy(files["branch_weight_0.npy"])
    files["branch_weight_0.npy"] = join_npy(dict(header, shape=(10**6, 10**6)), body)
    restore(tmp_path / "huge", files)
    with pytest.raises(ValueError, match="branch_weight_0.npy.*bytes of data"):
        load_guarded(load_bundle, tmp_path / "huge")


@pytest.mark.parametrize("entry", ["nets", "query_lo", "query_hi"])
@pytest.mark.parametrize("value", [None, "x", [["0.0"]], {"lo": 0.0}])
def test_bundle_manifest_missing_or_mistyping_an_entry_is_refused(tmp_path, entry, value):
    save_bundle(tmp_path, make_deeponet(seed=32))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    if value is None:
        del manifest[entry]
    else:
        manifest[entry] = value
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=f"manifest.json: entry '{entry}"):
        load_bundle(tmp_path)


def test_bundle_net_entries_are_checked(tmp_path):
    save_bundle(tmp_path, make_deeponet(seed=33))
    good = json.loads((tmp_path / "manifest.json").read_text())
    for net_entry, match in (({"layer_sizes": [1, 10, 5]}, "nets.trunk.activation"),
                             ({"activation": "relu", "layer_sizes": [1, 10.5, 5]},
                              "nets.trunk.layer_sizes"),
                             ({"activation": "relu", "layer_sizes": [True, 10, 5]},
                              "nets.trunk.layer_sizes"),
                             ({"activation": "relu", "layer_sizes": [1, 10, 4]}, "trunk"),
                             ({"activation": "sigmoid", "layer_sizes": [1, 10, 5]}, "sigmoid")):
        manifest = dict(good, nets=dict(good["nets"], trunk=net_entry))
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=match) as err:
            load_bundle(tmp_path)
        assert "manifest.json" in str(err.value)


def test_radaptive_sub_bundles_must_be_deeponets(tmp_path):
    system = RAdaptiveSystem(coord_net=make_deeponet(seed=34), sol_net=make_deeponet(seed=35),
                             xi_grid=np.linspace(0.0, 1.0, 11))
    save_bundle(tmp_path / "rad", system)
    save_bundle(tmp_path / "rad" / "sol", system)
    with pytest.raises(ValueError, match="is not .deeponet."):
        load_bundle(tmp_path / "rad")


def test_shift_deeponet_bundles_are_refused_as_an_unknown_kind(tmp_path):
    # a shift-DeepONet bundle as earlier versions wrote it: the deeponet's
    # nets plus a scale and a shift net read like the branch
    save_bundle(tmp_path, make_deeponet(seed=37))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    for i, name in enumerate(("scale", "shift")):
        net = mlp_init([3, 10, 5], activation="tanh", seed=38 + i)
        for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
            store.write_array(tmp_path, f"{name}_weight_{layer}", w)
            store.write_array(tmp_path, f"{name}_bias_{layer}", b)
        manifest["nets"][name] = {"layer_sizes": [3, 10, 5], "activation": "tanh"}
    (tmp_path / "manifest.json").write_text(json.dumps(dict(manifest, kind="shift-deeponet")))
    with pytest.raises(ValueError, match="bundle kind 'shift-deeponet' is unknown"):
        load_bundle(tmp_path)


def _assert_usable(model):
    """model holds nets that fit together: each operator net runs forward
    (on weights a flipped byte may have made non-finite)."""
    nets = [model.coord_net, model.sol_net] if model.kind == "radaptive-system" else [model]
    for net in nets:
        a = np.zeros((2, net.branch.layer_sizes[0]))
        with np.errstate(all="ignore"):
            assert deeponet_forward_batch(net, a, np.zeros((3, net.d_query)))[0].shape == (2, 3)


@pytest.fixture(scope="module", params=["deeponet", "radaptive"])
def bundle_dir(request, tmp_path_factory):
    """A scratch directory and the files of a small valid bundle of each kind."""
    model = {"deeponet": lambda: make_deeponet(seed=40),
             "radaptive": lambda: RAdaptiveSystem(coord_net=make_deeponet(seed=42),
                                                  sol_net=make_deeponet(seed=43),
                                                  xi_grid=np.linspace(0.0, 1.0, 9))}
    root = tmp_path_factory.mktemp(request.param)
    save_bundle(root / "good", model[request.param](), input_encoding="test-encoding")
    return root, snapshot(root / "good")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupt_bundles_raise_value_error_without_large_reads(bundle_dir, data):
    root, good = bundle_dir
    restore(root / "corrupt", corrupt(good, data))
    try:
        model = load_guarded(load_bundle, root / "corrupt")
    except ValueError:
        return
    # a corruption that keeps the bundle well formed loads as a valid model
    _assert_usable(model)
