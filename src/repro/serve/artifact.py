"""Versioned model bundles: everything a server needs in two files.

A bundle is a ``.npz`` archive (weights, fitted scaler statistics, graph
arrays) plus a human-readable ``.json`` header (format version, model
name, configs, shapes) sitting next to it. The split keeps the header
inspectable with any text editor while the arrays stay in numpy's own
dependency-free format.

Loading rebuilds the architecture through the same
:data:`repro.experiments.registry.NEURAL_MODELS` builders used for
training — the bundle carries a duck-typed stand-in for the experiment
context, so training data is *not* needed at serving time.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from ..autodiff import default_dtype
from ..codec import from_dict, to_dict
from ..datasets import ZScoreScaler
from ..errors import BundleFormatError, BundleModelError, CheckpointError, QuantizationError
from ..experiments.config import DataConfig, ModelConfig
from ..experiments.registry import NEURAL_MODELS
from ..graphs import HeterogeneousGraphSet, TimelinePartition
from ..models.base import NeuralForecaster
from ..nn import init
from .engine import ForecastEngine
from .state import StateStore

__all__ = [
    "FLEET_FORMAT_VERSION",
    "FORMAT_VERSION",
    "QUANT_MODES",
    "ModelBundle",
    "export_bundle",
    "export_model",
    "load_bundle",
    "load_fleet_manifest",
    "quantization_mae_drift",
    "quantize_bundle",
    "save_fleet_manifest",
]

#: bumped on any incompatible change to the bundle layout
FORMAT_VERSION = 1

#: bumped on any incompatible change to the fleet manifest layout
FLEET_FORMAT_VERSION = 1

_PARAM_PREFIX = "param/"
# Per-channel quantization scales ride next to their parameter. The
# prefix shares no namespace with _PARAM_PREFIX ("param_" != "param/"),
# so un-quantized loaders would simply ignore the extra arrays.
_SCALE_PREFIX = "param_scale/"

#: supported weight quantization modes for :func:`quantize_bundle`
QUANT_MODES = ("int8", "float16")


def _bundle_paths(path: str | os.PathLike) -> tuple[str, str]:
    """(arrays, header) file names for a bundle base ``path``."""
    base = os.fspath(path)
    if base.endswith(".npz") or base.endswith(".json"):
        base = base[: base.rfind(".")]
    return base + ".npz", base + ".json"


@dataclass
class _RebuildContext:
    """Duck-typed :class:`ExperimentContext` stand-in for model builders.

    Registry builders only touch ``data_config``, ``model_config``,
    ``num_nodes``, ``num_features``, ``adjacency`` and ``graphs()`` —
    exactly what the bundle stores.
    """

    data_config: DataConfig
    model_config: ModelConfig
    num_nodes: int
    num_features: int
    adjacency: np.ndarray
    graph_set: HeterogeneousGraphSet | None

    def graphs(self, num_intervals: int | None = None) -> HeterogeneousGraphSet:
        if self.graph_set is None:
            raise ValueError(
                "bundle holds no heterogeneous graph set; it was exported "
                "from a model that does not use one"
            )
        return self.graph_set


@dataclass
class ModelBundle:
    """A loaded bundle, ready to serve."""

    model: NeuralForecaster
    scaler: ZScoreScaler
    model_name: str
    data_config: DataConfig
    model_config: ModelConfig
    adjacency: np.ndarray
    graph_set: HeterogeneousGraphSet | None
    header: dict

    @property
    def num_nodes(self) -> int:
        return self.model.num_nodes

    @property
    def num_features(self) -> int:
        return self.model.num_features

    @property
    def input_length(self) -> int:
        return self.model.input_length

    @property
    def output_length(self) -> int:
        return self.model.output_length

    @property
    def fingerprint(self) -> str:
        """Stable identity of this bundle's exported contents.

        The sha256 of the canonical header JSON — model name, configs,
        shapes, dtype, quantization — which changes whenever a re-export
        could change the numbers a server hands out. Engines mix it into
        their forecast cache keys so forecasts can never be served
        across bundle versions.
        """
        canonical = json.dumps(self.header, sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @property
    def quantization(self) -> str | None:
        """Weight quantization mode this bundle was stored with, if any."""
        entry = self.header.get("quantization")
        return entry["mode"] if entry else None

    def make_store(self, start_step: int = 0, registry=None) -> StateStore:
        """A state store dimensioned for this bundle's model."""
        return StateStore(
            num_nodes=self.num_nodes,
            num_features=self.num_features,
            input_length=self.input_length,
            steps_per_day=self.data_config.steps_per_day,
            start_step=start_step,
            registry=registry,
        )

    def make_engine(self, store: StateStore | None = None, **engine_kwargs) -> ForecastEngine:
        """A forecast engine over ``store`` (a fresh one by default)."""
        engine_kwargs.setdefault("cache_token", self.fingerprint)
        return ForecastEngine(
            model=self.model,
            scaler=self.scaler,
            store=store if store is not None else self.make_store(),
            **engine_kwargs,
        )


def export_bundle(
    model: NeuralForecaster,
    model_name: str,
    ctx,
    path: str | os.PathLike,
) -> str:
    """Write ``model`` (trained in experiment context ``ctx``) as a bundle.

    ``ctx`` is an :class:`~repro.experiments.context.ExperimentContext`
    (or anything with the same ``data_config`` / ``model_config`` /
    ``scaler`` / ``adjacency`` surface). Returns the header path; the
    array archive lands next to it with a ``.npz`` suffix.
    """
    if model_name not in NEURAL_MODELS:
        raise BundleModelError(
            f"unknown model {model_name!r}; bundles cover the neural "
            f"registry: {sorted(NEURAL_MODELS)}"
        )
    state = model.state_dict()
    if not state:
        raise BundleFormatError("model has no parameters to export")
    scaler: ZScoreScaler = ctx.scaler
    if scaler.mean_ is None or scaler.std_ is None:
        raise BundleFormatError("context scaler is not fitted")

    arrays: dict[str, np.ndarray] = {
        _PARAM_PREFIX + name: value for name, value in state.items()
    }
    arrays["scaler/mean"] = np.asarray(scaler.mean_)
    arrays["scaler/std"] = np.asarray(scaler.std_)
    arrays["graph/adjacency"] = np.asarray(ctx.adjacency)

    graph_header = None
    # Only RIHGCN-family builders consume the heterogeneous graph set;
    # exporting it for other models would drag in training data for
    # nothing, so it rides along exactly when the builder needs it.
    if model_name == "RIHGCN":
        graph_set: HeterogeneousGraphSet = ctx.graphs()
        for idx, adj in enumerate(graph_set.temporal):
            arrays[f"graph/temporal/{idx}"] = np.asarray(adj)
        arrays["graph/geographic"] = np.asarray(graph_set.geographic)
        graph_header = {
            "num_temporal": graph_set.num_temporal,
            "membership_mode": graph_set.membership_mode,
            "membership_temperature": graph_set.membership_temperature,
            "partition": {
                "boundaries": [int(b) for b in graph_set.partition.boundaries],
                "steps_per_day": int(graph_set.partition.steps_per_day),
                "score": float(graph_set.partition.score),
            },
        }

    npz_path, json_path = _bundle_paths(path)
    parent = os.path.dirname(npz_path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    header = {
        "format_version": FORMAT_VERSION,
        "model_name": model_name,
        "data_config": asdict(ctx.data_config),
        "model_config": asdict(ctx.model_config),
        "num_nodes": int(model.num_nodes),
        "num_features": int(model.num_features),
        "input_length": int(model.input_length),
        "output_length": int(model.output_length),
        "scaler": {"per_node": bool(scaler.per_node)},
        "dtype": str(np.dtype(default_dtype())),
        "graphs": graph_header,
        "num_parameters": len(state),
        "arrays_file": os.path.basename(npz_path),
    }
    np.savez(npz_path, **arrays)
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(header, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return json_path


def export_model(
    model_name: str,
    data_config: DataConfig,
    model_config: ModelConfig,
    path: str | os.PathLike,
    trainer_config=None,
):
    """Build ``model_name`` on a freshly prepared context and export it.

    This is ``repro export``: with ``trainer_config=None`` the bundle
    carries the freshly initialised weights (``--skip-training``),
    otherwise the model is fitted first. Returns ``(header_path,
    history)``; ``history`` is ``None`` for an untrained export.
    """
    from ..experiments import build_model, prepare_context
    from ..training import Trainer

    ctx = prepare_context(data_config, model_config)
    model = build_model(model_name, ctx)
    history = None
    if trainer_config is not None:
        history = Trainer(model, trainer_config).fit(
            ctx.train_windows, ctx.val_windows
        )
    return export_bundle(model, model_name, ctx, path), history


def _config_from_dict(cls, payload: dict):
    """Rebuild a config dataclass, ignoring unknown header keys."""
    known = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in payload.items() if k in known})


# ----------------------------------------------------------------------
# Weight quantization
# ----------------------------------------------------------------------

def _dequantize_arrays(
    arrays: dict[str, np.ndarray], quant: dict, npz_path: str
) -> dict[str, np.ndarray]:
    """Restore quantized parameters to the active policy dtype.

    int8 parameters multiply back through their per-channel scales
    (stored under ``param_scale/``); float16 parameters upcast. Scale
    arrays are consumed here and dropped from the result.
    """
    mode = quant.get("mode")
    if mode not in QUANT_MODES:
        raise BundleFormatError(
            f"bundle {npz_path!r} uses unknown quantization mode {mode!r}; "
            f"this build reads {QUANT_MODES}"
        )
    target = default_dtype()
    quantized = set(quant.get("params", ()))
    out: dict[str, np.ndarray] = {}
    for name, value in arrays.items():
        if name.startswith(_SCALE_PREFIX):
            continue
        if name.startswith(_PARAM_PREFIX):
            pname = name[len(_PARAM_PREFIX):]
            if pname in quantized:
                if mode == "int8":
                    scale = arrays.get(_SCALE_PREFIX + pname)
                    if scale is None:
                        raise BundleFormatError(
                            f"bundle {npz_path!r} is quantized but missing "
                            f"scales for parameter {pname!r}"
                        )
                    # Scales are per-channel along the last axis, so a
                    # plain broadcast multiply restores the weights.
                    value = value.astype(target) * scale.astype(target)
                else:  # float16
                    value = value.astype(target)
        out[name] = value
    return out


def quantize_bundle(
    path: str | os.PathLike,
    out_path: str | os.PathLike,
    mode: str = "int8",
    gate: float | None = None,
    gate_windows: int = 4,
    seed: int = 0,
) -> str:
    """Re-write a float bundle with quantized weights; returns the header path.

    ``int8`` stores every floating parameter of rank >= 2 as symmetric
    per-channel int8 along its last axis, with float32 scales riding
    next to it under ``param_scale/``; rank-1 parameters (biases, gains)
    are tiny and precision-critical, so they stay float. ``float16``
    simply halves every floating parameter. The header records the mode
    and the quantized parameter names — the format version does not
    change, and :func:`load_bundle` dequantizes transparently.

    ``gate`` (e.g. ``0.01``) enforces the accuracy contract: after
    writing, the quantized bundle's forecasts on ``gate_windows``
    synthetic windows must stay within that relative MAE drift of the
    source bundle's, or the output files are removed and
    :class:`~repro.errors.QuantizationError` raises.
    """
    if mode not in QUANT_MODES:
        raise QuantizationError(
            f"unknown quantization mode {mode!r}; choose from {QUANT_MODES}"
        )
    npz_path, json_path = _bundle_paths(path)
    with open(json_path, encoding="utf-8") as handle:
        header = json.load(handle)
    if header.get("format_version") != FORMAT_VERSION:
        raise BundleFormatError(
            f"bundle {json_path!r} has format version "
            f"{header.get('format_version')!r}, "
            f"this build reads version {FORMAT_VERSION}"
        )
    if header.get("quantization"):
        raise QuantizationError(
            f"bundle {json_path!r} is already quantized "
            f"({header['quantization']['mode']}); quantize the float original"
        )
    with np.load(npz_path) as archive:
        arrays = {name: archive[name] for name in archive.files}

    out_arrays: dict[str, np.ndarray] = {}
    quantized: list[str] = []
    for name, value in arrays.items():
        if not (
            name.startswith(_PARAM_PREFIX)
            and np.issubdtype(value.dtype, np.floating)
        ):
            out_arrays[name] = value
            continue
        pname = name[len(_PARAM_PREFIX):]
        if mode == "float16":
            out_arrays[name] = value.astype(np.float16)
            quantized.append(pname)
        elif value.ndim >= 2:
            # Symmetric per-channel int8: one scale per slice of the
            # last axis, sized so the channel's absmax maps to 127.
            absmax = np.max(np.abs(value), axis=tuple(range(value.ndim - 1)))
            scale = np.where(absmax > 0, absmax / 127.0, 1.0).astype(np.float32)
            out_arrays[name] = np.clip(
                np.rint(value / scale), -127, 127
            ).astype(np.int8)
            out_arrays[_SCALE_PREFIX + pname] = scale
            quantized.append(pname)
        else:
            out_arrays[name] = value

    out_npz, out_json = _bundle_paths(out_path)
    if os.path.abspath(out_npz) == os.path.abspath(npz_path):
        raise QuantizationError(
            "quantize_bundle must not overwrite its float source; "
            "pick a different output path"
        )
    parent = os.path.dirname(out_npz)
    if parent:
        os.makedirs(parent, exist_ok=True)
    header = dict(header)
    header["quantization"] = {"mode": mode, "params": sorted(quantized)}
    header["arrays_file"] = os.path.basename(out_npz)
    np.savez(out_npz, **out_arrays)
    with open(out_json, "w", encoding="utf-8") as handle:
        json.dump(header, handle, indent=2, sort_keys=True)
        handle.write("\n")

    if gate is not None:
        drift = quantization_mae_drift(
            path, out_path, num_windows=gate_windows, seed=seed
        )
        if drift > gate:
            os.remove(out_npz)
            os.remove(out_json)
            raise QuantizationError(
                f"{mode} quantization drifts {drift:.3%} relative MAE from "
                f"the float32 bundle, above the {gate:.3%} gate"
            )
    return out_json


def quantization_mae_drift(
    reference: str | os.PathLike | ModelBundle,
    quantized: str | os.PathLike | ModelBundle,
    num_windows: int = 4,
    missing_rate: float = 0.2,
    seed: int = 0,
) -> float:
    """Relative MAE between two bundles' forecasts on synthetic windows.

    Draws ``num_windows`` windows in the training distribution (unit
    normals pushed through the reference scaler), knocks out a
    ``missing_rate`` share of observations, and returns
    ``mean|pred_q - pred_ref| / mean|pred_ref|`` in original units —
    the quantity the <=1% quantization accuracy gate is defined over.
    """
    ref = reference if isinstance(reference, ModelBundle) else load_bundle(reference)
    quant = quantized if isinstance(quantized, ModelBundle) else load_bundle(quantized)
    rng = np.random.default_rng(seed)
    dtype = default_dtype()
    shape = (num_windows, ref.input_length, ref.num_nodes, ref.num_features)
    raw = ref.scaler.inverse_transform(
        rng.standard_normal(shape).astype(dtype)
    )
    m = (rng.random(shape) >= missing_rate).astype(dtype)
    x = np.where(m > 0, raw, 0.0).astype(dtype)
    steps_per_day = ref.data_config.steps_per_day
    offsets = rng.integers(0, steps_per_day, size=num_windows)
    steps = (
        offsets[:, None] + np.arange(ref.input_length)[None, :]
    ) % steps_per_day

    from ..autodiff import inference_mode  # local: avoid import cycle noise

    def predict(bundle: ModelBundle) -> np.ndarray:
        x_scaled = bundle.scaler.transform(x, m)
        with inference_mode():
            out = bundle.model(x_scaled, m, steps)
        return bundle.scaler.inverse_transform(out.prediction.data)

    pred_ref = predict(ref)
    pred_quant = predict(quant)
    denom = float(np.mean(np.abs(pred_ref)))
    if denom == 0.0:
        return float(np.mean(np.abs(pred_quant - pred_ref)))
    return float(np.mean(np.abs(pred_quant - pred_ref)) / denom)


def load_bundle(path: str | os.PathLike) -> ModelBundle:
    """Load a bundle written by :func:`export_bundle`.

    Verifies the format version and parameter shapes; the rebuilt model
    carries exactly the exported weights.
    """
    npz_path, json_path = _bundle_paths(path)
    with open(json_path, encoding="utf-8") as handle:
        header = json.load(handle)

    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise BundleFormatError(
            f"bundle {json_path!r} has format version {version!r}, "
            f"this build reads version {FORMAT_VERSION}"
        )
    model_name = header["model_name"]
    if model_name not in NEURAL_MODELS:
        raise BundleModelError(
            f"bundle {json_path!r} names unknown model {model_name!r}"
        )

    with np.load(npz_path) as archive:
        arrays = {name: archive[name] for name in archive.files}

    quant = header.get("quantization")
    if quant is not None:
        arrays = _dequantize_arrays(arrays, quant, npz_path)

    data_config = _config_from_dict(DataConfig, header["data_config"])
    model_config = _config_from_dict(ModelConfig, header["model_config"])
    adjacency = arrays["graph/adjacency"]

    graph_set = None
    graph_header = header.get("graphs")
    if graph_header is not None:
        partition = TimelinePartition(
            boundaries=tuple(graph_header["partition"]["boundaries"]),
            steps_per_day=graph_header["partition"]["steps_per_day"],
            score=graph_header["partition"]["score"],
        )
        temporal = [
            arrays[f"graph/temporal/{idx}"]
            for idx in range(graph_header["num_temporal"])
        ]
        graph_set = HeterogeneousGraphSet(
            geographic=arrays["graph/geographic"],
            temporal=temporal,
            partition=partition,
            membership_mode=graph_header["membership_mode"],
            membership_temperature=graph_header["membership_temperature"],
        )

    rebuild = _RebuildContext(
        data_config=data_config,
        model_config=model_config,
        num_nodes=header["num_nodes"],
        num_features=header["num_features"],
        adjacency=adjacency,
        graph_set=graph_set,
    )
    # load_state_dict overwrites (and shape-checks) every parameter, so
    # the rebuild draws no initial weights.
    with init.no_draw():
        model = NEURAL_MODELS[model_name](rebuild)

    state = {
        name[len(_PARAM_PREFIX):]: value
        for name, value in arrays.items()
        if name.startswith(_PARAM_PREFIX)
    }
    try:
        model.load_state_dict(state)
    except CheckpointError as exc:
        raise type(exc)(f"bundle {npz_path!r}: {exc}") from None

    scaler = ZScoreScaler(per_node=header["scaler"]["per_node"])
    # A bundle exported under another dtype policy serves under this one:
    # load_state_dict already cast (and warned about) the weights, so the
    # scaler statistics follow the same policy to keep inference uniform.
    scaler.mean_ = arrays["scaler/mean"].astype(default_dtype(), copy=False)
    scaler.std_ = arrays["scaler/std"].astype(default_dtype(), copy=False)

    return ModelBundle(
        model=model,
        scaler=scaler,
        model_name=model_name,
        data_config=data_config,
        model_config=model_config,
        adjacency=adjacency,
        graph_set=graph_set,
        header=header,
    )


# ----------------------------------------------------------------------
# Fleet manifests: one JSON file describing a whole multi-tenant pool.
# ----------------------------------------------------------------------

def save_fleet_manifest(fleet, path: str | os.PathLike) -> str:
    """Write a :class:`~repro.serve.config.FleetConfig` as a JSON manifest.

    Bundle references inside the fleet are stored verbatim; relative
    paths are resolved against the manifest's directory at load time, so
    a manifest can travel with its bundles as one directory.
    """
    from .config import FleetConfig

    if not isinstance(fleet, FleetConfig):
        raise BundleFormatError(
            f"save_fleet_manifest needs a FleetConfig, got {type(fleet).__name__}"
        )
    out = os.fspath(path)
    if not out.endswith(".json"):
        out += ".json"
    payload = {"format_version": FLEET_FORMAT_VERSION, **to_dict(fleet)}
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def load_fleet_manifest(path: str | os.PathLike):
    """Read a fleet manifest; returns ``(FleetConfig, base_dir)``.

    ``base_dir`` is the manifest's directory — pass it to
    :func:`~repro.serve.fleet.build_pool` so relative bundle references
    resolve next to the manifest.
    """
    from .config import FleetConfig

    manifest = os.fspath(path)
    try:
        with open(manifest, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise BundleFormatError(f"fleet manifest {manifest!r} not found") from None
    except json.JSONDecodeError as error:
        raise BundleFormatError(
            f"fleet manifest {manifest!r} is not valid JSON: {error}"
        ) from error
    if not isinstance(payload, dict):
        raise BundleFormatError(
            f"fleet manifest {manifest!r} must be a JSON object"
        )
    version = payload.pop("format_version", None)
    if version != FLEET_FORMAT_VERSION:
        raise BundleFormatError(
            f"fleet manifest {manifest!r} has format version {version!r}; "
            f"this build reads version {FLEET_FORMAT_VERSION}"
        )
    fleet = from_dict(FleetConfig, payload, "manifest")
    return fleet, os.path.dirname(os.path.abspath(manifest))
