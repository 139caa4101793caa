"""Command-line pipeline: synth -> estimate -> generate -> evaluate / sweep.

All knobs live in a JSON config file (see README for the key reference);
every subcommand takes --seed to override the config seed.  Outputs are
byte-reproducible for a fixed seed.  Exit codes: 0 success, 1 usage error,
2 runtime error.
"""

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, RecourseError
from .estimation import (
    LabeledDataset,
    bootstrap_parameters,
    fit_mixture_moments,
    prior_belief,
    train_logistic,
)
from .harness import (
    Normalization,
    ProblemTemplate,
    ShiftKind,
    SyntheticConfig,
    build_shift_ensemble,
    evaluate,
    generate_recourses,
    generate_synthetic,
    load_csv,
    save_dataset_csv,
    sweep_frontier,
    write_frontier_csv,
)
from .model import (
    ActionabilitySpec,
    ComponentMoments,
    Cost,
    Divergence,
    FeatureVector,
    LinearClassifier,
    MixtureBelief,
    Mode,
)
from .optimizer import SolverConfig


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_CONFIG_DEFAULTS = {
    "mode": "nonparametric",
    "K": 1,
    "rho": [0.1],
    "delta_add": 1.0,
    "margin": 1e-3,
    "cost": "l1",
    "lambda_ls": 0.7,
    "zeta": 1.0,
    "max_iter": 200,
    "station_tol": 1e-4,
    "max_backtracks": 50,
    "restarts": 1,
    "weight_budget": 0.0,
    "divergence": "kl",
    "seed": 0,
    "immutable": [],
    "non_decreasing": [],
    "bootstrap": {"B": 100, "subsample": 0.8, "l2_reg": 1e-4},
    "synthetic": {
        "mu0": [-3.0, -3.0],
        "mu1": [3.0, 3.0],
        "n_per_class": 500,
        "mu_adapt": 0.1,
        "cov_adapt": 0.1,
    },
    "m2": {"subsample": 0.2, "trials": 100, "mode": "shifted-only"},
}


def _check_type(name, value, default):
    """UsageError unless value has the JSON type of its default: an int may
    stand for a float, a bool for no number.  immutable and non_decreasing
    are lists of integers, every other list holds numbers."""
    if isinstance(default, list):
        if not isinstance(value, list):
            raise UsageError(f"config key {name} must be a list, got {value!r}")
        for item in value:
            _check_type(name, item, 0 if name in ("immutable", "non_decreasing") else 0.0)
    elif not (type(value) is type(default) or (type(default), type(value)) == (float, int)):
        raise UsageError(f"config key {name} must be {type(default).__name__}, got {value!r}")
    elif isinstance(value, float) and not math.isfinite(value):
        raise UsageError(f"config key {name} must be finite, got {value!r}")


def _merge(cfg: dict, user: dict, prefix: str = ""):
    for key, value in user.items():
        if key not in cfg:
            raise UsageError(f"unknown config key {prefix + key!r}")
        _check_type(prefix + key, value, cfg[key])
        if isinstance(value, dict):
            _merge(cfg[key], value, f"{prefix}{key}.")
        else:
            cfg[key] = value


def load_config(path) -> dict:
    cfg = json.loads(json.dumps(_CONFIG_DEFAULTS))  # deep copy
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {path}: {exc}")
        if not isinstance(user, dict):
            raise UsageError(f"config {path} must hold a JSON object")
        _merge(cfg, user)
    try:
        if cfg["delta_add"] < 0:
            raise UsageError(f"delta_add must be >= 0, got {cfg['delta_add']}")
        if cfg["margin"] <= 0:
            raise UsageError(f"margin must be > 0, got {cfg['margin']}")
        if cfg["weight_budget"] < 0:
            raise UsageError(f"weight_budget must be >= 0, got {cfg['weight_budget']}")
        if not cfg["rho"] or min(cfg["rho"]) < 0:
            raise UsageError(f"rho must be a nonempty list of radii >= 0, got {cfg['rho']}")
        for key in ("bootstrap", "m2"):
            if not 0 < cfg[key]["subsample"] <= 1:
                raise UsageError(f"{key}.subsample must be in (0, 1], got {cfg[key]['subsample']}")
        if cfg["m2"]["mode"] not in ("shifted-only", "concat"):
            raise UsageError(f"m2.mode must be shifted-only or concat, got {cfg['m2']['mode']!r}")
        for key, value, least in (("seed", cfg["seed"], 0), ("m2.trials", cfg["m2"]["trials"], 1)):
            if value < least:
                raise UsageError(f"{key} must be >= {least}, got {value}")
        if cfg["bootstrap"]["l2_reg"] < 0:
            raise UsageError(f"bootstrap.l2_reg must be >= 0, got {cfg['bootstrap']['l2_reg']}")
        Mode(cfg["mode"]), Cost(cfg["cost"]), Divergence(cfg["divergence"])
        solver_config(cfg, cfg["seed"])
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad config value: {exc}")
    return cfg


def solver_config(cfg: dict, seed: int) -> SolverConfig:
    return SolverConfig(
        lambda_ls=cfg["lambda_ls"],
        zeta=cfg["zeta"],
        max_iter=cfg["max_iter"],
        station_tol=cfg["station_tol"],
        max_backtracks=cfg["max_backtracks"],
        restarts=cfg["restarts"],
        seed=seed,
    )


def _dump_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def save_belief(path, belief: MixtureBelief, theta0: LinearClassifier, scaling=None):
    """Write the belief file; scaling, the Normalization of the features the
    belief was estimated in, is stored only when given."""
    payload = {
        "dimension": belief.dim,
        "weights": belief.weights.tolist(),
        "components": [
            {
                "mean": c.mean.tolist(),
                "covariance": c.cov.tolist(),
                "radius": c.radius,
            }
            for c in belief.components
        ],
        "theta0": theta0.theta.tolist(),
    }
    if scaling is not None:
        payload["normalization"] = {
            "col_min": scaling.col_min.tolist(),
            "col_range": scaling.col_range.tolist(),
        }
    _dump_json(path, payload)


def load_belief(path):
    """(belief, theta0) from a belief file."""
    return _read_belief(path)[:2]


def _read_belief(path):
    """(belief, theta0, the stored Normalization or None)."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read belief {path}: {exc}")
    try:
        comps = tuple(
            ComponentMoments(c["mean"], c["covariance"], c.get("radius", 0.0))
            for c in payload["components"]
        )
        belief = MixtureBelief(comps, payload["weights"])
        theta0 = LinearClassifier(payload["theta0"])
        scaling = payload.get("normalization")
        if scaling is not None:
            scaling = Normalization(
                np.array(scaling["col_min"], dtype=float),
                np.array(scaling["col_range"], dtype=float),
            )
            shape = (belief.dim - 1,)
            if scaling.col_min.shape != shape or scaling.col_range.shape != shape:
                raise ValueError(f"normalization needs {shape[0]} columns")
            if not (np.isfinite(scaling.col_min).all() and (scaling.col_range > 0).all()):
                raise ValueError("normalization needs finite minima and positive ranges")
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed belief {path}: {type(exc).__name__}: {exc}")
    return belief, theta0, scaling


def _belief(args):
    """_read_belief of --belief.  --normalize must say whether the belief
    stores a scaling: every later stage works in the estimate's features."""
    belief, theta0, scaling = _read_belief(args.belief)
    if args.normalize != (scaling is not None):
        state = "stores a feature scaling" if scaling else "was estimated without --normalize"
        raise UsageError(f"--normalize must match the belief, which {state}")
    return belief, theta0, scaling


def _load_data(args, path, belief, scaling):
    """A dataset CSV in the belief's features, which it must match in
    number: scaled by the estimate's Normalization when there is one, never
    by the file's own columns."""
    data, _, _ = load_csv(path, args.label_column)
    if data.features.shape[1] != belief.dim - 1:
        raise DimensionMismatch(
            f"{path}: {data.features.shape[1]} features, the belief has {belief.dim - 1}")
    if scaling is None:
        return data
    return LabeledDataset(scaling.apply(data.features), data.labels)


def _negative_instances(dataset, theta0: LinearClassifier, cap: int | None):
    X = dataset.augmented()
    mask = X @ theta0.theta < 0.0
    picked = np.nonzero(mask)[0]
    if cap is not None:
        picked = picked[:cap]
    return [FeatureVector(X[i]) for i in picked], picked.tolist()


def save_recourses_csv(path, ids, instances, results, errors):
    d = instances[0].dim
    K = next((res.component_probs.size for res in results if res is not None), 0)
    header = (
        ["instance_id"]
        + [f"x0_{j}" for j in range(d)]
        + [f"x_{j}" for j in range(d)]
        + ["objective"]
        + [f"component_prob_{k}" for k in range(K)]
        + ["stationarity", "delta_min", "iterations", "converged", "error"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for ident, x0, res, err in zip(ids, instances, results, errors):
            row = [ident] + [repr(float(v)) for v in x0.values]
            if res is None:
                # every column after x0 blank but the error
                row += [""] * (d + 1 + K + 4) + [err or "unsolved"]
            else:
                row += (
                    [repr(float(v)) for v in res.action.values]
                    + [repr(float(res.objective))]
                    + [repr(float(v)) for v in res.component_probs]
                    + [repr(float(res.stationarity)), repr(float(res.delta_min))]
                    + [res.iterations, int(res.converged), ""]
                )
            writer.writerow(row)


def load_recourses_csv(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        ids, instances, recourses = [], [], []
        names = reader.fieldnames or []
        d = sum(1 for name in names if name.startswith("x0_"))
        required = ["instance_id", "error"]
        required += [f"{prefix}_{j}" for prefix in ("x0", "x") for j in range(max(d, 1))]
        missing = [name for name in required if name not in names]
        if missing:
            raise UsageError(f"recourse CSV {path} lacks the columns {missing}")
        for row in reader:
            if row["error"]:
                continue
            try:
                x0 = [float(row[f"x0_{j}"]) for j in range(d)]
                x = [float(row[f"x_{j}"]) for j in range(d)]
            except (TypeError, ValueError) as exc:
                raise UsageError(f"recourse CSV {path}, line {reader.line_num}: {exc}")
            ids.append(row["instance_id"])
            instances.append(FeatureVector(x0))
            recourses.append(FeatureVector(x))
    return ids, instances, recourses


def _shift_ensemble(args, cfg, seed, belief, scaling, data=None):
    """The m2 ensemble retrained on the --shifted CSVs.  Concat mode also
    trains on the original dataset: data when the caller has it loaded,
    else the --data file."""
    shifted = [_load_data(args, path, belief, scaling) for path in args.shifted]
    m2 = cfg["m2"]
    if m2["mode"] == "concat" and data is None:
        if args.data is None:
            raise UsageError("concat m2 mode needs --data with the original dataset")
        data = _load_data(args, args.data, belief, scaling)
    return build_shift_ensemble(
        shifted,
        subsample=m2["subsample"],
        trials=m2["trials"],
        seed=seed,
        mode=m2["mode"],
        original=data,
    )


def _template(cfg, belief, seed) -> ProblemTemplate:
    return ProblemTemplate(
        belief=belief,
        delta_add=cfg["delta_add"],
        margin=cfg["margin"],
        cost=Cost(cfg["cost"]),
        mode=Mode(cfg["mode"]),
        weight_budget=cfg["weight_budget"],
        divergence=Divergence(cfg["divergence"]),
        actionability=ActionabilitySpec(
            frozenset(cfg["immutable"]), frozenset(cfg["non_decreasing"])
        ),
        config=solver_config(cfg, seed),
    )


# --- subcommands ----------------------------------------------------------------


def _cmd_synth(args, cfg, seed):
    if args.n_shifts < 0:
        raise UsageError(f"--n-shifts must be >= 0, got {args.n_shifts}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    syn = cfg["synthetic"]
    kinds = (
        [ShiftKind.MEAN, ShiftKind.COV, ShiftKind.BOTH]
        if args.kind == "all"
        else [ShiftKind(args.kind)]
    )
    counts = _split_counts(args.n_shifts, len(kinds))
    original = None
    idx = 0
    for kind, count in zip(kinds, counts):
        config = SyntheticConfig(
            mu0=tuple(syn["mu0"]),
            mu1=tuple(syn["mu1"]),
            n_per_class=syn["n_per_class"],
            shift_kind=kind,
            mu_adapt=syn["mu_adapt"],
            cov_adapt=syn["cov_adapt"],
            n_shifts=count,
            seed=seed,
        )
        orig, shifted = generate_synthetic(config)
        if original is None:
            original = orig
            save_dataset_csv(out / "original.csv", original)
        for ds in shifted:
            save_dataset_csv(out / f"shift_{idx:03d}_{kind.value}.csv", ds)
            idx += 1
    print(f"wrote original.csv and {idx} shifted datasets to {out}")
    return 0


def _split_counts(total, parts):
    base = total // parts
    counts = [base] * parts
    counts[-1] += total - base * parts
    return counts


def _cmd_estimate(args, cfg, seed):
    if args.prior_tau is not None and not 0.0 < args.prior_tau < math.inf:
        raise UsageError(f"--prior-tau must be a finite number > 0, got {args.prior_tau}")
    data, _, scaling = load_csv(args.data, args.label_column, normalize=args.normalize)
    theta0 = train_logistic(data, l2_reg=cfg["bootstrap"]["l2_reg"])
    if args.prior_tau is not None:
        belief = prior_belief(theta0.theta, tau=args.prior_tau)
    else:
        sample = bootstrap_parameters(
            data,
            B=cfg["bootstrap"]["B"],
            subsample=cfg["bootstrap"]["subsample"],
            seed=seed,
            l2_reg=cfg["bootstrap"]["l2_reg"],
        )
        belief = fit_mixture_moments(sample, K=cfg["K"], seed=seed)
    rho = cfg["rho"]
    radii = np.resize(np.asarray(rho, dtype=float), belief.n_components)
    belief = belief.with_radius(radii)
    save_belief(args.out, belief, theta0, scaling if args.normalize else None)
    print(f"wrote belief with K={belief.n_components} to {args.out}")
    return 0


def _cmd_generate(args, cfg, seed):
    belief, theta0, scaling = _belief(args)
    data = _load_data(args, args.data, belief, scaling)
    instances, ids = _negative_instances(data, theta0, args.max_instances)
    if not instances:
        raise RecourseError("no negatively classified instances to generate recourse for")
    template = _template(cfg, belief, seed)
    results, errors = generate_recourses(template, instances, workers=args.workers)
    save_recourses_csv(args.out, ids, instances, results, errors)
    n_ok = sum(1 for r in results if r is not None)
    print(f"solved {n_ok}/{len(instances)} instances -> {args.out}")
    return 0 if n_ok else 2


def _cmd_evaluate(args, cfg, seed):
    belief, theta0, scaling = _belief(args)
    ids, instances, recourses = load_recourses_csv(args.recourses)
    if not recourses:
        raise RecourseError(f"no solved recourses in {args.recourses}")
    ensemble = _shift_ensemble(args, cfg, seed, belief, scaling)
    report = evaluate(recourses, instances, theta0, ensemble)
    base = Path(args.out)
    _dump_json(
        base.with_suffix(".json"),
        {
            "m1_validity": report.m1_validity,
            "m2_validity": report.m2_validity,
            "l1_cost": report.l1_cost,
            "l2_cost": report.l2_cost,
            "n_instances": len(recourses),
            "n_classifiers": ensemble.size,
        },
    )
    with open(base.with_suffix(".csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance_id", "m1", "m2", "l1", "l2"])
        for ident, row in zip(ids, report.per_instance):
            writer.writerow(
                [ident, repr(row["m1"]), repr(row["m2"]), repr(row["l1"]), repr(row["l2"])]
            )
    print(
        f"m1={report.m1_validity:.4f} m2={report.m2_validity:.4f} "
        f"l1={report.l1_cost:.4f} l2={report.l2_cost:.4f} "
        f"({report.runtime_seconds:.2f}s) -> {base.with_suffix('.json')}"
    )
    return 0


def _grid(flag, text):
    """The comma-separated values of a sweep grid: finite numbers >= 0."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}")
    if not all(math.isfinite(v) and v >= 0 for v in values):
        raise UsageError(f"{flag} must hold finite numbers >= 0, got {text!r}")
    return values


def _cmd_sweep(args, cfg, seed):
    deltas, rhos = _grid("--deltas", args.deltas), _grid("--rhos", args.rhos)
    belief, theta0, scaling = _belief(args)
    data = _load_data(args, args.data, belief, scaling)
    instances, _ = _negative_instances(data, theta0, args.max_instances)
    if not instances:
        raise RecourseError("no negatively classified instances for the sweep")
    ensemble = _shift_ensemble(args, cfg, seed, belief, scaling, data)
    template = _template(cfg, belief, seed)
    rows = sweep_frontier(template, instances, ensemble, deltas, rhos)
    write_frontier_csv(args.out, rows)
    print(f"wrote {len(rows)} frontier rows to {args.out}")
    return 0


def positive_int(text: str, least: int = 1) -> int:
    value = int(text)
    if value < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    return positive_int(text, 0)


def build_parser() -> _Parser:
    parser = _Parser(prog="robust-recourse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=False, belief=False, shifted=False):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=nonnegative_int, default=None, help="override config seed")
        if data or belief:  # every subcommand but synth reads CSVs
            p.add_argument("--label-column", default="label")
            p.add_argument("--normalize", action="store_true",
                           help="min-max scale features by the scaling estimate stores in the belief")
        if data:
            p.add_argument("--data", required=data == "required", default=None)
        if belief:
            p.add_argument("--belief", required=True)
        if shifted:
            p.add_argument("--shifted", nargs="+", required=True, help="shifted dataset CSVs")

    p = sub.add_parser("synth", help="emit synthetic original + shifted datasets")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--kind", choices=["mean", "cov", "both", "all"], default="all")
    p.add_argument("--n-shifts", type=int, default=100)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("estimate", help="bootstrap retraining -> belief file")
    common(p, data="required")
    p.add_argument("--out", required=True, help="belief JSON path")
    p.add_argument(
        "--prior-tau",
        type=float,
        default=None,
        help="skip bootstrapping: center on theta0 with covariance tau*I (finite, > 0)",
    )
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("generate", help="belief + instances -> recourse CSV")
    common(p, data="required", belief=True)
    p.add_argument("--out", required=True, help="recourse CSV path")
    p.add_argument("--max-instances", type=positive_int, default=None)
    p.add_argument("--workers", type=positive_int, default=1)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("evaluate", help="recourses + shifted data -> report")
    common(p, data=False, belief=True, shifted=True)
    p.add_argument("--data", default=None, help="original dataset (concat m2 mode)")
    p.add_argument("--recourses", required=True)
    p.add_argument("--out", required=True, help="report path stem (.json/.csv)")
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("sweep", help="frontier table over delta_add x rho")
    common(p, data="required", belief=True, shifted=True)
    p.add_argument("--out", required=True, help="frontier CSV path")
    p.add_argument("--deltas", default="0,0.5,1.0,2.0", help="comma-separated delta_add grid")
    p.add_argument("--rhos", default="0.1", help="comma-separated rho grid")
    p.add_argument("--max-instances", type=positive_int, default=None)
    p.set_defaults(fn=_cmd_sweep)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config)
        return args.fn(args, cfg, cfg["seed"] if args.seed is None else args.seed)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except RecourseError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
