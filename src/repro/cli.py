"""Command-line interface: ``repro-cnt`` / ``python -m repro``.

Subcommands
-----------
``iv``           print an IV family for the fast or reference model
``fit``          fit a model and print its piecewise regions
``table``        regenerate a paper table (1, 2, 3, 4 or 5)
``figure``       regenerate a paper figure (2-11)
``codegen``      emit VHDL-AMS / Verilog-A / SPICE for a fitted device
``mc``           run a variability Monte-Carlo campaign
``characterize`` delay/slew/energy tables for a logic gate
``netlist``      parse a SPICE-flavoured deck and run its analyses
``transient``    run one transient on a deck, optionally partitioned
                 (``--partition auto``, latency bypass) and/or
                 streamed to an on-disk store (``--store DIR``) —
                 see ``docs/partitioning.md``
``partition-report``  print the block structure a partitioned
                 transient would use (block count, size histogram,
                 boundary-node count)
``serve``        run the HTTP job server (see ``docs/service.md``)
``experiments``  run a declarative experiment config (factors x levels
                 x repetitions) into a resumable run directory with a
                 documented ``run_table.csv`` — see
                 ``docs/experiments.md``

``iv``, ``table``, ``mc`` and ``characterize`` accept ``--seed`` and
``--json`` so one-off runs and campaign runs are scriptable the same
way (``--json`` prints a machine-readable payload; the seed is echoed
in it and, where an experiment is stochastic, drives its random
stream).  ``netlist``, ``mc`` and ``characterize`` accept
``--backend {auto,dense,sparse}`` to pick the linear-solver backend
(auto switches to sparse at the measured dense/sparse crossover
dimension; see ``docs/hierarchy.md``) and
``--kernels {auto,numpy,compiled}`` to pick the hot-kernel tier
(auto prefers the compiled tier — the system C compiler through
ctypes — falling back to numpy; see ``docs/kernels.md``).  Process counts for
``mc`` (default: all cores) and ``characterize`` (default: 1) come
from ``--workers``; ``auto`` honours the ``REPRO_WORKERS``
environment variable before falling back to ``os.cpu_count()``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np


def _device_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--diameter-nm", type=float, default=1.0)
    parser.add_argument("--tox-nm", type=float, default=1.5)
    parser.add_argument("--kappa", type=float, default=3.9)
    parser.add_argument("--temperature", type=float, default=300.0)
    parser.add_argument("--fermi-level", type=float, default=-0.32)
    parser.add_argument("--gate", choices=("coaxial", "backgate"),
                        default="coaxial")
    parser.add_argument("--model", choices=("model1", "model2", "reference"),
                        default="model2")


def _script_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags shared by the scriptable subcommands (iv/table/mc)."""
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for any stochastic ingredient "
                             "(echoed in --json output)")
    parser.add_argument("--json", action="store_true",
                        help="print a machine-readable JSON payload")


def _backend_argument(parser: argparse.ArgumentParser) -> None:
    """The linear-solver backend flag shared by circuit subcommands."""
    parser.add_argument("--backend", choices=("auto", "dense", "sparse"),
                        default="auto",
                        help="linear-solver backend for the circuit "
                             "engine (auto picks sparse above the "
                             "dense/sparse crossover dimension)")
    parser.add_argument("--kernels",
                        choices=("auto", "numpy", "compiled", "cc"),
                        default="auto",
                        help="hot-kernel tier (auto prefers compiled "
                             "— the system C compiler — and falls "
                             "back to numpy; overrides the "
                             "REPRO_KERNELS environment variable)")


def _dump_json(payload) -> str:
    """Strict RFC 8259 output: non-finite floats (failed runs report
    NaN metrics) become ``null`` so any consumer can parse it."""
    def sanitize(obj):
        if isinstance(obj, float):
            return obj if math.isfinite(obj) else None
        if isinstance(obj, dict):
            return {k: sanitize(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [sanitize(v) for v in obj]
        return obj

    return json.dumps(sanitize(payload), indent=1, allow_nan=False)


def _build_device(args):
    from repro.pwl.device import CNFET
    from repro.reference.fettoy import FETToyModel, FETToyParameters

    params = FETToyParameters(
        diameter_nm=args.diameter_nm,
        tox_nm=args.tox_nm,
        kappa=args.kappa,
        temperature_k=args.temperature,
        fermi_level_ev=args.fermi_level,
        gate_geometry=args.gate,
    )
    if args.model == "reference":
        return FETToyModel(params)
    return CNFET(params, model=args.model)


def _cmd_iv(args) -> int:
    from repro.experiments.report import ascii_table

    device = _build_device(args)
    vgs = np.arange(args.vg_start, args.vg_stop + 1e-9, args.vg_step)
    vds = np.linspace(0.0, args.vd_stop, args.vd_points)
    family = device.iv_family(vgs, vds)
    if args.json:
        print(_dump_json({
            "command": "iv",
            "model": args.model,
            "seed": args.seed,
            "vg": [float(v) for v in vgs],
            "vds": [float(v) for v in vds],
            "ids": family.tolist(),
        }))
        return 0
    rows = []
    for j, vd in enumerate(vds):
        rows.append([float(vd)] + [float(family[i, j])
                                   for i in range(len(vgs))])
    headers = ["VDS [V]"] + [f"VG={vg:.2f}" for vg in vgs]
    print(ascii_table(headers, rows,
                      title=f"IDS [A] ({args.model})"))
    return 0


def _cmd_fit(args) -> int:
    device = _build_device(args)
    if not hasattr(device, "fitted"):
        print("fit applies to model1/model2 only", file=sys.stderr)
        return 2
    fitted = device.fitted
    print(f"model: {fitted.spec.name}  T={fitted.temperature_k} K  "
          f"EF={fitted.fermi_level_ev} eV")
    print(f"charge-fit RMS: {100 * fitted.rms_error_relative:.3f}% of peak")
    print(fitted.curve.describe())
    return 0


def _cmd_table(args) -> int:
    from repro.experiments import runners
    from repro.experiments.report import jsonify

    if args.number == 1:
        result = runners.run_table1()
    elif args.number in (2, 3, 4):
        fermi = {2: -0.32, 3: -0.5, 4: 0.0}[args.number]
        result = runners.run_rms_table(fermi)
    else:
        # Table V compares against the synthetic measurement set, whose
        # ripple is the one stochastic ingredient — the seed re-rolls it.
        result = runners.run_table5(seed=args.seed)
    if args.json:
        print(_dump_json({"command": "table", "number": args.number,
                          "seed": args.seed, "result": jsonify(result)}))
    else:
        print(result.render())
    return 0


def _cmd_mc(args) -> int:
    from repro.experiments.report import ascii_table
    from repro.experiments.workloads import variability_workload
    from repro.parallel import resolve_workers
    from repro.variability.campaign import Campaign, CampaignConfig
    from repro.variability.params import CORNERS, corner_sample

    workers = resolve_workers(args.workers)
    # The device workloads are already batched in-process; they shard
    # at the chunk level (campaign.run) only, so the factory keeps its
    # workers-free contract for them.
    factory_workers = (1 if args.workload in ("device",
                                              "device-chirality")
                       else workers)
    space, evaluator = variability_workload(
        args.workload, sigma_scale=args.sigma_scale, vdd=args.vdd,
        model=args.model, stages=args.stages, workers=factory_workers,
        metrics=args.metric, gate=args.gate,
        use_batch=not args.no_batch, backend=args.backend,
    )
    config = CampaignConfig(
        name=args.workload, n_samples=args.samples,
        seed=0 if args.seed is None else args.seed,
        sampler=args.sampler, chunk_size=args.chunk_size,
    )
    campaign = Campaign(config, space, evaluator, run_dir=args.run_dir)
    result = campaign.run(resume=not args.no_resume, workers=workers)

    corners = None
    if args.corners:
        corners = {}
        for corner in sorted(CORNERS):
            sample = corner_sample(space, corner)
            corners[corner] = evaluator.evaluate([sample])[0]

    if args.json:
        payload = result.to_json_dict()
        if corners is not None:
            payload["corners"] = corners
        print(_dump_json(payload))
        return 0
    print(result.render(histograms=args.histograms))
    if corners is not None:
        metric_names = result.metric_names
        rows = [[corner] + [corners[corner].get(m, float("nan"))
                            for m in metric_names]
                for corner in sorted(corners)]
        print()
        print(ascii_table(["corner"] + metric_names, rows,
                          title="Process corners"))
    if result.run_dir:
        print(f"\nrun directory: {result.run_dir} "
              f"({result.resumed_chunks} chunks resumed, "
              f"{result.computed_chunks} computed)")
    return 0


def _cmd_characterize(args) -> int:
    from repro.characterize import characterize_gate
    from repro.circuit.logic import LogicFamily

    family = LogicFamily.default(vdd=args.vdd, model=args.model)
    loads = tuple(float(c) * 1e-15 for c in args.loads.split(","))
    slews = tuple(float(s) * 1e-12 for s in args.slews.split(","))
    table = characterize_gate(family, args.gate, loads=loads,
                              slews=slews,
                              use_batch=not args.no_batch,
                              backend=args.backend,
                              workers=args.workers)
    if args.json:
        payload = table.to_json_dict()
        payload["command"] = "characterize"
        payload["seed"] = args.seed
        print(_dump_json(payload))
    elif args.format == "csv":
        print(table.to_csv(), end="")
    elif args.format == "liberty":
        print(table.to_liberty(), end="")
    else:
        print(table.render())
    return 0


def _cmd_netlist(args) -> int:
    from repro.circuit.dc import dc_sweep, operating_point
    from repro.circuit.parser import parse_netlist
    from repro.circuit.transient import transient
    from repro.experiments.report import sparkline

    if args.deck == "-":
        text = sys.stdin.read()
        title = "<stdin>"
    else:
        with open(args.deck) as handle:
            text = handle.read()
        title = args.deck
    deck = parse_netlist(text, title=title)
    circuit = deck.circuit
    payload = {
        "command": "netlist", "deck": title, "backend": args.backend,
        "elements": len(circuit.elements), "nodes": circuit.n_nodes,
        "subcircuits": sorted(deck.subcircuits), "analyses": [],
    }
    if not args.json:
        print(f"parsed {title}: {len(circuit.elements)} elements, "
              f"{circuit.n_nodes} nodes, {len(deck.subcircuits)} "
              f"subcircuit definitions, {len(deck.analyses)} analyses "
              f"[backend={args.backend}]")
    shown = args.nodes.split(",") if args.nodes else circuit.nodes[:4]
    if not deck.analyses:
        op = operating_point(circuit, backend=args.backend)
        entry = {"kind": "op",
                 "voltages": {n: op.voltage(n) for n in circuit.nodes}}
        payload["analyses"].append(entry)
        if not args.json:
            print("\noperating point:")
            for node in shown:
                print(f"  v({node}) = {op.voltage(node):.6g} V")
    for directive in deck.analyses:
        if directive.kind == "dc":
            values = np.linspace(
                directive.params["start"], directive.params["stop"],
                int(directive.params["points"]),
            )
            ds = dc_sweep(circuit, directive.source, values,
                          backend=args.backend)
            entry = {"kind": "dc", "source": directive.source,
                     "points": len(values),
                     "final": {f"v({n})": float(ds.voltage(n)[-1])
                               for n in shown}}
            payload["analyses"].append(entry)
            if not args.json:
                print(f"\n.dc sweep of {directive.source} "
                      f"({len(values)} points):")
                for node in shown:
                    print(f"  v({node}): "
                          f"{sparkline(ds.voltage(node), 50)}")
        else:
            stats: dict = {}
            ds = transient(
                circuit, tstop=directive.params["tstop"],
                dt=directive.params["tstep"], method=directive.method,
                record_currents="sources", stats=stats,
                backend=args.backend,
            )
            entry = {"kind": "tran", "method": directive.method,
                     "steps": stats.get("steps", 0),
                     "newton_iterations": stats.get("iterations", 0),
                     "final": {f"v({n})": float(ds.voltage(n)[-1])
                               for n in shown}}
            payload["analyses"].append(entry)
            if not args.json:
                print(f"\n.tran ({directive.method}), "
                      f"{len(ds.axis)} time points, "
                      f"{stats.get('iterations', 0)} Newton "
                      f"iterations:")
                for node in shown:
                    print(f"  v({node}): "
                          f"{sparkline(ds.voltage(node), 50)}")
    if args.json:
        print(_dump_json(payload))
    return 0


def _read_deck(path: str):
    from repro.circuit.parser import parse_netlist

    if path == "-":
        return parse_netlist(sys.stdin.read(), title="<stdin>"), "<stdin>"
    with open(path) as handle:
        text = handle.read()
    return parse_netlist(text, title=path), path


def _cmd_transient(args) -> int:
    from repro.circuit.transient import transient
    from repro.experiments.report import sparkline

    deck, title = _read_deck(args.deck)
    circuit = deck.circuit
    tstop, tstep = args.tstop, args.dt
    if tstop is None or tstep is None:
        # fall back to the deck's own .tran directive
        for directive in deck.analyses:
            if directive.kind == "tran":
                tstop = directive.params["tstop"] if tstop is None \
                    else tstop
                tstep = directive.params["tstep"] if tstep is None \
                    else tstep
                break
    if tstop is None:
        print("error: no --tstop and the deck has no .tran directive",
              file=sys.stderr)
        return 2
    stats: dict = {}
    ds = transient(
        circuit, tstop=tstop, dt=tstep, method=args.method,
        record_currents="sources" if args.store is None else False,
        stats=stats, backend=args.backend,
        partition=args.partition, bypass_tol=args.bypass_tol,
        store=args.store, store_chunk_rows=args.store_chunk_rows,
    )
    shown = args.nodes.split(",") if args.nodes else circuit.nodes[:4]
    payload = {
        "command": "transient", "deck": title,
        "partition": args.partition, "store": args.store,
        "steps": stats.get("steps", 0),
        "newton_iterations": stats.get("iterations", 0),
        "time_points": int(ds.axis.shape[0]),
        "partition_stats": {k: v for k, v in stats.items()
                            if k.startswith("partition_")},
        "final": {f"v({n})": float(ds.voltage(n)[-1]) for n in shown},
    }
    if args.json:
        print(_dump_json(payload))
        return 0
    print(f"transient on {title}: {payload['time_points']} time "
          f"points, {payload['newton_iterations']} Newton iterations "
          f"[partition={args.partition}]")
    byp = stats.get("partition_block_steps_bypassed")
    if byp is not None:
        active = stats.get("partition_block_steps_active", 0)
        print(f"  block-steps: {active} active, {byp} bypassed")
    for node in shown:
        print(f"  v({node}): {sparkline(ds.voltage(node), 50)}")
    if args.store:
        print(f"  waveforms stored in {args.store}")
    return 0


def _cmd_partition_report(args) -> int:
    from repro.circuit.partition import partition_circuit

    deck, title = _read_deck(args.deck)
    kwargs = {} if args.max_block is None else \
        {"max_block": args.max_block}
    part = partition_circuit(deck.circuit, **kwargs)
    report = part.report()
    if args.json:
        payload = report.as_dict()
        payload["command"] = "partition-report"
        payload["deck"] = title
        print(_dump_json(payload))
        return 0
    print(f"partition of {title}: {report.n_blocks} blocks, "
          f"{report.boundary_nodes} boundary nodes, "
          f"{report.interface_unknowns} interface unknowns "
          f"of {report.total_unknowns} total")
    print("block sizes (unknowns per block):")
    print(report.histogram())
    return 0


def _cmd_serve(args) -> int:
    import sys as _sys

    from repro.service.metrics import StructuredLogger
    from repro.service.server import serve

    logger = StructuredLogger(stream=_sys.stderr)
    print(f"repro service listening on "
          f"http://{args.host}:{args.port} "
          f"(workers={args.workers}, "
          f"batch-window={args.batch_window:g}s, "
          f"cache-size={args.cache_size})", flush=True)
    serve(host=args.host, port=args.port, workers=args.workers,
          batch_window=args.batch_window, cache_size=args.cache_size,
          max_queue=args.max_queue, backend=args.backend,
          logger=logger)
    return 0


def _cmd_experiments(args) -> int:
    from pathlib import Path

    from repro import persist
    from repro.exprunner import (
        ExperimentRunner,
        load_config,
        render_report,
    )

    suite = load_config(args.config)
    run_root = Path(args.run_dir)
    payload = {"suite": suite.name, "experiments": []}
    for config in suite:
        runner = ExperimentRunner(config, run_root / config.name)
        if args.report_only:
            result = runner.load()
        else:
            result = runner.run(resume=not args.no_resume,
                                workers=args.workers,
                                max_runs=args.max_runs)
        report = render_report(config, result.records,
                               pending=result.pending)
        if args.report or args.report_only:
            persist.write_text(Path(result.run_dir) / "report.json",
                               _dump_json(report) + "\n")
        payload["experiments"].append(report)
        if not args.json:
            state = ("complete" if result.complete
                     else f"{result.pending} runs pending")
            print(f"{config.name}: {result.resumed} resumed, "
                  f"{result.computed} computed ({state})")
            for cell in result.cells():
                levels = " ".join(f"{k}={v}"
                                  for k, v in cell["point"].items())
                parity = cell["parity_max"]
                parity_txt = ("" if math.isnan(parity)
                              else f"  parity<={parity:.3g}")
                print(f"  [{levels}]  wall min {cell['wall_s_min']:.4g}s"
                      f" median {cell['wall_s_median']:.4g}s"
                      f" (n={cell['n_ok']}/{cell['n']}){parity_txt}")
    if args.json:
        print(_dump_json(payload))
    return 0


def _cmd_figure(args) -> int:
    from repro.experiments import runners

    n = args.number
    if n == 2:
        print(runners.run_fig2_3("model1").render())
    elif n == 3:
        print(runners.run_fig2_3("model2").render())
    elif n == 4:
        print(runners.run_fig4_5("model1").render())
    elif n == 5:
        print(runners.run_fig4_5("model2").render())
    elif n == 6:
        print(runners.run_fig6_7("model1").render())
    elif n == 7:
        print(runners.run_fig6_7("model2").render())
    elif n == 8:
        print(runners.run_fig8().render())
    elif n == 9:
        print(runners.run_fig9().render())
    elif n == 10:
        print(runners.run_fig10_11("model1").render())
    else:
        print(runners.run_fig10_11("model2").render())
    return 0


def _cmd_codegen(args) -> int:
    from repro.pwl.codegen import (
        generate_spice_subcircuit,
        generate_verilog_a,
        generate_vhdl_ams,
    )

    device = _build_device(args)
    if not hasattr(device, "fitted"):
        print("codegen applies to model1/model2 only", file=sys.stderr)
        return 2
    emitter = {
        "vhdl-ams": generate_vhdl_ams,
        "verilog-a": generate_verilog_a,
        "spice": generate_spice_subcircuit,
    }[args.language]
    print(emitter(device))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cnt",
        description="Ballistic CNFET compact modelling (DATE 2008 "
                    "reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_iv = sub.add_parser("iv", help="print an IV family")
    _device_arguments(p_iv)
    p_iv.add_argument("--vg-start", type=float, default=0.3)
    p_iv.add_argument("--vg-stop", type=float, default=0.6)
    p_iv.add_argument("--vg-step", type=float, default=0.1)
    p_iv.add_argument("--vd-stop", type=float, default=0.6)
    p_iv.add_argument("--vd-points", type=int, default=13)
    _script_arguments(p_iv)
    p_iv.set_defaults(func=_cmd_iv)

    p_fit = sub.add_parser("fit", help="fit and describe a model")
    _device_arguments(p_fit)
    p_fit.set_defaults(func=_cmd_fit)

    p_table = sub.add_parser("table", help="regenerate a paper table")
    p_table.add_argument("number", type=int, choices=(1, 2, 3, 4, 5))
    _script_arguments(p_table)
    p_table.set_defaults(func=_cmd_table)

    p_mc = sub.add_parser(
        "mc", help="run a variability Monte-Carlo campaign")
    p_mc.add_argument("--workload", default="device",
                      choices=("device", "device-chirality", "inverter",
                               "ringosc", "gate"))
    p_mc.add_argument("--samples", type=int, default=256)
    p_mc.add_argument("--sampler", choices=("mc", "lhs"), default="mc")
    p_mc.add_argument("--chunk-size", type=int, default=256)
    p_mc.add_argument("--run-dir", default=None,
                      help="persist per-chunk records here (resumable)")
    p_mc.add_argument("--no-resume", action="store_true",
                      help="ignore existing chunks in --run-dir")
    p_mc.add_argument("--metric", action="append",
                      choices=("ion", "ioff", "vth", "gm",
                               "ion_ioff_ratio"),
                      help="restrict device metrics (repeatable)")
    p_mc.add_argument("--sigma-scale", type=float, default=1.0,
                      help="widen/narrow every knob spread at once")
    p_mc.add_argument("--vdd", type=float, default=0.6)
    p_mc.add_argument("--model", choices=("model1", "model2"),
                      default="model2")
    p_mc.add_argument("--stages", type=int, default=3,
                      help="ring-oscillator stages (ringosc workload)")
    p_mc.add_argument("--gate", default="nand2",
                      help="gate name for the gate workload "
                           "(see `characterize --help`)")
    p_mc.add_argument("--workers", default="auto",
                      help="process count for chunk/lane sharding "
                           "(default: auto = REPRO_WORKERS env if "
                           "set, else all cores)")
    p_mc.add_argument("--no-batch", action="store_true",
                      help="disable the lane-batched circuit engine "
                           "for the circuit workloads (per-sample "
                           "scalar loop, optionally pooled)")
    _backend_argument(p_mc)
    p_mc.add_argument("--corners", action="store_true",
                      help="also evaluate the TT/FF/SS corner devices")
    p_mc.add_argument("--histograms", action="store_true",
                      help="append per-metric ASCII histograms")
    _script_arguments(p_mc)
    p_mc.set_defaults(func=_cmd_mc)

    p_char = sub.add_parser(
        "characterize",
        help="delay/slew/energy lookup tables for a logic gate")
    p_char.add_argument("--gate", default="nand2",
                        choices=("inverter", "nand2", "nor2", "nand3",
                                 "tgate"))
    p_char.add_argument("--loads", default="0.01,0.04,0.08",
                        help="output loads, comma-separated [fF]")
    p_char.add_argument("--slews", default="1,4,10",
                        help="input slews, comma-separated [ps]")
    p_char.add_argument("--vdd", type=float, default=0.6)
    p_char.add_argument("--model", choices=("model1", "model2"),
                        default="model2")
    p_char.add_argument("--format", choices=("ascii", "csv", "liberty"),
                        default="ascii",
                        help="text output format (--json overrides)")
    p_char.add_argument("--no-batch", action="store_true",
                        help="characterize each grid point with its "
                             "own scalar transient instead of one "
                             "lane-batched run")
    p_char.add_argument("--workers", default=1,
                        help="shard the batched grid into this many "
                             "tiles, one forked process each "
                             "('auto' = REPRO_WORKERS env if set, "
                             "else all cores; default 1 keeps the "
                             "single-batch run)")
    _backend_argument(p_char)
    _script_arguments(p_char)
    p_char.set_defaults(func=_cmd_characterize)

    p_net = sub.add_parser(
        "netlist",
        help="parse a SPICE-flavoured deck (with .subckt hierarchy) "
             "and run its analyses")
    p_net.add_argument("deck", help="netlist file path, or '-' for stdin")
    p_net.add_argument("--nodes", default=None,
                       help="comma-separated nodes to report "
                            "(default: first few, sorted)")
    _backend_argument(p_net)
    p_net.add_argument("--json", action="store_true",
                       help="print a machine-readable JSON payload")
    p_net.set_defaults(func=_cmd_netlist)

    p_tran = sub.add_parser(
        "transient",
        help="run one transient on a netlist deck, optionally "
             "partitioned (latency bypass) and/or streamed to an "
             "on-disk waveform store")
    p_tran.add_argument("deck", help="netlist file path, or '-' for stdin")
    p_tran.add_argument("--tstop", type=float, default=None,
                        help="stop time [s] (default: the deck's "
                             ".tran directive)")
    p_tran.add_argument("--dt", type=float, default=None,
                        help="fixed step [s] (default: the deck's "
                             ".tran step, else adaptive)")
    p_tran.add_argument("--method", choices=("trap", "be"),
                        default="trap")
    p_tran.add_argument("--partition", choices=("off", "auto"),
                        default="off",
                        help="partition along subcircuit boundaries "
                             "and skip quiescent blocks "
                             "(docs/partitioning.md)")
    p_tran.add_argument("--bypass-tol", type=float, default=None,
                        help="latency-bypass drift tolerance [V] "
                             "(requires --partition auto; 0 disables "
                             "bypass while keeping the block solve)")
    p_tran.add_argument("--store", default=None, metavar="DIR",
                        help="stream waveforms to a chunked on-disk "
                             "store instead of holding them in memory")
    p_tran.add_argument("--store-chunk-rows", type=int, default=256,
                        help="rows buffered per store chunk")
    p_tran.add_argument("--nodes", default=None,
                        help="comma-separated nodes to report "
                             "(default: first few, sorted)")
    _backend_argument(p_tran)
    p_tran.add_argument("--json", action="store_true",
                        help="print a machine-readable JSON payload")
    p_tran.set_defaults(func=_cmd_transient)

    p_part = sub.add_parser(
        "partition-report",
        help="print the block structure a partitioned transient "
             "would use (block count, size histogram, boundary nodes)")
    p_part.add_argument("deck", help="netlist file path, or '-' for stdin")
    p_part.add_argument("--max-block", type=int, default=None,
                        help="maximum elements per block before a "
                             "group is split further")
    p_part.add_argument("--json", action="store_true",
                        help="print a machine-readable JSON payload")
    p_part.set_defaults(func=_cmd_partition_report)

    p_srv = sub.add_parser(
        "serve",
        help="run the HTTP job server (transient/DC/MC/characterize "
             "jobs with fingerprint caching and lane coalescing)")
    p_srv.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    p_srv.add_argument("--port", type=int, default=8080,
                       help="TCP port; 0 picks a free port")
    p_srv.add_argument("--workers", type=int, default=2,
                       help="scheduler worker threads")
    p_srv.add_argument("--batch-window", type=float, default=0.05,
                       help="seconds a worker waits to coalesce "
                            "same-topology jobs into one lane-batched "
                            "solve (0 disables coalescing)")
    p_srv.add_argument("--cache-size", type=int, default=256,
                       help="fingerprint result-cache entries "
                            "(0 disables caching)")
    p_srv.add_argument("--max-queue", type=int, default=None,
                       help="bound on queued jobs; submissions past "
                            "it get HTTP 503 + Retry-After "
                            "(default: unbounded)")
    _backend_argument(p_srv)
    p_srv.set_defaults(func=_cmd_serve)

    p_exp = sub.add_parser(
        "experiments",
        help="run a declarative experiment config into a resumable "
             "run directory (factors x levels x repetitions)")
    p_exp.add_argument("--config", required=True,
                       help="experiment config JSON (single experiment "
                            "or a suite; see docs/experiments.md)")
    p_exp.add_argument("--run-dir", required=True,
                       help="root run directory; each experiment gets "
                            "a subdirectory with manifest.json, "
                            "runs/rNNNN/record.json and run_table.csv")
    p_exp.add_argument("--no-resume", action="store_true",
                       help="recompute every run, ignoring existing "
                            "records in --run-dir")
    p_exp.add_argument("--workers", default=1,
                       help="shard pending runs over this many forked "
                            "processes ('auto' = REPRO_WORKERS env if "
                            "set, else all cores; default 1)")
    p_exp.add_argument("--max-runs", type=int, default=None,
                       help="execute at most this many pending runs "
                            "per experiment, then stop (incremental "
                            "invocation; resume later)")
    p_exp.add_argument("--report", action="store_true",
                       help="also write report.json per experiment")
    p_exp.add_argument("--report-only", action="store_true",
                       help="regenerate run_table.csv and report.json "
                            "from existing records without executing "
                            "anything")
    p_exp.add_argument("--json", action="store_true",
                       help="print the suite report as JSON instead "
                            "of the per-cell summary lines")
    p_exp.set_defaults(func=_cmd_experiments)

    p_fig = sub.add_parser("figure", help="regenerate a paper figure")
    p_fig.add_argument("number", type=int, choices=tuple(range(2, 12)))
    p_fig.set_defaults(func=_cmd_figure)

    p_gen = sub.add_parser("codegen", help="emit HDL for a fitted device")
    _device_arguments(p_gen)
    p_gen.add_argument("--language",
                       choices=("vhdl-ams", "verilog-a", "spice"),
                       default="vhdl-ams")
    p_gen.set_defaults(func=_cmd_codegen)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    from repro.errors import ReproError

    try:
        if getattr(args, "kernels", "auto") != "auto":
            from repro.pwl.kernels import set_kernel_backend
            set_kernel_backend(args.kernels)
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
