PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-fast test-slow test-numpy-kernels chaos chaos-smoke \
	bench bench-report examples smoke service-smoke experiments-smoke \
	docs-check perfbench-smoke

## tier-1 test suite (what CI gates on) — includes the doc
## coverage and docs link-checker gates
test:
	$(PYTHON) -m pytest -x -q

## tier-1 minus @pytest.mark.slow (service HTTP lifecycle, bench
## smoke, characterization grids, subprocess determinism probes) —
## the quick inner-loop run; CI runs fast and slow as parallel jobs
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

## the slow tier only — exact complement of test-fast, so the two
## lanes together cover everything `make test` covers
test-slow:
	$(PYTHON) -m pytest -x -q -m "slow"

## the kernel parity suites on the forced numpy tier (docs/kernels.md):
## the reference tier must keep running every engine path, the
## device-level batched paths and the MC evaluators (fit cache, device
## pairs, lane-batched ring/VTC campaigns) on its own, not only as the
## other side of the compiled-tier comparisons
NUMPY_KERNEL_SUITES := tests/test_kernels.py tests/test_sparse_backend.py \
	tests/test_batch_parity.py tests/test_partition.py \
	tests/test_mna_twophase.py tests/test_newton_reuse.py \
	tests/test_batch_sim.py tests/test_logic.py tests/test_device.py \
	tests/test_sweep.py tests/test_fit_cache.py \
	tests/test_variability_circuits.py
test-numpy-kernels:
	REPRO_KERNELS=numpy $(PYTHON) -m pytest -x -q $(NUMPY_KERNEL_SUITES)

## full chaos suite (docs/robustness.md): seeded fault plans over
## campaign/exprunner/service workloads, asserting fault-free parity —
## includes the heavy @slow cases (service bursts, deadline jobs)
chaos:
	$(PYTHON) -m pytest tests/test_chaos.py -x -q

## the quick chaos subset (fault-plan mechanics, cancel tokens,
## kernel/solver seams, exprunner quarantine) — what CI smokes on
## every push; the @slow remainder rides the test-slow lane
chaos-smoke:
	$(PYTHON) -m pytest tests/test_chaos.py -x -q -m "not slow"

## docs gates only: markdown cross-links + public-API doc coverage
docs-check:
	$(PYTHON) -m pytest tests/test_docs_links.py \
		tests/test_doc_coverage.py -q

## tiny end-to-end campaigns + example scripts (CI smoke):
## a seeded device-metric MC with TT/FF/SS corners, the same run again
## against the run directory to exercise resume, a small circuit-level
## (inverter VTC) campaign, a gate-characterization run, the
## hierarchical 4-bit adder deck through both solver backends (its own
## BE .tran directive, then a trap transient, each) and as a
## partitioned transient, and the transient/characterization/netlist example
## scripts.
smoke:
	rm -rf .smoke-mc
	$(PYTHON) -m repro mc --samples 64 --seed 7 --chunk-size 32 \
		--run-dir .smoke-mc --corners
	$(PYTHON) -m repro mc --samples 64 --seed 7 --chunk-size 32 \
		--run-dir .smoke-mc --json > /dev/null
	$(PYTHON) -m repro mc --samples 8 --seed 7 --workload inverter
	$(PYTHON) -m repro characterize --gate nand2 --loads 0.01,0.04 \
		--slews 1,4 --json > /dev/null
	$(PYTHON) -m repro netlist examples/decks/adder4.cir \
		--backend sparse --nodes s0,s3,cout
	$(PYTHON) -m repro netlist examples/decks/adder4.cir \
		--backend dense --json > /dev/null
	$(PYTHON) -m repro transient examples/decks/adder4.cir \
		--backend dense --json > /dev/null
	$(PYTHON) -m repro transient examples/decks/adder4.cir \
		--backend sparse --json > /dev/null
	$(PYTHON) -m repro transient examples/decks/adder4.cir \
		--partition auto --json > /dev/null
	$(PYTHON) examples/ring_oscillator.py
	$(PYTHON) examples/gate_characterization.py
	$(PYTHON) examples/netlist_simulation.py
	rm -rf .smoke-mc

## process-level service smoke: launches `repro serve` as a real
## subprocess, drives it over HTTP (same-topology burst -> coalescing
## asserted from /metrics, cache hit, mixed topology), and requires a
## clean remote shutdown with exit code 0.
service-smoke:
	$(PYTHON) examples/service_demo.py

## experiment-runner smoke: execute the 2x2x2 smoke matrix with a
## simulated interrupt (--max-runs 3), resume to completion, then
## regenerate the report twice and require byte-identical run tables
## and reports (the exprunner determinism contract, end to end).
experiments-smoke:
	$(PYTHON) examples/experiments_smoke.py

## full paper-reproduction benchmark suite + perf snapshot.
## Fails when the Table I speed-up assertions regress (pytest) or the
## ISSUE 1 batch/transient floors regress (bench_report --check).
bench:
	$(PYTHON) -m pytest benchmarks -q \
		--benchmark-json=.benchmarks/bench_latest.json
	$(PYTHON) benchmarks/bench_report.py --name perf --check

## benchmark smoke (perfbench/README.md): every BENCHMARK.json workload
## for 3 s; fails unless the last JSON line reports correct outputs and
## no failed operations (run.py itself exits 0 either way)
PERFBENCH_WORKLOADS := adder_ripple adder_hold mc_ring service_stream
PERFBENCH_CHECK := import json, sys; \
	r = json.loads(sys.stdin.read().splitlines()[-1]); \
	sys.exit(0 if r["correct"] is True and r["failed"] == 0 \
	else "perfbench run not clean: " + json.dumps(r))
perfbench-smoke:
	@for w in $(PERFBENCH_WORKLOADS); do \
		echo "perfbench-smoke: $$w"; \
		$(PYTHON) perfbench/run.py --workload $$w --seed 0 --seconds 3 \
			| $(PYTHON) -c '$(PERFBENCH_CHECK)' || exit 1; \
	done

## refresh the committed BENCH_perf.json without the pass/fail gate
bench-report:
	$(PYTHON) benchmarks/bench_report.py --name perf

examples:
	$(PYTHON) examples/quickstart.py
