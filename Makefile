# CI as a script: every gate the workflow runs, runnable locally with no
# network.  `make ci` is what .github/workflows/ci.yml calls, target by
# target; `gates` comes last because it carries the rows known to fail:
# fixed per-RPC observer costs read as a share of an echo that keeps
# getting cheaper (race detector, sampled profiler, sampled xray on the
# RPC path; ROADMAP item 1).

PY := PYTHONPATH=src python

.PHONY: ci lint test gates e2e contract census

ci: lint test e2e contract gates

# Every static rule + the config boot check over the gate's roots
# (`repro lint` with no paths), twice (the report must be
# byte-identical), then mochi-race: happens-before + lock order +
# schedule exploration, and the example services under the sanitizer.
lint:
	$(PY) -m repro lint
	$(PY) -m repro lint --format json > lint-run-1.json || true
	$(PY) -m repro lint --format json > lint-run-2.json || true
	cmp lint-run-1.json lint-run-2.json
	$(PY) -m repro race --seeds 8
	REPRO_SANITIZE=race $(PY) -m pytest -x -q tests/test_race_services.py

mochi-lint.sarif:
	$(PY) -m repro lint --format sarif > $@ || true

# Tier-1, then the pins that must also hold with the race sanitizer on.
test:
	$(PY) -m pytest -x -q
	REPRO_SANITIZE=race $(PY) -m pytest -x -q tests/test_xray.py -k determinism
	REPRO_SANITIZE=race $(PY) -m pytest -x -q tests/test_yokan_provider.py -k cost_model
	REPRO_SANITIZE=race $(PY) -m pytest -x -q tests/test_margo_rpc_pin.py

# Overhead gates: exits 1 when a gated row fails.
gates:
	$(PY) benchmarks/bench_overhead.py

# End-to-end benchmark: its own suite, then a traced smoke of every
# workload: the batch path, the composed object store (reply checks +
# final blob census over the Warabi/storage path), the bypass workload,
# and the churn (the only one with cancellable timers and observers).
e2e:
	python -m pytest benchmarks/e2e -q
	python benchmarks/e2e/run.py --workload kv_batch_scan --seed 1 --seconds 3 --trace 1
	python benchmarks/e2e/run.py --workload objstore_mixed --seed 1 --seconds 3 --trace 1
	python benchmarks/e2e/run.py --workload rpc_echo --seed 1 --seconds 3 --trace 1
	python benchmarks/e2e/run.py --workload reconfig_churn --seed 1 --seconds 3 --trace 1

# Not a gate: which layer allocated what the object store holds, after
# preload and after the timed phase (ROADMAP item 6's instrument).
census:
	python benchmarks/mem_census.py

# Behaviour contract: every E*/A* table regenerates byte-identical.
contract:
	python -m pytest -q benchmarks/bench_e*.py benchmarks/bench_a*.py
	git diff --exit-code -- 'benchmarks/results/E*.json' 'benchmarks/results/A*.json'
