# CI as a script: every gate the workflow runs, runnable locally with no
# network.  `make ci` is what .github/workflows/ci.yml calls, target by
# target; `gates` comes last because it is the only wall-clock target:
# the runtime checker (record mode), sampled profiler, sampled xray and
# sampled tracing are gated in normalised µs per RPC (`added_us`); the
# off-path arms are priced in exact call counts by tier-1 `test`.

PY := PYTHONPATH=src python

.PHONY: ci lint test gates e2e contract reach census

ci: lint test e2e contract reach gates

# Every static rule + the config boot check over the gate's roots
# (`repro lint` with no paths), twice (the report must be
# byte-identical; the first run's exit status is the gate), then
# mochi-race: happens-before + lock order + schedule exploration with
# every runtime check recording, and the example services under
# REPRO_SANITIZE=race.
lint:
	$(PY) -m repro lint --format json > lint-run-1.json; status=$$?; \
		$(PY) -m repro lint --format json > lint-run-2.json; \
		cmp lint-run-1.json lint-run-2.json || exit 1; \
		[ $$status -eq 0 ] || { cat lint-run-1.json; exit $$status; }
	$(PY) -m repro race --seeds 8
	REPRO_SANITIZE=race $(PY) -m pytest -x -q tests/test_race_services.py

mochi-lint.sarif:
	$(PY) -m repro lint --format sarif > $@ || true

# Tier-1, the service-controller examples, then the pins that must also
# hold with the runtime checker on (the Yokan differential: a migration
# runs two ULTs over one segment log; the scheduler differential: the
# oracle's own task driver joins the race checker where the kernel's task
# runner did), and strict: the controller's policies, and the services
# that take mutexes (xray's lock convoy, Bedrock's pin loop, Warabi's
# write), where a ULT suspending or finishing with a mutex held raises
# (MCH011, checked only by running).
test:
	$(PY) -m pytest -x -q
	$(PY) examples/resilient_kv.py > /dev/null
	$(PY) examples/elastic_rebalance.py > /dev/null
	$(PY) examples/dynamic_hepnos.py > /dev/null
	REPRO_SANITIZE=race $(PY) -m pytest -x -q tests/test_xray.py -k determinism
	REPRO_SANITIZE=race $(PY) -m pytest -x -q tests/test_yokan_provider.py -k cost_model
	REPRO_SANITIZE=race $(PY) -m pytest -x -q tests/test_margo_rpc_pin.py
	REPRO_SANITIZE=race $(PY) -m pytest -x -q tests/test_yokan_model.py
	REPRO_SANITIZE=race $(PY) -m pytest -x -q tests/test_scheduler_differential.py
	REPRO_SANITIZE=1 $(PY) -m pytest -x -q tests/test_core_service.py \
		tests/test_profile_feedback.py tests/test_xray_feedback.py \
		tests/test_xray.py tests/test_bedrock.py tests/test_warabi_poesie.py

# Overhead gates (~1 min): exits 1 when a gated row fails.
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

# Every function of src/repro, sorted by what runs it (an artifact, only
# tier-1, or nothing) into benchmarks/results/REACH.json: exits 1 when a
# function no artifact runs is not on the file's short list with a
# reason, or when a list entry is stale.
reach:
	python benchmarks/reach.py

# Not a gate: which layer allocated what the object store holds, after
# preload and after the timed phase (ROADMAP item 6's instrument).
census:
	python benchmarks/mem_census.py

# Behaviour contract: every E*/A* table regenerates byte-identical and
# the end-to-end `exact` tables come out equal, under two hash seeds (no
# persisted order or simulated number may follow string hashing).
contract:
	for seed in 0 4242; do \
		PYTHONHASHSEED=$$seed python -m pytest -q benchmarks/bench_e*.py benchmarks/bench_a*.py && \
		git diff --exit-code -- 'benchmarks/results/E*.json' 'benchmarks/results/A*.json' && \
		PYTHONHASHSEED=$$seed python benchmarks/e2e/run.py --workload all --seconds 3 \
			--out e2e-exact-$$seed.json > /dev/null || exit 1; \
	done
	python benchmarks/exact_tables.py e2e-exact-0.json e2e-exact-4242.json
