# Convenience targets for the reproduction workflow.

PYTHON ?= python

.PHONY: install test test-accel bench bench-smoke bench-perf \
	serve-smoke telemetry-smoke config-smoke grid-smoke check-configs \
	check-regression figures examples check-docs clean

install:
	pip install -e .

test:
	$(PYTHON) -m pytest tests/

# Same suite on the compiled hot-loop backend.  Without numba the
# backend falls back (with a warning) to bit-identical pure python;
# REPRO_ACCEL_INTERPRET=1 would force the loop kernels interpreted.
test-accel:
	REPRO_BACKEND=numba $(PYTHON) -m pytest tests/

test-logged:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-logged:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# Fast smoke pass of every figure and ablation at tiny scale.
bench-smoke:
	REPRO_SCALE=tiny $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Measure the tracked perf trajectory (appends to BENCH_history.jsonl).
bench-perf:
	$(PYTHON) benchmarks/bench_perf.py

# Overloaded multi-tenant serving run: must degrade cleanly
# (throttle -> queue -> shed) and deterministically under both
# schedulers and both backends: two runs of each scheduler must agree
# byte for byte, in the JSON result and in the event log.
SERVE_SMOKE = $(PYTHON) -m repro serve --tenants 6 \
	--arrival-rate 2000 --queue-depth 2 --shed-watermark 2.0
serve-smoke:
	for be in python numba; do \
		for i in 1 2; do \
			REPRO_BACKEND=$$be $(SERVE_SMOKE) --events .serve-rr-$$i.jsonl \
				--json > .serve-rr-$$i.json || exit 1; \
			REPRO_BACKEND=$$be $(SERVE_SMOKE) --scheduler drr --weights 2,1 \
				--events .serve-drr-$$i.jsonl --json > .serve-drr-$$i.json \
				|| exit 1; \
		done; \
		for s in rr drr; do \
			diff .serve-$$s-1.json .serve-$$s-2.json || exit 1; \
			diff .serve-$$s-1.jsonl .serve-$$s-2.jsonl || exit 1; \
		done; \
	done
	rm -f .serve-rr-1.json .serve-rr-2.json .serve-drr-1.json \
		.serve-drr-2.json .serve-rr-1.jsonl .serve-rr-2.jsonl \
		.serve-drr-1.jsonl .serve-drr-2.jsonl

# SLO-tracked serve run with live admission: the alert transcript
# must be identical across two runs, and repro top must render it.
telemetry-smoke:
	for i in 1 2; do \
		$(PYTHON) -m repro serve --config configs/serve_slo.yaml \
			--live-admission --events .telemetry-$$i.jsonl \
			--flush-events 1 --json > .serve-$$i.json || exit 1; \
	done
	diff .serve-1.json .serve-2.json
	$(PYTHON) -m repro top .telemetry-1.jsonl
	rm -f .telemetry-1.jsonl .telemetry-2.jsonl .serve-1.json .serve-2.json

# Schema-validate and dry-compile the whole scenario library.
check-configs:
	$(PYTHON) -m repro config validate configs configs/smoke \
		configs/section8_throttle

# Run the tiny config-driven scenarios end to end (all three modes),
# archiving resolved configs under .smoke-runs.
config-smoke:
	$(PYTHON) -m repro sweep --config-dir configs/smoke \
		--archive --runs .smoke-runs

# Every grid records each access stream once and replays it: with the
# default private trace cache nothing may be left in TMPDIR, and a
# shared --trace-cache must render the same figure.
grid-smoke:
	rm -rf .grid-smoke && mkdir -p .grid-smoke/tmp
	TMPDIR=$(CURDIR)/.grid-smoke/tmp $(PYTHON) -m repro figure fig6 \
		--scale tiny > .grid-smoke/private.txt
	TMPDIR=$(CURDIR)/.grid-smoke/tmp $(PYTHON) -m repro figure fig6 \
		--scale tiny --trace-cache .grid-smoke/cache > .grid-smoke/shared.txt
	diff .grid-smoke/private.txt .grid-smoke/shared.txt
	test -z "$$(ls -A .grid-smoke/tmp)"
	rm -rf .grid-smoke

# Gate on the bench history: non-zero exit when perf regressed.
check-regression:
	$(PYTHON) tools/check_regression.py

# Print every paper figure to stdout (and benchmarks/results/).
figures:
	$(PYTHON) -m repro figure table1
	$(PYTHON) -m repro figure fig1
	$(PYTHON) -m repro figure fig2
	$(PYTHON) -m repro figure fig3
	$(PYTHON) -m repro figure fig4
	$(PYTHON) -m repro figure fig5
	$(PYTHON) -m repro figure fig6
	$(PYTHON) -m repro figure fig7
	$(PYTHON) -m repro figure fig8

examples:
	for ex in examples/*.py; do echo "== $$ex"; $(PYTHON) $$ex; done

# Documentation hygiene: links resolve, documented CLI commands parse.
check-docs:
	$(PYTHON) tools/check_docs.py

clean:
	rm -rf .pytest_cache benchmarks/results .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
