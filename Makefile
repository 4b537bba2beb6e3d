# Convenience targets for the reproduction workflow.

PYTHON ?= python

.PHONY: install test bench bench-smoke bench-perf \
	serve-smoke telemetry-smoke exporter-smoke config-smoke grid-smoke \
	cli-smoke trace-smoke invariant-smoke profile-smoke check-configs \
	check-figures check-regression figures examples check-docs clean

install:
	pip install -e .

test:
	$(PYTHON) -m pytest tests/

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
# schedulers: two runs of each scheduler must agree byte for byte, in
# the JSON result and in the event log.
SERVE_SMOKE = $(PYTHON) -m repro serve --tenants 6 \
	--arrival-rate 2000 --queue-depth 2 --shed-watermark 2.0
serve-smoke:
	for i in 1 2; do \
		$(SERVE_SMOKE) --events .serve-rr-$$i.jsonl \
			--json > .serve-rr-$$i.json || exit 1; \
		$(SERVE_SMOKE) --scheduler drr --weights 2,1 \
			--events .serve-drr-$$i.jsonl --json > .serve-drr-$$i.json \
			|| exit 1; \
	done
	for s in rr drr; do \
		diff .serve-$$s-1.json .serve-$$s-2.json || exit 1; \
		diff .serve-$$s-1.jsonl .serve-$$s-2.jsonl || exit 1; \
	done
	rm -f .serve-rr-1.json .serve-rr-2.json .serve-drr-1.json \
		.serve-drr-2.json .serve-rr-1.jsonl .serve-rr-2.jsonl \
		.serve-drr-1.jsonl .serve-drr-2.jsonl

# SLO-tracked serve run with live admission: the result and the
# alert/SLO transcript must be identical across two runs and the
# transcript non-empty, every tenant's telemetry windows must close at
# its completion, and repro top must render the log.
telemetry-smoke:
	for i in 1 2; do \
		$(PYTHON) -m repro serve --config configs/serve_slo.yaml \
			--live-admission --events .telemetry-$$i.jsonl \
			--flush-events 1 --json > .serve-$$i.json || exit 1; \
		grep -E '"event":"(alert_fired|slo_violation)"' \
			.telemetry-$$i.jsonl > .transcript-$$i.jsonl || exit 1; \
	done
	diff .serve-1.json .serve-2.json
	diff .transcript-1.jsonl .transcript-2.jsonl
	test -s .transcript-1.jsonl
	$(PYTHON) tools/check_telemetry_windows.py .telemetry-1.jsonl
	$(PYTHON) -m repro top .telemetry-1.jsonl
	rm -f .telemetry-1.jsonl .telemetry-2.jsonl .serve-1.json .serve-2.json \
		.transcript-1.jsonl .transcript-2.jsonl

# A serve result depends only on its configs: every session runs its
# telemetry hub, and the exporters only read it.  The overload scenario's
# --json stdout must be byte-identical bare and with each exporter.
EXPORTER_SMOKE = $(PYTHON) -m repro serve --config configs/serve_overload.yaml \
	--json
exporter-smoke:
	rm -rf .exporter-smoke && mkdir .exporter-smoke
	$(EXPORTER_SMOKE) > .exporter-smoke/bare.json
	$(EXPORTER_SMOKE) --events .exporter-smoke/events.jsonl \
		> .exporter-smoke/events.json 2> .exporter-smoke/events.err
	$(EXPORTER_SMOKE) --metrics .exporter-smoke/metrics.out.json \
		> .exporter-smoke/metrics.json 2> .exporter-smoke/metrics.err
	$(EXPORTER_SMOKE) --prom .exporter-smoke/metrics.prom \
		> .exporter-smoke/prom.json 2> .exporter-smoke/prom.err
	$(EXPORTER_SMOKE) --timeline .exporter-smoke/serve.trace.json \
		> .exporter-smoke/timeline.json 2> .exporter-smoke/timeline.err
	$(EXPORTER_SMOKE) --profile \
		> .exporter-smoke/profile.json 2> .exporter-smoke/profile.err
	$(EXPORTER_SMOKE) --archive --runs .exporter-smoke/runs \
		> .exporter-smoke/archive.json 2> .exporter-smoke/archive.err
	for out in events metrics prom timeline profile archive; do \
		cmp .exporter-smoke/bare.json .exporter-smoke/$$out.json || exit 1; \
	done
	rm -rf .exporter-smoke

# Schema-validate and dry-compile the whole scenario library.
check-configs:
	$(PYTHON) -m repro config validate configs configs/smoke \
		configs/section8_throttle

# Every execution mode (grid, serve, multigpu) driven from the
# declarative configs: the scenario library validates, a key the
# scenario's mode never reads fails validation with a message naming
# it (not a traceback), and the tiny smoke scenarios run end to end
# with every archived manifest naming its scenario and embedding the
# resolved config.
config-smoke: check-configs
	rm -rf .smoke-runs && mkdir .smoke-runs
	printf 'mode: run\nworkload: ra\nserve:\n  tenants: 5\n' \
		> .smoke-runs/bad-mode.yaml
	! $(PYTHON) -m repro config validate .smoke-runs/bad-mode.yaml \
		> .smoke-runs/bad-mode.out 2> .smoke-runs/bad-mode.txt
	grep -q serve.tenants .smoke-runs/bad-mode.txt
	! grep -q Traceback .smoke-runs/bad-mode.txt
	! grep -q FAIL .smoke-runs/bad-mode.out
	$(PYTHON) -m repro sweep --config-dir configs/smoke \
		--archive --runs .smoke-runs
	$(PYTHON) -c 'from repro.obs.store import RunStore; \
		manifests = RunStore(".smoke-runs").list(); \
		assert manifests, "config smoke archived no runs"; \
		missing = [m.run_id for m in manifests if not m.scenario]; \
		assert not missing, f"{missing}: manifest missing scenario"; \
		bare = [m.run_id for m in manifests if "scenario" not in m.config]; \
		assert not bare, f"{bare}: resolved config not archived"; \
		print(f"config smoke: {len(manifests)} archived manifests OK")'
	rm -rf .smoke-runs

# Every grid records each access stream once and replays it: with the
# default private trace cache nothing may be left in TMPDIR, and a
# shared --trace-cache must render the same figure.  The serial path
# loads each stream once for its cells and the parallel path loads it
# in every worker cell, so --jobs 2 must render the same figure too.
grid-smoke:
	rm -rf .grid-smoke && mkdir -p .grid-smoke/tmp
	TMPDIR=$(CURDIR)/.grid-smoke/tmp $(PYTHON) -m repro figure fig6 \
		--scale tiny > .grid-smoke/private.txt
	TMPDIR=$(CURDIR)/.grid-smoke/tmp $(PYTHON) -m repro figure fig6 \
		--scale tiny --trace-cache .grid-smoke/cache > .grid-smoke/shared.txt
	TMPDIR=$(CURDIR)/.grid-smoke/tmp $(PYTHON) -m repro figure fig6 \
		--scale tiny --jobs 2 > .grid-smoke/parallel.txt
	diff .grid-smoke/private.txt .grid-smoke/shared.txt
	diff .grid-smoke/private.txt .grid-smoke/parallel.txt
	test -z "$$(ls -A .grid-smoke/tmp)"
	rm -rf .grid-smoke

# Flags and configs take one route to a simulation: every command's
# generated --help renders, two archived runs that differ in a string
# config key diff cleanly (text and JSON), a serve config matches the
# same knobs given as flags, and a bad knob or --slo-config value exits
# with a message instead of a traceback.
CLI_SMOKE_SERVE = --scale tiny --seed 0 --arrival-rate 400 --tenants 4 \
	--mix ra,bfs --capacity-mb 16
CLI_COMMANDS = run compare figure sweep trace "trace record" \
	"trace replay" serve top inspect runs diff config "config validate" \
	"config show" list
cli-smoke:
	rm -rf .cli-smoke && mkdir .cli-smoke
	for c in $(CLI_COMMANDS); do \
		$(PYTHON) -m repro $$c --help > /dev/null || exit 1; \
	done
	for p in adaptive always; do \
		$(PYTHON) -m repro run ra --scale tiny --policy $$p --archive \
			--runs .cli-smoke > .cli-smoke/run-$$p.txt || exit 1; \
	done
	ids=$$(sed -n 's/^\[archived as \([^;]*\);.*/\1/p' \
		.cli-smoke/run-adaptive.txt .cli-smoke/run-always.txt); \
	$(PYTHON) -m repro diff $$ids --runs .cli-smoke > .cli-smoke/diff.txt \
		&& $(PYTHON) -m repro diff $$ids --runs .cli-smoke --json \
		> .cli-smoke/diff.json
	grep -q "policy.policy" .cli-smoke/diff.txt
	$(PYTHON) -m repro serve --config configs/smoke/serve.yaml --json \
		> .cli-smoke/serve-config.json
	$(PYTHON) -m repro serve $(CLI_SMOKE_SERVE) --json \
		> .cli-smoke/serve-flags.json
	$(PYTHON) -c 'import json; \
		a, b = (json.load(open(f".cli-smoke/serve-{r}.json")) \
		        for r in ("config", "flags")); \
		a.pop("scenario"), b.pop("scenario"); \
		assert a == b, "serve --config and its flags disagree"'
	! $(PYTHON) -m repro run ra --ts 0 2> .cli-smoke/bad-flag.txt
	! grep -q Traceback .cli-smoke/bad-flag.txt
	printf 'slo:\n  p99_latency_us: 300\n  fast_windows: 2.5\n' \
		> .cli-smoke/bad-slo.yaml
	! $(PYTHON) -m repro serve --scale tiny --tenants 12 \
		--slo-config .cli-smoke/bad-slo.yaml 2> .cli-smoke/bad-slo.txt
	grep -q slo.fast_windows .cli-smoke/bad-slo.txt
	! grep -q Traceback .cli-smoke/bad-slo.txt
	rm -rf .cli-smoke

# A recorded trace (version 2) hands the driver every wave's grouping; a
# version-1 copy without the grouped arrays leaves the driver to group
# each wave itself.  Both replays must print the same summary and write
# the same event log.
TRACE_SMOKE_REPLAY = --policy adaptive --oversub 1.25
trace-smoke:
	rm -rf .trace-smoke && mkdir .trace-smoke
	$(PYTHON) -m repro trace record ra --scale tiny -o .trace-smoke/v2.npz
	$(PYTHON) -c 'import dataclasses; \
		from repro.trace import load_trace, save_trace; \
		from repro.trace.format import GROUP_FIELDS; \
		data = load_trace(".trace-smoke/v2.npz"); \
		assert data.version == 2 and data.grouped; \
		save_trace(dataclasses.replace(data, version=1, \
		           **dict.fromkeys(GROUP_FIELDS)), ".trace-smoke/v1.npz")'
	for v in v2 v1; do \
		$(PYTHON) -m repro trace replay -i .trace-smoke/$$v.npz \
			$(TRACE_SMOKE_REPLAY) --events .trace-smoke/$$v.jsonl \
			> .trace-smoke/$$v.txt || exit 1; \
	done
	diff .trace-smoke/v2.txt .trace-smoke/v1.txt
	diff .trace-smoke/v2.jsonl .trace-smoke/v1.jsonl
	rm -rf .trace-smoke

# Oversubscribed tiny runs audited after every wave (--debug-invariants):
# residency, capacity and chunk occupancy must agree, no block may be
# both device-resident and remote-mapped, every chunk's prefetch tree
# must hold exactly its resident blocks, no block outside device memory
# may be dirty, and a wave's live victim key must equal one built from
# scratch, under all four policies (LRU and LFU replacement, first-touch
# and counter-delayed decisions) and both eviction granularities, with
# the tree prefetcher and with the sequential one (the non-tree path).
invariant-smoke:
	for wl in ra bfs; do \
		for p in disabled always oversub adaptive; do \
			for e in 2mb 64kb; do \
				$(PYTHON) -m repro run $$wl --scale tiny --oversub 1.5 \
					--policy $$p --evict $$e --debug-invariants \
					> /dev/null || exit 1; \
			done; \
		done; \
	done
	for wl in ra bfs; do \
		for p in disabled adaptive; do \
			for e in 2mb 64kb; do \
				$(PYTHON) -m repro run $$wl --scale tiny --oversub 1.5 \
					--policy $$p --evict $$e --prefetcher sequential \
					--debug-invariants > /dev/null || exit 1; \
			done; \
		done; \
	done

# --profile and --timeline on a run and on a serve session: the run
# profile lists wave generation and the timing model, both traces pass
# validate_trace, the serve trace marks one wave frame per driver wave,
# and under --json the serve stdout stays one JSON document (the profile
# table goes to stderr).
profile-smoke:
	rm -rf .profile-smoke && mkdir .profile-smoke
	$(PYTHON) -m repro run ra --scale tiny --oversub 1.5 --profile \
		--timeline .profile-smoke/run.trace.json > .profile-smoke/run.txt
	$(PYTHON) -m repro serve --scale tiny --tenants 6 --json --profile \
		--timeline .profile-smoke/serve.trace.json \
		> .profile-smoke/serve.json 2> .profile-smoke/serve.err
	grep -q -- "-- profile:" .profile-smoke/run.txt
	grep -q "^workloads.gen " .profile-smoke/run.txt
	grep -q "^gpu.timing " .profile-smoke/run.txt
	grep -q -- "-- profile:" .profile-smoke/serve.err
	$(PYTHON) -c 'import json; \
		from repro.obs import validate_trace; \
		from repro.obs.timeline import TID_WAVES; \
		load = lambda name: json.load(open(f".profile-smoke/{name}")); \
		result = load("serve.json"); \
		traces = [load(f"{cmd}.trace.json") for cmd in ("run", "serve")]; \
		problems = [p for trace in traces for p in validate_trace(trace)]; \
		assert not problems, problems; \
		frames = sum(e["tid"] == TID_WAVES for e in traces[1]["traceEvents"] \
		             if e["ph"] == "i"); \
		assert frames == result["total_waves"], (frames, \
		                                         result["total_waves"])'
	rm -rf .profile-smoke

# Every paper figure must regenerate its committed table byte for byte
# (small scale, seed 0): a change to simulated outcomes fails here
# unless the tables in benchmarks/results/ are regenerated with it.
check-figures:
	for n in 1 2 3 4 5 6 7 8; do \
		$(PYTHON) -m repro figure fig$$n --scale small \
			| diff - benchmarks/results/figure$$n.txt || exit 1; \
	done

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

# Run every example; the first that fails fails the target.
examples:
	for ex in examples/*.py; do echo "== $$ex"; $(PYTHON) $$ex || exit 1; done

# Documentation hygiene: links resolve, documented CLI commands parse.
check-docs:
	$(PYTHON) tools/check_docs.py

clean:
	rm -rf .pytest_cache benchmarks/results .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
