# Convenience targets for the reproduction repo.

PYTHON ?= python3

.PHONY: install test bench examples docs perf perf-check coverage faults conform watch explain lint typecheck serve soak all clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f > /dev/null || exit 1; done
	@echo "all examples ran clean"

docs:
	$(PYTHON) tools/gen_api_docs.py

perf:
	$(PYTHON) -m repro perf record
	$(PYTHON) -m repro perf report

perf-check:
	$(PYTHON) -m repro perf check

coverage:
	$(PYTHON) tools/coverage_gate.py --fail-under 96.4 \
		--min-package repro/faults=90 --min-package repro/gf=90 \
		--min-package repro/conformance=90 --min-package repro/lint=90 \
		--min-package repro/network=95 \
		--report

lint:
	$(PYTHON) -m repro lint --format json > /tmp/repro-lint.json \
		|| ($(PYTHON) tools/lint_report.py /tmp/repro-lint.json; exit 1)
	$(PYTHON) tools/lint_report.py /tmp/repro-lint.json \
		-o benchmarks/results/lint_report.md

typecheck:
	$(PYTHON) tools/typecheck.py

faults:
	$(PYTHON) -m repro faults campaign --qs 2 4 8

conform:
	$(PYTHON) -m repro conform fuzz --seed 0 --ops 2000

watch:
	$(PYTHON) -m repro watch fuzz --seed 0 --ops 1000000 \
		--state-budget 200000 --rss-budget-mb 512
	$(PYTHON) -m repro watch attack --seed 0
	$(PYTHON) tools/watch_report.py

explain:
	$(PYTHON) -m repro explain --check

serve:
	$(PYTHON) -m repro serve --clients 200 --ops-per-client 4 --seed 0

soak:
	$(PYTHON) -m repro load --clients 100000 --ops-per-client 2 \
		--keyspace 4096 --mix zipf --shards 4 \
		--round-capacity 8192 --max-pending 32768 --oracle
	$(PYTHON) -m repro load --clients 20000 --ops-per-client 4 \
		--keyspace 2048 --mix hotkey --fault stale \
		--get-fraction 0.6 --delete-fraction 0 \
		--round-capacity 4096 --max-pending 16384

record:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

all: test bench examples docs
