# Convenience targets; dune is the real build system.

.PHONY: all build test dev bench ci clean

all: build

build:
	dune build @all

test:
	dune runtest

# Pre-commit loop: full build, all twelve test suites (the eleven under
# test/ plus bench/e2e's) and the dmbench smoke, then a 2-domain
# smoke run of two fast artifacts to catch runner regressions.
dev: build test
	dune exec bin/experiments.exe -- fig1 --jobs 2
	dune exec bin/experiments.exe -- lemma8 --jobs 2

bench:
	dune exec bench/main.exe

# What .github/workflows/ci.yml runs: build with warnings as errors,
# every test suite twice — serial and with a 4-domain default pool
# (Test_env reads BENCH_JOBS), so the byte-determinism properties are
# exercised on both code paths — then a crash-recovery smoke (kill a
# journaled run, recover, resume; all four variants must reject the
# pre-tail probe, survive compaction and come back bit-identical), a
# fleet smoke (concurrent tenants on one shared
# group-commit journal; every tenant must match its solo run live and
# after kill/recover/resume), an adversarial stress smoke (the
# misspecification-robust mechanism must beat vanilla on every
# misspecified family and hold the stated paper-stream margin — the
# "stress summary: ... OK" line), an auction smoke (the
# full-information reserve learners must end within 5% of the
# hindsight OPT vector on every bidder panel — the "auction summary:
# ... OK" line), a fig5c_hd smoke (rank-k projected
# pricing at n up to 16384 must report finite regret and a populated
# projection-error column), a batched-serving smoke (every batched
# config bit-identical to its B = 1 reference and every
# recover+replay round-trip state-preserving — the "serve summary:
# ... OK" line) and a tiny 2-domain bench smoke that
# also writes a BENCH_*.json record exercising the perf-trajectory
# pipeline.  When a previous BENCH_*.json exists, the smoke record is
# compared against it and a flagged regression fails the target.
# Timings are compared only when both records share scale, jobs,
# cores and build profile; otherwise compare.exe exits 2 ("no record of this
# configuration"), which passes, after still flagging any removed
# critical key.  The threshold is loose (+150%) because the 0.01-scale
# smoke timings are noisy — the compare mainly guards the critical
# keys against silent removal and catches order-of-magnitude
# slowdowns.  Count keys (`... minor_words`,
# `journal/fleet_fsyncs_per_kround`) repeat exactly, so compare.exe
# holds them to +5% whatever the threshold.
ci: build
	BENCH_JOBS=1 dune runtest --force
	BENCH_JOBS=4 dune runtest --force
	@echo "crash-recovery smoke:"; \
	dune exec bin/experiments.exe -- recover --scale 0.01 \
	  | tee /dev/stderr \
	  | grep -q "4/4 variants bit-identical" \
	  || { echo "crash-recovery smoke FAILED"; exit 1; }
	@echo "fleet group-commit smoke:"; \
	dune exec bin/experiments.exe -- fleet --scale 0.01 \
	  | tee /dev/stderr \
	  | grep -q "10/10 tenants bit-identical" \
	  || { echo "fleet smoke FAILED"; exit 1; }
	@echo "stress smoke:"; \
	dune exec bin/experiments.exe -- stress --scale 0.05 \
	  | tee /dev/stderr \
	  | grep -q "stress summary: .* OK" \
	  || { echo "stress smoke FAILED"; exit 1; }
	@echo "auction smoke:"; \
	dune exec bin/experiments.exe -- auction --scale 0.25 \
	  | tee /dev/stderr \
	  | grep -q "auction summary: .* OK" \
	  || { echo "auction smoke FAILED"; exit 1; }
	@echo "fig5c_hd smoke:"; \
	dune exec bin/experiments.exe -- fig5c_hd --scale 0.01 \
	  | tee /dev/stderr \
	  | grep -q "all regret finite and projection-error column populated" \
	  || { echo "fig5c_hd smoke FAILED"; exit 1; }
	@echo "batched-serving smoke:"; \
	dune exec bin/experiments.exe -- serve --scale 0.01 \
	  | tee /dev/stderr \
	  | grep -q "serve summary: .* OK" \
	  || { echo "serve smoke FAILED"; exit 1; }
	@prev=$$(ls -1 BENCH_*.json 2>/dev/null | tail -1); \
	BENCH_SCALE=0.01 BENCH_JOBS=2 dune exec bench/main.exe || exit $$?; \
	new=$$(ls -1 BENCH_*.json 2>/dev/null | tail -1); \
	if [ -n "$$prev" ] && [ "$$prev" != "$$new" ]; then \
	  dune exec bench/compare.exe -- --threshold 1.5 "$$prev" "$$new"; \
	  status=$$?; \
	  if [ $$status -eq 2 ]; then \
	    echo "no BENCH record of this configuration; timings not compared"; \
	  elif [ $$status -ne 0 ]; then exit $$status; fi; \
	else \
	  echo "no previous BENCH record; skipping perf compare"; \
	fi

clean:
	dune clean
