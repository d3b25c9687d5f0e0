PYTHON ?= python
PYTHONPATH := src

.PHONY: test test-fast lint bench bench-smoke bench-assign bench-serve bench-serve-http bench-stream bench-store example-fast-assign example-serve example-serve-http example-stream

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest tests/ -q

test-fast:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest tests/ -q -m "not slow"

lint:
	ruff check src tests benchmarks examples

bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# tiny-n proofs that the fit planner's one-pass routes (fused and
# native, 2 threads) equal the dense route, that its shared-item gate
# routes each end of the crossover sweep, that the component merge
# engine matches the reference loop byte for byte, that a traced fit
# leaves a complete RunManifest, that the HTTP server answers +
# coalesces under concurrent load, that stream mode's warmup -> drift
# refit -> republish chain runs end to end, that a fit from a
# TransactionStore equals the fit from its text file, and that the
# assign tiers (native, pruned, the index's own choice) equal the
# dense matmul -- fast enough for
# CI.  Their tables land in the git-ignored benchmarks/results/smoke/
bench-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/bench_parallel_fit.py \
		benchmarks/bench_merge_phase.py benchmarks/bench_trace_fit.py \
		benchmarks/bench_serve_http.py benchmarks/bench_stream.py \
		benchmarks/bench_store_fit.py benchmarks/bench_serve_throughput.py \
		-k smoke --benchmark-disable -s

# the assignment-tier comparison and the sweep behind the no-compiler
# cut: dense matmul vs inverted-index pruning vs the index's own choice
# vs the native kernel, on deployment-shaped and Table 5 fit models
bench-assign:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/bench_serve_throughput.py::test_assign_tiers \
		benchmarks/bench_serve_http.py::test_serve_http_assign_backends \
		--benchmark-disable -s

# the store-fit bench: text against store at 30k, plus the 120k fit
# from its store under a 600 MiB RLIMIT_AS (slow; about a minute)
bench-store:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/bench_store_fit.py::test_store_fit_scale \
		--benchmark-disable -s -m slow

bench-serve:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/bench_serve_throughput.py --benchmark-disable -s

# the full load comparison: coalescing vs batch_max=1 at several
# concurrency levels (not CI -- throughput assertions want quiet iron)
bench-serve-http:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/bench_serve_http.py::test_serve_http_load \
		--benchmark-disable -s

# the full stream bench: label throughput + refit/republish latency,
# resume vs scratch on the identical shifted stream (not CI)
bench-stream:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/bench_stream.py::test_stream_load \
		--benchmark-disable -s

example-stream:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/stream_cluster.py

example-fast-assign:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/fast_assign.py

example-serve:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/serve_assign.py

example-serve-http:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/serve_http.py
