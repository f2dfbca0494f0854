.PHONY: install test bench examples artifacts lint clean

install:
	pip install -e .

test:
	pytest tests/

lint:
	PYTHONPATH=src python -m repro.sanitize.flow src/ tests/ \
		--baseline .flow-baseline.json

bench:
	pytest benchmarks/ --benchmark-only

examples:
	@for f in examples/*.py; do echo "== $$f"; python $$f || exit 1; done

artifacts:
	python -m repro.cli all

clean:
	rm -rf .pytest_cache .hypothesis benchmarks/output src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
