import json
import os
from pathlib import Path

import pytest

from cinestagger import ClusterInstance, build_model, load_instance
from cinestagger.data import example_instance_path

# tests that run `python -m cinestagger` in a subprocess import the same
# checkout as this process, installed or not
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture(scope="session")
def example_path() -> Path:
    return example_instance_path()


@pytest.fixture(scope="session")
def example_document(example_path) -> dict:
    return json.loads(example_path.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def example_instance(example_path) -> ClusterInstance:
    instance = load_instance(example_path)
    assert isinstance(instance, ClusterInstance)
    return instance


@pytest.fixture(scope="session")
def example_model(example_instance):
    return build_model(example_instance)
