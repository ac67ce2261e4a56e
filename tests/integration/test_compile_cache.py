"""Content-keyed compile cache: hit/miss accounting and sealed sharing.

The cache memoizes whole compilation flows on (flow, source, machine,
config) and hands every caller the same sealed module.  Every
module-level transform entry point refuses a sealed module, so a caller
that wants to transform takes a ``clone_module`` copy, and later hits
stay untouched.  Under paranoid mode a hit also re-fingerprints the
module, catching raw edits that bypass the entry points.
"""

import numpy as np
import pytest

from repro import driver
from repro.autovec import auto_vectorize_module
from repro.backend import AVX2, SSE4, legalize_module
from repro.backend.batch import batch_module
from repro.diagnostics import CompileError
from repro.ir import ExternalFunction, Function, FunctionType, I32, SealedModuleError
from repro.ir.printer import print_module
from repro.passes import (
    PassManager, clone_module, inline_module_calls, standard_pipeline,
)
from repro.passes.pass_manager import set_paranoid
from repro.vectorizer import vectorize_module
from repro.vm import Interpreter

SRC = """
void kernel(u32* a, u64 n) {
    psim (gang_size=8, num_threads=n) {
        u64 i = psim_get_thread_num();
        a[i] = a[i] * (u32)3;
    }
}
"""

SRC_B = SRC.replace("(u32)3", "(u32)5")


@pytest.fixture(autouse=True)
def fresh_cache():
    driver.clear_compile_cache()
    driver.set_compile_cache(True)
    yield
    driver.clear_compile_cache()
    driver.set_compile_cache(True)


def _run(module):
    interp = Interpreter(module)
    a = np.arange(8, dtype=np.uint32)
    addr = interp.memory.alloc_array(a)
    interp.run("kernel", addr, a.size)
    return interp.memory.read_array(addr, np.uint32, a.size)


def test_cache_hit_miss_accounting():
    driver.compile_parsimony(SRC)
    assert driver.compile_cache_stats() == {"hits": 0, "misses": 1, "entries": 1}
    driver.compile_parsimony(SRC)
    assert driver.compile_cache_stats() == {"hits": 1, "misses": 1, "entries": 1}
    # A different source is a different content key.
    driver.compile_parsimony(SRC_B)
    assert driver.compile_cache_stats() == {"hits": 1, "misses": 2, "entries": 2}


def test_distinct_flows_do_not_collide():
    driver.compile_scalar(SRC)
    driver.compile_autovec(SRC)
    driver.compile_parsimony(SRC)
    stats = driver.compile_cache_stats()
    assert stats["hits"] == 0 and stats["misses"] == 3


def test_cache_hit_returns_the_same_sealed_module():
    first = driver.compile_parsimony(SRC)
    second = driver.compile_parsimony(SRC)
    assert first is second
    assert first.sealed
    # The trap-replay twin is shared along with it.
    assert first.attrs["batch_fallback"].sealed


#: Every module-level transform entry point, applied to a module.
TRANSFORMS = {
    "PassManager.run": lambda m: standard_pipeline().run(m),
    "legalize_module": lambda m: legalize_module(m, AVX2),
    "auto_vectorize_module": lambda m: auto_vectorize_module(m, AVX2),
    "vectorize_module": lambda m: vectorize_module(m),
    "batch_module": lambda m: batch_module(m, 2),
    "inline_module_calls": lambda m: inline_module_calls(m),
    "post_vectorize_cleanup": lambda m: driver.post_vectorize_cleanup(m),
    "Module.add_function": lambda m: m.add_function(
        Function("extra", FunctionType(I32, ()))),
    "Module.add_external": lambda m: m.add_external(
        ExternalFunction("extra", FunctionType(I32, ()), lambda: 0)),
}


@pytest.mark.parametrize("entry_point", sorted(TRANSFORMS))
def test_transform_entry_points_refuse_a_cached_module(entry_point):
    module = driver.compile_parsimony(SRC)
    before = print_module(module)
    with pytest.raises(SealedModuleError, match="clone_module") as excinfo:
        TRANSFORMS[entry_point](module)
    assert entry_point in str(excinfo.value)
    assert print_module(module) == before
    assert driver.compile_parsimony(SRC) is module


@pytest.mark.parametrize("flow", ["scalar", "autovec", "ispc"])
def test_every_flow_seals_its_cached_module(flow):
    module = getattr(driver, f"compile_{flow}")(SRC)
    assert module.sealed
    with pytest.raises(SealedModuleError):
        PassManager([]).run(module)


def test_clone_of_a_hit_is_mutable_and_leaves_later_hits_unchanged():
    cached = driver.compile_parsimony(SRC)
    before = print_module(cached)
    twin_before = print_module(cached.attrs["batch_fallback"])
    clone = clone_module(cached)
    assert not clone.sealed
    twin = clone.attrs["batch_fallback"]
    assert not twin.sealed

    # Legalization refuses the batched clone itself; legalizing its
    # unbatched twin to 128-bit vectors rewrites the 8 x u32 gang ops in
    # place.
    with pytest.raises(CompileError, match="gang-batched"):
        legalize_module(clone, AVX2)
    assert legalize_module(twin, SSE4)
    assert print_module(twin) != twin_before
    np.testing.assert_array_equal(_run(twin), np.arange(8, dtype=np.uint32) * 3)

    hit = driver.compile_parsimony(SRC)
    assert hit is cached
    assert print_module(hit) == before
    assert print_module(hit.attrs["batch_fallback"]) == twin_before
    np.testing.assert_array_equal(_run(hit), np.arange(8, dtype=np.uint32) * 3)


@pytest.fixture
def paranoid():
    set_paranoid(True)
    yield
    set_paranoid(None)


def test_paranoid_hit_catches_raw_edits(paranoid):
    module = driver.compile_parsimony(SRC)
    assert driver.compile_parsimony(SRC) is module
    # Raw edits bypass the entry points' seal ...
    module.functions.clear()
    with pytest.raises(SealedModuleError, match="clone_module"):
        driver.compile_parsimony(SRC)
    # ... and the poisoned entry is dropped, so the next call recompiles.
    fresh = driver.compile_parsimony(SRC)
    assert fresh is not module and "kernel" in fresh.functions
    np.testing.assert_array_equal(_run(fresh), np.arange(8, dtype=np.uint32) * 3)


def test_paranoid_hit_catches_attr_pokes(paranoid):
    module = driver.compile_parsimony(SRC)
    module.functions["kernel"].attrs["batched"] = None
    with pytest.raises(SealedModuleError):
        driver.compile_parsimony(SRC)


def test_cache_disable_bypasses_memoization():
    driver.set_compile_cache(False)
    driver.compile_parsimony(SRC)
    driver.compile_parsimony(SRC)
    assert driver.compile_cache_stats()["entries"] == 0


def test_clear_resets_counters():
    driver.compile_parsimony(SRC)
    driver.compile_parsimony(SRC)
    driver.clear_compile_cache()
    assert driver.compile_cache_stats() == {"hits": 0, "misses": 0, "entries": 0}


def test_clone_module_behaves_identically():
    original = driver.compile_parsimony(SRC)
    clone = clone_module(original)
    assert set(clone.functions) == set(original.functions)
    for name, func in clone.functions.items():
        assert func is not original.functions[name]
    np.testing.assert_array_equal(_run(original), _run(clone))
