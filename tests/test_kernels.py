"""Tests for the bundled benchmark kernels."""

import dataclasses
import os
import pickle
import subprocess
import sys

import pytest

import repro

from repro.kernels import (
    PAPER_KERNELS,
    available_kernels,
    get_kernel,
    make_compress,
    make_dequant,
    make_matadd,
    make_matmul,
    make_pde,
    make_sor,
    make_transpose,
    paper_kernels,
)


class TestRegistry:
    def test_paper_kernels_order(self):
        assert PAPER_KERNELS == ("compress", "matmul", "pde", "sor", "dequant")
        assert [k.name for k in paper_kernels()] == list(PAPER_KERNELS)

    def test_get_kernel_all_names(self):
        for name in available_kernels():
            kernel = get_kernel(name)
            assert kernel.accesses_per_invocation > 0

    def test_unknown_kernel(self):
        with pytest.raises(KeyError, match="unknown kernel"):
            get_kernel("quicksort")

    def test_mpeg_prefix(self):
        assert get_kernel("mpeg:idct").name == "idct"


class TestCompress:
    def test_paper_shape(self):
        k = make_compress()
        assert k.nest.iterations == 31 * 31
        assert len(k.nest.refs) == 5  # 4 reads + 1 write
        assert len(k.nest.writes) == 1
        assert k.nest.array("a").dims == (32, 32)

    def test_trace_volume(self):
        k = make_compress()
        assert len(k.trace()) == 961 * 5

    def test_element_size_parameter(self):
        assert make_compress(element_size=4).nest.array("a").element_size == 4

    def test_invalid_extent(self):
        with pytest.raises(ValueError):
            make_compress(n=0)


class TestOtherKernels:
    def test_matadd_paper_shape(self):
        k = make_matadd()
        assert k.nest.iterations == 36
        assert {a.name for a in k.nest.arrays} == {"a", "b", "c"}
        assert k.nest.array("a").size_bytes == 36

    def test_matmul_shape(self):
        k = make_matmul()
        assert k.nest.iterations == 31 ** 3
        assert k.n_tiled == 2  # j and k loops are the tiled pair

    def test_pde_two_arrays(self):
        k = make_pde()
        assert len(k.nest.arrays) == 2
        assert k.nest.iterations == 961

    def test_sor_in_place(self):
        k = make_sor()
        assert len(k.nest.arrays) == 1
        writes = k.nest.writes
        assert len(writes) == 1 and writes[0].array == "a"

    def test_dequant_three_arrays(self):
        assert len(make_dequant().nest.arrays) == 3

    def test_transpose_reads_transposed(self):
        k = make_transpose()
        read = k.nest.reads[0]
        assert read.linear_matrix(("i", "j")) == ((0, 1), (1, 0))


class TestKernelBehaviour:
    def test_min_cache_interface(self):
        k = make_compress()
        assert k.min_cache_lines(4) == 4
        assert k.min_cache_size(4) == 16

    def test_with_invocations(self):
        k = make_compress().with_invocations(5)
        assert k.invocations == 5
        assert k.name == "compress"

    def test_invalid_invocations(self):
        with pytest.raises(ValueError):
            make_compress().with_invocations(0)

    def test_optimized_layout_wrapper(self):
        result = make_compress().optimized_layout(8, 2)
        assert result.conflict_free

    def test_trace_repeat(self):
        k = make_matadd()
        assert len(k.trace(repeat=2)) == 2 * len(k.trace())

    def test_tiled_trace_same_multiset(self):
        k = make_compress(n=7)
        plain = sorted(k.trace().addresses.tolist())
        tiled = sorted(k.trace(tile=4).addresses.tolist())
        assert plain == tiled


class TestKernelHash:
    """A kernel hashes once, but ``==`` stays the identity of a cache key."""

    def test_cached_hash_equals_fresh_equal_kernel(self):
        kernel = make_compress()
        first = hash(kernel)
        assert hash(kernel) == first
        assert kernel.__dict__["_hash"] == first
        assert hash(make_compress()) == first
        assert hash(make_compress(n=7)) != first

    def test_repr_and_equality_ignore_the_cached_hash(self):
        kernel, fresh = make_compress(), make_compress()
        hash(kernel)
        assert "_hash" not in fresh.__dict__
        assert kernel == fresh and repr(kernel) == repr(fresh)
        assert "_hash" not in repr(kernel)
        assert kernel != make_compress().with_invocations(2)

    def test_pickle_carries_no_cached_hash(self):
        kernel = make_compress()
        hash(kernel)
        clone = pickle.loads(pickle.dumps(kernel))
        assert "_hash" not in clone.__dict__
        assert clone == kernel and hash(clone) == hash(kernel)

    def test_copies_do_not_inherit_the_cached_hash(self):
        kernel = make_compress()
        hash(kernel)
        for copy in (
            kernel.with_invocations(3),
            kernel.with_invocations(1),
            dataclasses.replace(kernel),
            dataclasses.replace(kernel, n_tiled=1),
        ):
            assert "_hash" not in copy.__dict__
        assert hash(kernel.with_invocations(1)) == hash(kernel)
        assert hash(kernel.with_invocations(3)) == hash(
            make_compress().with_invocations(3)
        )

    def test_other_hash_seed_finds_entry_keyed_by_equal_kernel(self):
        # A worker started with another hash seed must recompute the hash
        # of a kernel it unpickles, or dict lookups keyed there by an
        # equal kernel miss.
        kernel = make_compress()
        parent_hash = hash(kernel)
        seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        script = (
            "import pickle, sys\n"
            "from repro.kernels import make_compress\n"
            "received = pickle.load(sys.stdin.buffer)\n"
            "table = {make_compress(): 'entry'}\n"
            "print(table.get(received), hash(received))\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            input=pickle.dumps(kernel),
            capture_output=True,
            env=env,
            timeout=120,
            check=True,
        )
        found, child_hash = child.stdout.decode().split()
        assert found == "entry"
        assert int(child_hash) != parent_hash


class TestConv2d:
    def test_structure(self):
        from repro.kernels import make_conv2d

        k = make_conv2d()
        assert len(k.nest.loops) == 4
        assert k.nest.iterations == 32 * 32 * 4 * 4
        assert {a.name for a in k.nest.arrays} == {"img", "coef", "out"}

    def test_in_bounds(self):
        from repro.kernels import make_conv2d
        from repro.loops.bounds import check_bounds

        assert check_bounds(make_conv2d().nest) == []

    def test_registry(self):
        from repro.kernels import get_kernel

        assert get_kernel("conv2d").name == "conv2d"

    def test_mixed_index_subscripts(self):
        from repro.kernels import make_conv2d

        img_ref = make_conv2d().nest.refs[1]
        assert img_ref.linear_matrix(("i", "j", "ki", "kj")) == (
            (1, 0, 1, 0),
            (0, 1, 0, 1),
        )

    def test_validation(self):
        from repro.kernels import make_conv2d
        import pytest as _pytest

        with _pytest.raises(ValueError):
            make_conv2d(n=0)
