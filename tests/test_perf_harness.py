"""``repro.perf.kernel_microbench``: one row per kernel class, width and target."""

from repro.perf import LAYER_CLASS, MICROBENCH_CLASSES, kernel_microbench


class TestKernelMicrobench:
    def test_rows_cover_every_class_and_target(self):
        rows = kernel_microbench(widths=(3,), repeats=1, min_time=0.0)
        assert {tuple(sorted(row)) for row in rows} == {
            ("class", "num_qubits", "target", "us")
        }
        assert {
            (row["class"], row["num_qubits"], row["target"]) for row in rows
        } == {
            (kind, 3, target)
            for kind in MICROBENCH_CLASSES
            for target in range(3)
        }
        assert len(rows) == len(MICROBENCH_CLASSES) * 3
        assert all(row["us"] > 0 for row in rows)

    def test_layer_class_has_one_row_per_width(self):
        rows = kernel_microbench(
            widths=(3, 4), repeats=1, min_time=0.0, classes=(LAYER_CLASS,),
        )
        assert [
            (row["class"], row["num_qubits"], row["target"]) for row in rows
        ] == [(LAYER_CLASS, n, None) for n in (3, 4)]
        assert all(row["us"] > 0 for row in rows)
