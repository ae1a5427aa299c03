import os

from regir._parallel import thread_count


def test_thread_count_is_capped_at_cpu_count(monkeypatch):
    # only the count is read: no pool of that size is ever started
    monkeypatch.setenv("REGIR_THREADS", str(10 ** 6))
    assert thread_count() == (os.cpu_count() or 1)
