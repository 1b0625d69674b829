"""One benchmark pass, in a fresh interpreter.

Usage: python3 passrun.py SRC START SPEC RESULT

SRC is the directory holding the sumsetlab package and START the
parent's CLOCK_MONOTONIC reading just before it started this process.
SPEC is a JSON file with ``items`` (argv lists), ``trace`` (0 or 1) and
``keep`` (1 to return the outputs themselves, not only their digests).
The items run one after another through ``sumsetlab.cli.main``, each
with its standard output captured.  The timed region ends when the last
item returns; digests, spans and the result file are written after it.
"""

import sys
import time

# The other imports wait until sumsetlab.cli is in, so that set-up time
# is the interpreter's start plus the package import and nothing of ours.


def _clock():
    # system-wide, so the parent's reading and ours are on one time line
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _peak_rss_kib():
    """Peak resident set of this process image, in KiB.

    Not ru_maxrss: Linux carries that across execve, so a child started
    by vfork or posix_spawn reports at least its parent's peak.
    """
    with open("/proc/self/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(src, start, spec_path, result_path):
    sys.path.insert(0, src)
    import sumsetlab.cli
    setup_end = _clock()

    import contextlib
    import hashlib
    import io
    import json
    import os
    import resource
    import traceback

    if not os.path.abspath(sumsetlab.cli.__file__).startswith(os.path.abspath(src)):
        raise SystemExit(f"imported {sumsetlab.cli.__file__}, not the package under {src}")
    with open(spec_path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    codes, digests, outputs, errors, sizes = [], [], [], [], []
    for argv in spec["items"]:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = sumsetlab.cli.main(list(argv))
        except Exception:  # a crash is one failed item; the pass goes on
            code = "exception"
            err.write(traceback.format_exc())
        text = out.getvalue()
        codes.append(code)
        digests.append(hashlib.sha256(text.encode()).hexdigest())
        sizes.append(len(text.encode()))
        errors.append(err.getvalue())
        if spec["keep"]:
            outputs.append(text)
    end = _clock()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    peak_rss_kib = _peak_rss_kib()

    result = {
        "setup_s": setup_end - start,
        "wall_s": end - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": peak_rss_kib / 1024.0,
        "codes": codes,
        "digests": digests,
        "output_bytes": sum(sizes),
        "stderr": errors,
        "outputs": outputs,
    }
    if tracer is not None:
        spans_path = result_path + ".spans.jsonl"
        tracer.dump(spans_path)
        result["spans"] = spans_path
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]), sys.argv[3], sys.argv[4])
