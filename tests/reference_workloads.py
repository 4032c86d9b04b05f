"""Frozen traced loops of the analogs whose ``run`` is now derived.

Test-only: nothing in ``src/`` imports this module.  It holds
``Bzip2Workload.run`` and ``ParserWorkload.run`` as they were when each
analog wrote its loop twice — once inline under ``tracer.task`` and once as
separate engine stages.  Each is a function of the workload instance, so a
test can put it in place of the derived ``Workload.run``;
``tests/test_workload_spec_differential.py`` asserts the derived run gives
the same traces, outputs and simulations.  The kernels (``compress_block``,
``cyk_parse``) are the shipped ones: ``tests/test_kernel_differential.py``
holds those.

Do not "improve" this file: its value is that it does not change.
"""

from __future__ import annotations

from typing import List

from repro.workloads.bzip2_w import compress_block
from repro.workloads.parser_w import cyk_parse, xfree_all


def reference_bzip2_run(self, tracer):
    data = self.text
    total_bits = 0
    checksum = 0
    iteration = 0
    position = 0

    while position < len(data):
        with tracer.task("A", iteration):
            block = data[position:position + self.block_size]
            # The block variable is privatized by the TLS memory
            # subsystem (Section 4.1.1) — each iteration's copy is its
            # own; only the read cost appears here.
            tracer.store("block", iteration, value=position)
            tracer.work(max(1, len(block) // 512))

        with tracer.task("B", iteration):
            tracer.load("block", iteration)
            bits, block_checksum, work = compress_block(block)
            tracer.store("outbuf", iteration, value=bits)
            tracer.work(work)

        with tracer.task("C", iteration):
            # Writes land in the output stream once positions are known.
            tracer.load("outbuf", iteration)
            total_bits += bits
            checksum = (checksum * 37 + block_checksum) % (1 << 32)
            tracer.work(max(1, bits // 8192))

        position += self.block_size
        iteration += 1

    return {
        "compressed_bits": total_bits,
        "checksum": checksum,
        "blocks": iteration,
    }


def reference_parser_run(self, tracer):
    xfree_all()
    echo_mode = False
    results: List[bool] = []
    echoed = 0

    for iteration, words in enumerate(self.sentences):
        is_command = (
            self.command_every and iteration % self.command_every == self.command_every - 1
        )
        with tracer.task("A", iteration):
            # Tokenize; commands are handled here, in the sequential
            # phase, per Section 4.3.2.
            tracer.work(len(words))
            if is_command:
                echo_mode = not echo_mode
                tracer.store("parser", "echo_mode", value=echo_mode)

        with tracer.task("B", iteration):
            if is_command:
                tracer.work(1)
                grammatical = True
            else:
                tracer.load("parser", "echo_mode")
                grammatical, work = cyk_parse(words)
                tracer.work(work)
                if echo_mode:
                    echoed += 1
            tracer.store("parse.result", iteration, value=grammatical)

        with tracer.task("C", iteration):
            tracer.load("parse.result", iteration)
            results.append(grammatical)
            tracer.work(1 + len(words) // 8)

    return {
        "accepted": sum(results),
        "rejected": len(results) - sum(results),
        "echoed": echoed,
    }
