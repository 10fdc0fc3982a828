"""Instruction-trace recording and replay.

A :class:`SyntheticStream` can be captured to a portable trace file and
replayed later through :class:`TraceStream`, which plugs into the
processor anywhere a stream does.  Uses:

* freezing a workload so results can be reproduced across library versions
  (the generator's RNG stream is stable within a version, a trace file is
  stable forever);
* driving the pipeline from externally produced traces (any tool that can
  emit the simple line format below can feed the simulator).

Format: one instruction per line,
``seq op fp srcs pc taken addr`` where ``srcs`` is comma-separated (or
``-``), ``fp``/``taken`` are 0/1 and ``addr`` is ``-`` for non-memory ops.
Lines starting with ``#`` are comments.
"""

from repro.workloads.generator import Instruction, OpClass


def record_trace(stream, count, path):
    """Generate ``count`` instructions from ``stream`` and write them."""
    with open(path, "w") as handle:
        handle.write("# repro instruction trace: %s thread=%d seed=%r\n"
                     % (stream.profile.name, stream.thread_id, stream.seed))
        for __ in range(count):
            instr = stream.next_instruction()
            handle.write(format_instruction(instr))
            handle.write("\n")


def format_instruction(instr):
    srcs = ",".join(str(src) for src in instr.srcs) if instr.srcs else "-"
    addr = str(instr.addr) if instr.addr is not None else "-"
    return "%d %s %d %s %d %d %s" % (
        instr.seq, instr.op, int(instr.is_fp), srcs, instr.pc,
        int(instr.taken), addr,
    )


def parse_instruction(line, thread_id):
    fields = line.split()
    if len(fields) != 7:
        raise ValueError("bad trace line: %r" % (line,))
    seq, op, is_fp, srcs, pc, taken, addr = fields
    if op not in OpClass.ALL:
        raise ValueError("unknown op %r in trace" % (op,))
    return Instruction(
        thread=thread_id,
        seq=int(seq),
        op=op,
        is_fp=bool(int(is_fp)),
        srcs=tuple(int(src) for src in srcs.split(",")) if srcs != "-" else (),
        pc=int(pc),
        taken=bool(int(taken)),
        addr=int(addr) if addr != "-" else None,
    )


class TraceStream:
    """Replays a recorded trace through the stream interface.

    The trace is loaded eagerly (traces are bounded by construction).  When
    the trace runs out, behaviour depends on ``wrap``: wrap around (seq
    numbers keep increasing so dependence references stay valid) or raise.
    """

    _ADDR_SPACE_BITS = 36

    def __init__(self, path, thread_id=0, wrap=True):
        self.thread_id = thread_id
        self.wrap = wrap
        # Address-space base for cache pre-warming; matches the generator
        # convention (the trace's absolute addresses are replayed as-is).
        self._base = thread_id << self._ADDR_SPACE_BITS
        self._records = []
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                self._records.append(parse_instruction(line, thread_id))
        if not self._records:
            raise ValueError("trace %r contains no instructions" % (path,))
        self._base_len = len(self._records)
        self.seq = 0

    def __len__(self):
        return self._base_len

    def next_instruction(self):
        index = self.seq % self._base_len
        lap = self.seq // self._base_len
        if lap > 0 and not self.wrap:
            raise StopIteration("trace exhausted at seq %d" % self.seq)
        template = self._records[index]
        offset = lap * self._base_len
        instr = Instruction(
            thread=self.thread_id,
            seq=self.seq,
            op=template.op,
            is_fp=template.is_fp,
            srcs=tuple(src + offset for src in template.srcs),
            pc=template.pc,
            taken=template.taken,
            addr=template.addr,
        )
        self.seq += 1
        return instr
