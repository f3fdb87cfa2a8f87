"""Differential tests: the compiled reaction engine must be
bit-identical to the reference interpreter.

Every program below runs under both :class:`CReaction` (the tuple-AST
interpreter, the semantic reference) and :class:`CompiledReaction`
(the exec-generated closure fast path) with identical environments,
and the full observable outcome must match:

- the returned value (or the exact ``ReactionError`` message),
- ``last_op_count`` (the agent charges simulated time per op, so the
  engines must agree operation-for-operation or timelines diverge),
- the ordered log of malleable reads/writes and table method calls,
- the final malleable state and the persistent static state.

Coverage comes in four layers: a hand-written corpus of semantic
corner cases, one reaction body per paper use case (dos / ecmp / rl /
sketch / failover), randomized whole programs (hypothesis), and
width-mask parity across every declarable C type.
"""

from functools import lru_cache

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.compiler.transform import CompilerOptions
from repro.errors import ReactionError
from repro.p4r import compiled_reaction as compiled_mod
from repro.p4r.compiled_reaction import CompiledReaction
from repro.p4r.creaction import (
    _FLOAT_TYPES,
    TYPE_MASKS,
    CReaction,
    ReactionEnv,
)
from repro.switch.packet import Packet
from repro.system import MantisSystem


class FakeTable:
    """Records every method call so call order and arguments can be
    compared across engines."""

    def __init__(self, log, name):
        self.log = log
        self.name = name
        self._next = 0

    def addEntry(self, *args):
        self.log.append((self.name, "addEntry", args))
        self._next += 1
        return self._next

    def modEntry(self, *args):
        self.log.append((self.name, "modEntry", args))
        return 1

    def delEntry(self, *args):
        self.log.append((self.name, "delEntry", args))
        return 1


def make_env(statics, args=None, mbl=None, table_names=(), externs=None):
    mbl = dict(mbl or {})
    log = []

    def read_malleable(name):
        log.append(("read", name))
        return mbl.get(name, 0)

    def write_malleable(name, value):
        log.append(("write", name, value))
        mbl[name] = value

    env = ReactionEnv(
        args=dict(args or {}),
        read_malleable=read_malleable,
        write_malleable=write_malleable,
        tables={name: FakeTable(log, name) for name in table_names},
        statics=statics,
        externs=dict(externs or {}),
    )
    return env, mbl, log


def run_engine(cls, source, cfg, repeats):
    """Run ``repeats`` consecutive invocations (statics persist) and
    return (outcomes, final static state)."""
    cfg = cfg or {}
    statics = {}
    outcomes = []
    try:
        reaction = cls(source, name="rx")
    except ReactionError as exc:
        return [("parse-error", str(exc))], None
    args_seq = cfg.get("args_seq")
    for i in range(repeats):
        args = args_seq[i % len(args_seq)] if args_seq else cfg.get("args")
        env, mbl, log = make_env(
            statics,
            args=args,
            mbl=cfg.get("mbl"),
            table_names=cfg.get("tables", ()),
            externs=cfg.get("externs"),
        )
        try:
            value = reaction.run(env)
            outcomes.append(
                ("ok", value, reaction.last_op_count, tuple(log), dict(mbl))
            )
        except ReactionError as exc:
            outcomes.append(("error", str(exc), tuple(log), dict(mbl)))
    static_state = {
        key: (
            list(var.value) if isinstance(var.value, list) else var.value,
            var.ctype,
        )
        for key, var in statics.items()
    }
    return outcomes, static_state


def assert_differential(source, cfg=None, repeats=3):
    interp = run_engine(CReaction, source, cfg, repeats)
    compiled = run_engine(CompiledReaction, source, cfg, repeats)
    if interp != compiled:
        try:
            generated = CompiledReaction(source).python_source
        except ReactionError:
            generated = "<parse error>"
        pytest.fail(
            "engines diverge\n"
            f"  interp  : {interp}\n"
            f"  compiled: {compiled}\n"
            f"  source  : {source!r}\n"
            f"--- generated ---\n{generated}"
        )


# ---------------------------------------------------------------------------
# Corpus of semantic corner cases.

CORPUS = [
    ("empty", "", {}),
    ("return const", "return 1 + 2 * 3;", {}),
    ("locals", "int x = 5; uint8_t y = 300; return x + y;", {}),
    ("wrap", "uint8_t a = 255; a += 1; return a;", {}),
    ("int no wrap", "int x = 1; x = x << 70; return x;", {}),
    ("float", "float f = 1; f = f / 2; return f;", {}),
    ("div trunc", "int a = 0 - 7; return a / 2;", {}),
    ("mod sign", "int a = 0 - 7; return a % 3;", {}),
    ("ternary", "int x = 3; return x > 2 ? 10 : 20;", {}),
    ("logical",
     "int x = 0; int y = (x && 5) + (x || 7) + (3 && 2); return y;", {}),
    ("while loop",
     "int i = 0; int s = 0; while (i < 10) { s += i; i++; } return s;", {}),
    ("for loop",
     "int s = 0; for (int i = 0; i < 5; ++i) { s += i * i; } return s;", {}),
    ("for continue",
     "int s = 0; for (int i = 0; i < 6; i++) { if (i % 2) continue; s += i; }"
     " return s;", {}),
    ("for break",
     "int s = 0; for (int i = 0; ; i++) { if (i > 4) break; s += 1; }"
     " return s;", {}),
    ("nested loops",
     "int s = 0; for (int i = 0; i < 4; i++) { int j = 0; while (j < 3) {"
     " if (j == 2) { j++; continue; } s += i * j; j++; } } return s;", {}),
    ("array",
     "uint32_t a[4] = {1, 2, 3}; a[3] = a[0] + a[1]; a[1] += 10;"
     " return a[1] + a[3];", {}),
    ("static scalar", "static int calls = 0; calls += 1; return calls;", {}),
    ("static array", "static uint16_t h[4] = {9}; h[1]++; return h[0] + h[1];",
     {}),
    ("mbl rw", "${thresh} = ${thresh} + 5; return ${thresh};",
     {"mbl": {"thresh": 10}}),
    ("mbl compound", "${x} += 3; ${x} *= 2; return ${x};", {"mbl": {"x": 1}}),
    ("args", "return pkt_len * 2 + src;",
     {"args": {"pkt_len": 750, "src": 4}}),
    ("arg array", "return regs[0] + regs[1];", {"args": {"regs": [5, 6]}}),
    ("builtins", "return max(3, min(10, 7)) + abs(0 - 4);", {}),
    ("extern", "return double_it(21);",
     {"externs": {"double_it": lambda v: v * 2}}),
    ("table ops", "int id = t.addEntry(5, 1); t.modEntry(id, 9); return id;",
     {"tables": ("t",)}),
    ("preinc post",
     "int x = 5; int a = x++; int b = ++x; int c = x--; int d = --x;"
     " return a * 1000 + b * 100 + c * 10 + d;", {}),
    ("mbl inc", "${c}++; ++${c}; return ${c};", {"mbl": {"c": 0}}),
    ("array inc",
     "int a[3] = {5, 6, 7}; a[1]++; ++a[2]; return a[1] + a[2];", {}),
    ("shadowing", "int x = 1; { int x = 2; x += 10; } return x;", {}),
    ("cmp chain",
     "int a = 3; int b = 4; return (a < b) + (a <= 3) + (a == b) + (a != b)"
     " + (a > b) + (b >= 4);", {}),
    ("unary", "int x = 5; return !x + !0 + ~x + -x + +x;", {}),
    ("bit ops", "uint16_t x = 0xF0F0; return (x & 0xFF) | (x >> 8) ^ 3;", {}),
    ("side effect order",
     "int i = 0; int a[4] = {0,0,0,0}; a[i++] = i; a[i] = i++;"
     " return a[0] * 100 + a[1] * 10 + i;", {}),
    ("compound index side",
     "int i = 0; int a[3] = {1,2,3}; a[i++] += 10;"
     " return a[0] * 100 + a[1] * 10 + i;", {}),
    ("assign chain", "int x = 0; int y = 0; x = y = 7; return x + y * 10;",
     {}),
    ("static lazy",
     "int q = 1; if (q) { static int s = 99; s += 1; return s; } return 0;",
     {}),
    ("div by zero", "int z = 0; return 5 / z;", {}),
    ("mod by zero", "int z = 0; return 5 % z;", {}),
    ("bad index", "int a[2] = {1,2}; return a[5];", {}),
    ("bad store", "int a[2] = {1,2}; a[9] = 1; return 0;", {}),
    ("undef var", "return nope + 1;", {}),
    ("undeclared assign", "nope = 5;", {}),
    ("assign to arg", "x = 5;", {"args": {"x": 1}}),
    ("unknown fn", "return mystery(1);", {}),
    ("unknown table", "z.addEntry(1);", {}),
    ("no method", "t.frobnicate(1);", {"tables": ("t",)}),
    ("break outside", "break;", {}),
    ("scalar initlist", "int x = {1, 2};", {}),
    ("array bad init", "int a[3] = 5;", {}),
    ("string arg", 'log_it("hello"); return 0;',
     {"externs": {"log_it": lambda s: None}}),
    ("float default", "float f; return f;", {}),
    ("dict arg index", "return regs[0];", {"args": {"regs": {0: 42}}}),
    ("arg in loop",
     "int s = 0; for (int i = 0; i < n; i++) { s += i; } return s;",
     {"args": {"n": 8}}),
    ("static persists",
     "static int c = 0; static int h[2] = {0, 0}; c++; h[0] += c;"
     " return h[0];", {}),
    ("ternary side", "int x = 1; int y = (x ? x++ : --x); return x * 10 + y;",
     {}),
    ("logical side", "int x = 0; int r = (x++ || ++x); return r * 100 + x;",
     {}),
    ("method before args", "z.addEntry(boom());", {}),
    ("call arg order", "int i = 0; t.addEntry(i++, i); return i;",
     {"tables": ("t",)}),
]


@pytest.mark.parametrize(
    "source,cfg", [(src, cfg) for _name, src, cfg in CORPUS],
    ids=[name for name, _src, _cfg in CORPUS],
)
def test_corpus_differential(source, cfg):
    assert_differential(source, cfg)


# ---------------------------------------------------------------------------
# One reaction body per paper use case.  The app modules themselves
# attach host-side Python implementations; these are the equivalent
# creaction bodies, exercising each app's characteristic pattern.

AGENT_DOS_REACTION_BODY = """
    static uint32_t prev_total;
    static uint32_t srcs[64];
    static uint32_t counts[64];
    uint32_t total = total_bytes[0];
    uint32_t src = ipv4_srcAddr;
    uint32_t marginal = (total - prev_total) & 4294967295;
    prev_total = total;
    if (src != 0 && marginal != 0) {
        int slot = 0 - 1;
        for (int i = 0; i < 64; i++) {
            if (srcs[i] == src || srcs[i] == 0) { slot = i; break; }
        }
        if (slot >= 0) {
            srcs[slot] = src;
            counts[slot] = counts[slot] + marginal;
        }
    }
    uint32_t peak = 0;
    uint32_t peak_src = 0;
    for (int i = 0; i < 64; i++) {
        if (counts[i] > peak) { peak = counts[i]; peak_src = srcs[i]; }
    }
    ${hot_src} = peak_src;
    ${hot_bytes} = peak;
    if (peak > ${threshold} && ${blocked} == 0) {
        blocklist.addEntry(peak_src, "block");
        ${blocked} = 1;
    }
    return peak;
"""

# The Figure 15 DoS program with the estimate-and-block reaction as a
# C body (the host-Python variant lives in repro.apps.dos).
# ``hot_src``/``hot_bytes``/``blocked`` are malleable outputs;
# ``threshold`` is a malleable input (bytes before blocking).
AGENT_DOS_P4R = """
header_type standard_metadata_t {
    fields { egress_spec : 9; packet_length : 32; }
}
metadata standard_metadata_t standard_metadata;
header_type ipv4_t {
    fields { srcAddr : 32; dstAddr : 32; proto : 8; }
}
header ipv4_t ipv4;
header_type acct_t { fields { total : 32; } }
metadata acct_t acct;

register total_bytes { width : 32; instance_count : 1; }

malleable value hot_src { width : 32; init : 0; }
malleable value hot_bytes { width : 32; init : 0; }
malleable value blocked { width : 32; init : 0; }
malleable value threshold { width : 32; init : 100000; }

action allow() { no_op(); }
action block() { drop(); }

malleable table blocklist {
    reads { ipv4.srcAddr : exact; }
    actions { allow; block; }
    default_action : allow();
    size : 1024;
}

action account() {
    register_read(acct.total, total_bytes, 0);
    add(acct.total, acct.total, standard_metadata.packet_length);
    register_write(total_bytes, 0, acct.total);
}
table accounting {
    actions { account; }
    default_action : account();
}

control ingress {
    apply(blocklist);
    apply(accounting);
}

reaction estimate_and_block(ing ipv4.srcAddr, reg total_bytes[0:0]) {
""" + AGENT_DOS_REACTION_BODY + """
}
"""


ECMP_LB_WATCH = """
static uint32_t prev[16] = {0};
uint32_t marg[16] = {0};
uint32_t total = 0;
for (int i = 0; i < 16; i++) {
    marg[i] = egr_count[i] - prev[i];
    prev[i] = egr_count[i];
    total += marg[i];
}
uint32_t mean = total / 16;
uint32_t dev = 0;
for (int i = 0; i < 16; i++) {
    dev += marg[i] > mean ? marg[i] - mean : mean - marg[i];
}
if (total > 0 && dev * 4 > total) {
    ${hash_in1} = (${hash_in1} + 1) % 2;
}
return dev;
"""

RL_Q_LEARN = """
static long q[6] = {0, 0, 0, 0, 0, 0};
static int last_a = 0;
long reward = egr_pkts[0] - egr_depth[0] * 4;
q[last_a] = q[last_a] + (reward - q[last_a]) / 4;
int best = 0;
for (int a = 1; a < 6; a++) {
    if (q[a] > q[best]) { best = a; }
}
last_a = best;
${ecn_thresh} = (best + 1) * 10;
return q[best];
"""

SKETCH_CM_WATCH = """
static uint32_t prev_est = 0;
uint32_t est = 0;
for (int i = 0; i < 64; i++) {
    uint32_t v = cm_row0[i] < cm_row1[i] ? cm_row0[i] : cm_row1[i];
    if (v > est) { est = v; }
}
uint32_t delta = est - prev_est;
prev_est = est;
if (delta > ${hh_thresh}) {
    alerts.addEntry(est, "alert");
}
return est;
"""

FAILOVER_HB_WATCH = """
static uint32_t last[16] = {0};
static int down[16] = {0};
int failures = 0;
for (int p = 0; p < 16; p++) {
    if (hb_count[p] == last[p]) {
        if (down[p] == 0) {
            down[p] = 1;
            route.modEntry(p, "forward", (p + 1) % 16);
            failures++;
        }
    } else {
        down[p] = 0;
    }
    last[p] = hb_count[p];
}
${fail_count} += failures;
return failures;
"""


APP_REACTIONS = {
    "dos": (
        AGENT_DOS_REACTION_BODY,
        {
            "mbl": {"hot_src": 0, "hot_bytes": 0, "blocked": 0,
                    "threshold": 4000},
            "tables": ("blocklist",),
            "args_seq": [
                {"ipv4_srcAddr": 0x0AFF0001, "total_bytes": [1500]},
                {"ipv4_srcAddr": 0x0A000001, "total_bytes": [3000]},
                {"ipv4_srcAddr": 0x0AFF0001, "total_bytes": [9000]},
                {"ipv4_srcAddr": 0x0AFF0001, "total_bytes": [15000]},
            ],
        },
    ),
    "ecmp": (
        ECMP_LB_WATCH,
        {
            "mbl": {"hash_in1": 0},
            "args_seq": [
                {"egr_count": [i * 3 for i in range(16)]},
                {"egr_count": [i * 3 + (40 if i == 2 else 1)
                               for i in range(16)]},
                {"egr_count": [i * 3 + (90 if i == 2 else 2)
                               for i in range(16)]},
            ],
        },
    ),
    "rl": (
        RL_Q_LEARN,
        {
            "mbl": {"ecn_thresh": 20},
            "args_seq": [
                {"egr_pkts": [120], "egr_depth": [3]},
                {"egr_pkts": [80], "egr_depth": [30]},
                {"egr_pkts": [200], "egr_depth": [1]},
                {"egr_pkts": [10], "egr_depth": [60]},
            ],
        },
    ),
    "sketch": (
        SKETCH_CM_WATCH,
        {
            "mbl": {"hh_thresh": 500},
            "tables": ("alerts",),
            "args_seq": [
                {"cm_row0": [i * 7 % 97 for i in range(64)],
                 "cm_row1": [i * 13 % 89 for i in range(64)]},
                {"cm_row0": [(i * 7 % 97) + 600 for i in range(64)],
                 "cm_row1": [(i * 13 % 89) + 550 for i in range(64)]},
                {"cm_row0": [(i * 7 % 97) + 610 for i in range(64)],
                 "cm_row1": [(i * 13 % 89) + 560 for i in range(64)]},
            ],
        },
    ),
    "failover": (
        FAILOVER_HB_WATCH,
        {
            "mbl": {"fail_count": 0},
            "tables": ("route",),
            "args_seq": [
                {"hb_count": [5] * 16},
                {"hb_count": [6] * 8 + [5] * 8},  # ports 8-15 go stale
                {"hb_count": [7] * 8 + [5] * 8},  # still stale: no re-fire
                {"hb_count": [8] * 16},           # recovery
                {"hb_count": [9] * 8 + [8] * 8},  # fail again
            ],
        },
    ),
}


@pytest.mark.parametrize("app", sorted(APP_REACTIONS))
def test_app_reaction_differential(app):
    source, cfg = APP_REACTIONS[app]
    assert_differential(source, cfg, repeats=5)


def test_dos_reaction_blocks_attacker_in_both_engines():
    """Sanity beyond equality: the Fig. 15 body actually fires its
    blocklist insertion once the attacker crosses the threshold."""
    source, cfg = APP_REACTIONS["dos"]
    for cls in (CReaction, CompiledReaction):
        outcomes, _ = run_engine(cls, source, cfg, repeats=4)
        assert all(kind == "ok" for kind, *_rest in outcomes)
        final_mbl = outcomes[-1][4]
        assert final_mbl["blocked"] == 1
        adds = [entry for entry in outcomes[-1][3]
                if entry[:2] == ("blocklist", "addEntry")]
        assert len(adds) == 1


@lru_cache(maxsize=None)
def _dos_dialogue(engine):
    """Drive the full dialogue loop (mv flip, poll, reaction, commit)
    on the DoS program against a fixed packet schedule: every fourth
    iteration a burst of eight packets, half from the attacker."""
    # Small init-action packing spreads the four malleables over
    # several shadow init tables, so commits touch more than one.
    system = MantisSystem.from_source(
        AGENT_DOS_P4R,
        options=CompilerOptions(max_init_action_params=3),
        num_ports=8,
        reaction_engine=engine,
    )
    agent = system.agent
    agent.prologue()
    for index in range(120):
        if index % 4 == 0:
            for position in range(8):
                attacker = position % 2
                src = 0x0AFF0001 if attacker else (
                    0x0A000001 + (index + position) % 12
                )
                system.asic.process(Packet(
                    fields={"ipv4.srcAddr": src, "ipv4.dstAddr": 0x0A00FFFF,
                            "ipv4.proto": 17 if attacker else 6},
                    size_bytes=1500,
                ))
        agent.run_iteration()
    return (
        dict(agent.phase_totals),
        system.driver.ops_issued,
        agent.read_malleable("blocked"),
    )


@pytest.mark.parametrize("engine", ["interp", "compiled"])
def test_dos_dialogue_engine_parity(engine):
    """Both reaction engines drive the agent to the same simulated
    timeline: op-count parity makes them interchangeable."""
    other = "compiled" if engine == "interp" else "interp"
    phases, ops, blocked = _dos_dialogue(engine)
    other_phases, other_ops, _ = _dos_dialogue(other)
    assert phases == other_phases
    assert ops == other_ops
    assert blocked == 1


# ---------------------------------------------------------------------------
# Randomized whole programs.

_BINOPS = ["+", "-", "*", "&", "|", "^", "<", "<=", ">", ">=", "==", "!="]


@st.composite
def _expr(draw, names, depth=0):
    kind = draw(st.integers(0, 9 if depth < 3 else 1))
    if kind == 0:
        return str(draw(st.integers(0, 255)))
    if kind == 1:
        return draw(st.sampled_from(names))
    if kind == 2:
        return "arr[(%s) & 7]" % draw(_expr(names, depth + 1))
    if kind == 3:
        return "(%s %s %s)" % (
            draw(_expr(names, depth + 1)),
            draw(st.sampled_from(_BINOPS)),
            draw(_expr(names, depth + 1)),
        )
    if kind == 4:  # guarded division / modulo
        return "(%s %s ((%s) | 1))" % (
            draw(_expr(names, depth + 1)),
            draw(st.sampled_from(["/", "%"])),
            draw(_expr(names, depth + 1)),
        )
    if kind == 5:  # bounded shift
        return "(%s %s ((%s) & 7))" % (
            draw(_expr(names, depth + 1)),
            draw(st.sampled_from(["<<", ">>"])),
            draw(_expr(names, depth + 1)),
        )
    if kind == 6:
        return "(%s%s)" % (draw(st.sampled_from(["-", "~", "!"])),
                           draw(_expr(names, depth + 1)))
    if kind == 7:
        return "(%s ? %s : %s)" % tuple(
            draw(_expr(names, depth + 1)) for _ in range(3)
        )
    if kind == 8:
        return "(%s %s %s)" % (
            draw(_expr(names, depth + 1)),
            draw(st.sampled_from(["&&", "||"])),
            draw(_expr(names, depth + 1)),
        )
    return "${m0}"


@st.composite
def _stmts(draw, names, depth, in_loop, mutable=None):
    # Loop counters are readable but never assigned, so every
    # generated loop provably terminates.
    mutable = mutable if mutable is not None else names
    count = draw(st.integers(1, 4 if depth == 0 else 2))
    lines = []
    for _ in range(count):
        kind = draw(st.integers(0, 8 if depth < 2 else 4))
        if kind == 0:
            op = draw(st.sampled_from(["=", "+=", "-=", "*=", "&=", "|=",
                                       "^="]))
            # Mask the RHS so unbounded ``int`` locals stay small even
            # under *= in nested loops (bignum blowup otherwise).
            lines.append("%s %s ((%s) & 65535);"
                         % (draw(st.sampled_from(mutable)), op,
                            draw(_expr(names))))
        elif kind == 1:
            op = draw(st.sampled_from(["=", "+=", "^="]))
            lines.append("arr[(%s) & 7] %s ((%s) & 65535);"
                         % (draw(_expr(names)), op, draw(_expr(names))))
        elif kind == 2:
            lines.append("${m0} %s ((%s) & 65535);"
                         % (draw(st.sampled_from(["=", "+="])),
                            draw(_expr(names))))
        elif kind == 3:
            form = draw(st.sampled_from(["%s++;", "++%s;", "%s--;", "--%s;"]))
            lines.append(form % draw(st.sampled_from(mutable)))
        elif kind == 4 and in_loop:
            lines.append("if (%s) { %s }"
                         % (draw(_expr(names)),
                            draw(st.sampled_from(["break;", "continue;"]))))
        elif kind == 5:
            body = draw(_stmts(names, depth + 1, in_loop, mutable))
            if draw(st.booleans()):
                orelse = draw(_stmts(names, depth + 1, in_loop, mutable))
                lines.append("if (%s) { %s } else { %s }"
                             % (draw(_expr(names)), body, orelse))
            else:
                lines.append("if (%s) { %s }" % (draw(_expr(names)), body))
        elif kind == 6:
            var = "i%d" % depth
            bound = draw(st.integers(1, 4))
            body = draw(_stmts(names + [var], depth + 1, True, mutable))
            lines.append("for (int %s = 0; %s < %d; %s++) { %s }"
                         % (var, var, bound, var, body))
        elif kind == 7:
            var = "w%d" % depth
            bound = draw(st.integers(1, 4))
            body = draw(_stmts(names + [var], depth + 1, True, mutable))
            lines.append("{ int %s = %d; while (%s > 0) { %s--; %s } }"
                         % (var, bound, var, var, body))
        else:
            lines.append("t.addEntry(%s, %s);"
                         % (draw(_expr(names)), draw(_expr(names))))
    return " ".join(lines)


@st.composite
def random_program(draw):
    names = ["s0", "s1", "st0", "n"]
    prologue = (
        "int s0 = %d; uint8_t s1 = %d; static int st0 = 0; "
        "int arr[8] = {%s}; "
        % (
            draw(st.integers(0, 100)),
            draw(st.integers(0, 300)),
            ", ".join(str(draw(st.integers(0, 50))) for _ in range(8)),
        )
    )
    body = draw(_stmts(names, 0, False))
    return prologue + body + (" return %s;" % draw(_expr(names)))


@settings(max_examples=120, deadline=None)
@given(random_program())
def test_random_program_differential(source):
    cfg = {"mbl": {"m0": 0}, "tables": ("t",), "args": {"n": 9}}
    assert_differential(source, cfg, repeats=2)


# ---------------------------------------------------------------------------
# Width semantics: both engines consult the one shared mask table.

def test_engines_share_one_mask_table():
    assert compiled_mod.TYPE_MASKS is TYPE_MASKS
    assert compiled_mod._FLOAT_TYPES is _FLOAT_TYPES


@pytest.mark.parametrize("ctype", sorted(TYPE_MASKS))
def test_width_wrap_parity(ctype):
    source = (
        f"{ctype} x = 0; x -= 1; {ctype} y = x + 2; {ctype} z = x * x;"
        " return y;"
    )
    cfg = {}
    interp = run_engine(CReaction, source, cfg, 1)
    compiled = run_engine(CompiledReaction, source, cfg, 1)
    assert interp == compiled
    kind, value, _ops, _log, _mbl = interp[0][0]
    assert kind == "ok"
    mask = TYPE_MASKS[ctype]
    if ctype in _FLOAT_TYPES:
        assert value == 1.0
    elif mask is None:  # int / long carry arbitrary precision
        assert value == 1
    else:  # 0 - 1 wraps to the type's max; +2 wraps back to 1
        assert value == 1
        wrapped = run_engine(
            CReaction, f"{ctype} x = 0; x -= 1; return x;", cfg, 1
        )[0][0][1]
        assert wrapped == mask


def test_compiled_exposes_python_source_and_op_parity():
    source = "int x = 1; return x + 2;"
    reaction = CompiledReaction(source)
    assert "def __bind__" in reaction.python_source
    assert "def __run__" in reaction.python_source
    assert reaction.run(ReactionEnv()) == 3
    reference = CReaction(source)
    reference.run(ReactionEnv())
    assert reaction.last_op_count == reference.last_op_count
