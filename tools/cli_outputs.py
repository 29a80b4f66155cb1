"""Print the output of a fixed list of CLI invocations.

Run from the root of a checkout, with PYTHONPATH naming the source tree
to exercise:

    PYTHONPATH=src python tools/cli_outputs.py > head.txt
    PYTHONPATH=../base/src python tools/cli_outputs.py > base.txt
    diff base.txt head.txt

For each invocation it prints the argv, the exit code, stdout and, if
there is any, stderr, so two source trees that print the same text give
byte-identical CLI output and error text on these inputs. The G(n, p)
inputs come from this script's own seeded stdlib RNG and graph6 writer,
not from the program. The default formats print one decimal, which hides
drift in the last bits, so a few invocations print full precision:
`bounds --json` on the named and G(n, p) inputs, `compare --json` on a
mixed list, one random-table CSV and two random-table JSON; `sweep`
prints full precision too, for all five bounds on the named inputs and
for GenHoffman and GenNormalizedHoffman on the G(n, p) inputs and on
the edgeless "D??" (an empty column, and exit 2 at its isolated vertex
0). The JSON
rows redraw edgeless samples and list the (sample, seed) pairs they
redrew. The second JSON table has several chunks per row, which
random-table solves on worker threads when BLAS leaves CPUs free: run
with OPENBLAS_NUM_THREADS=1 on two or more CPUs, as CI does, a source
tree with worker threads is compared with one without, and the first
row's 36 redraws cross chunk boundaries. A change that adds a JSON key
shows here as a difference, and should say so. The edge cases of the greedy coloring that chromatic and
certify share are covered too: certify and chromatic on an edgeless
graph (the palette widened to two colors, the loan identity skipped),
certify on a graph with an isolated vertex, and certify on a single
vertex, which has no margin to print (min_margin n/a). certify also runs
on K_8 (the palette as large as n), on K_{3,3,3} and on the Petersen
graph with --colors 5 (a palette wider than the greedy one) and --colors
10 (k = n, the widest palette certify accepts; a wider one exits 2
before any unitary is built, which older trees did not do, so none runs
here). A min_margin line prints the smallest margin over m < n to four
digits, so it shows a changed verdict, not drift in the last bits;
tests/test_batched.py compares every margin bit for bit. chromatic runs on three more G(n, p) inputs, two G(30, .5) and one
G(24, .8), and on the triangle-free Mycielskian of the Grötzsch graph
(chromatic number 5): each deepens through one or more searches that
fail before the one that finds the witness, so a change to the exact
search that changes a witness, or the coloring taken when every search
fails, shows here. One more chromatic input is a G(50, .5) from its own
seeded RNG, where the witness descent tries colors that fail and colors
that complete. certify --colors 3 on a 65-cycle exits 2 on trees whose
exact search refuses more than 64 vertices; older trees certify it.
chromatic on gen:cycle(10001) and on an edge list of 10 001 vertices
exits 2 on every tree, and names the input's vertex count on trees that
refuse it before building the graph.

Four inputs are @file references to files the script writes into a
temporary directory, printed as $TMP in the argv lines. One is an edge
list with an "n" line, reversed and repeated pairs, and two trailing
isolated vertices; bounds --json, certify, chromatic and sweep --bound
GenNormalizedHoffman run on it, and the sweep exits 2 on the isolated
vertex. The second is the graph6 text of a G(70, .5), whose vertex
count takes the four-byte header, run through bounds --json and
certify. The third is a G(300, .5), the size of the benchmark's largest
bounds input, run through bounds --json, sweep --bound GenHoffman and
certify, so the matrix builders, eigensolves, integer search and the
certificates' residuals and margins are compared at sizes where BLAS
takes its blocked code paths. The fourth is the oversize edge list above.

The next five invocations cover the graph6 decoder's refusals and its
prefix: bounds on "C~~" (a trailing byte), chromatic on "D" (a truncated
bit field) and on "B@" (nonzero padding bits), each exit 2 with its
error line, and chromatic on ">>graph6<<D?{" (the prefix is stripped).
bounds on "~??IheA@GUAo", the Petersen graph behind a four-byte header,
exits 2 on trees that accept only the one-byte header of n <= 62;
older trees read it and exit 0.
Then bounds runs on gen:complete_bipartite(2,3) and gen:cycle(7), the
generator families no other invocation computes, and on one refused
generator spec of each kind of error, among them two refusals of the
builders themselves (a circulant offset out of range, a 2-cycle), each
exit 2 with its error line, so every path of the generator parser is
compared.
The last two run compare, in the table and CSV formats, on a list with
failing rows: an unknown generator and the truncated "D" each print
their row's error between rows that compute, and the command exits 0.
compare --csv also runs on the default named graphs, two of whose
names hold commas, so the CSV quoting is compared too.
"""

from __future__ import annotations

import contextlib
import io
import random
import tempfile
from pathlib import Path

from spectral_chroma.cli import main
from spectral_chroma.experiments import DEFAULT_NAMED

SWEEP_BOUNDS = (
    "GenHoffman",
    "GenNikiforov",
    "GenKolotilina1",
    "GenKolotilina2",
    "GenNormalizedHoffman",
)
# sweep on the G(n, p) inputs and the edgeless graph: one bound read from
# the A, L and Q spectra and the one read from the normalized A
GNP_SWEEP_BOUNDS = ("GenHoffman", "GenNormalizedHoffman")
GNP_SIZES = (9, 14, 25, 40)  # graph6 of n = 1 would start with "@", a file reference
GNP_P = 0.5
GNP_SEED = 7
# chromatic inputs drawn after the GNP_SIZES ones, whose deepening runs
# failing searches before the witness: two G(30, .5) and one G(24, .8)
DEEP_GNP = ((30, 0.5), (30, 0.5), (24, 0.8))
# compare --json also covers the edge cases of a report: no edges (every
# bound invalid), an isolated vertex (normalized bounds invalid), and K2
MIXED_COMPARE = ("D??", "Dh?", "gen:complete(2)")
# compare rows that fail, an unknown generator and a truncated graph6,
# between rows that compute; in default, CSV and JSON form
FAILING_COMPARE = ("gen:cycle(5)", "gen:nosuch", "D", "gen:petersen")
# generator specs refused with each kind of error (exit 2): wrong arity,
# a non-integer argument, a digit-grouped one, petersen with an argument,
# no part sizes, no nested spec, circulant without its semicolon, an
# unknown family, an unparseable spec, and two refusals of the builders
# themselves
REFUSED_SPECS = (
    "gen:windmill(3)",
    "gen:cycle(5,x)",
    "gen:cycle(1_0)",
    "gen:petersen(1)",
    "gen:complete_multipartite()",
    "gen:mycielskian()",
    "gen:circulant(16,1)",
    "gen:hypercube(4)",
    "gen:complete(5",
    "gen:circulant(8;9)",
    "gen:cycle(2)",
)
# the generator families that no other invocation computes
UNCOVERED_FAMILIES = ("gen:complete_bipartite(2,3)", "gen:cycle(7)")
# an edge list on 9 vertices: a 5-cycle with a chord and a pendant path,
# every pair given in both orders, vertices 7 and 8 isolated
EDGE_LIST = "n 9\n1 0\n0 1\n2 1\n2 3\n3 4\n4 0\n0 2\n3 2\n4 5\n5 6\n6 5\n1 2\n4 3\n"
# drawn after DEEP_GNP: a vertex count past 62 needs the four-byte graph6 header
LONG_HEADER_N = 70
# drawn after LONG_HEADER_N: the largest n of the benchmark's bounds inputs
LARGE_N = 300
# a chromatic input from its own RNG, DESCENT_SEED picked so the exact
# search answers in under 2 s with the witness descent's trial searches
DESCENT_N, DESCENT_SEED = 50, 3
# an edge list one past the 10 000 vertices of a graph6 id
OVERSIZE_EDGE_LIST = "0 1\n2 10000\n"


def gnp_graph6(n: int, p: float, rng: random.Random) -> str:
    """graph6 text of G(n, p): header, then the upper triangle column by column."""

    if not 2 <= n <= 258047:
        raise ValueError(f"graph6 headers here cover 2 <= n <= 258047, got {n}")
    bits = [rng.random() < p for j in range(1, n) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    out = [n + 63] if n <= 62 else [126] + [(n >> shift & 63) + 63 for shift in (12, 6, 0)]
    for k in range(0, len(bits), 6):
        chunk = 0
        for bit in bits[k:k + 6]:
            chunk = (chunk << 1) | bit
        out.append(chunk + 63)
    return bytes(out).decode("ascii")


def invocations(tmp: Path) -> list[list[str]]:
    """The argv lists; the @file inputs are written into the directory tmp."""

    rng = random.Random(GNP_SEED)
    gnp = [gnp_graph6(n, GNP_P, rng) for n in GNP_SIZES]
    deep = [gnp_graph6(n, p, rng) for n, p in DEEP_GNP]
    edge_file = tmp / "edges.txt"
    edge_file.write_text(EDGE_LIST, encoding="ascii")
    g6_file = tmp / "long_header.g6"
    g6_file.write_text(gnp_graph6(LONG_HEADER_N, GNP_P, rng) + "\n", encoding="ascii")
    large_file = tmp / "large.g6"
    large_file.write_text(gnp_graph6(LARGE_N, GNP_P, rng) + "\n", encoding="ascii")
    oversize_file = tmp / "oversize.txt"
    oversize_file.write_text(OVERSIZE_EDGE_LIST, encoding="ascii")
    out = []
    for spec in DEFAULT_NAMED:
        out.append(["bounds", spec])
        out.append(["bounds", "--json", spec])
        out.append(["certify", spec])
        out.extend(["sweep", spec, "--bound", bound] for bound in SWEEP_BOUNDS)
    for g6 in gnp:
        out.append(["bounds", g6])
        out.append(["bounds", "--json", g6])
        out.append(["certify", g6])
        out.append(["chromatic", g6])
        out.extend(["sweep", g6, "--bound", bound] for bound in GNP_SWEEP_BOUNDS)
    # an exact witness from colorable_with; this graph's chromatic number is 7
    out.append(["certify", gnp[GNP_SIZES.index(25)], "--colors", "7"])
    out.append(["compare", "--named", "default"])
    # the circulant and windmill names hold commas, so their CSV cells are quoted
    out.append(["compare", "--named", "default", "--csv"])
    out.append(["compare", "--named", "default", "--json", *MIXED_COMPARE])
    out.append(["corpus-check", "--max-n", "7"])
    out.append(["chromatic", "gen:petersen"])
    out.extend(["chromatic", g6] for g6 in deep)
    # triangle-free with chromatic number 5: the greedy clique gives 2, so
    # the searches for 2, 3 and 4 colors all fail before greedy's 5 is taken
    out.append(["chromatic", "gen:mycielskian(mycielskian(cycle(5)))"])
    out.append(["chromatic", gnp_graph6(DESCENT_N, GNP_P, random.Random(DESCENT_SEED))])
    out.append(["certify", "gen:cycle(65)", "--colors", "3"])  # past the exact search's ceiling
    out.append(["chromatic", "gen:cycle(10001)"])
    out.append(["chromatic", f"@{oversize_file}"])
    # no edges: one greedy color widened to two, "loan skipped"; then an isolated vertex
    out.append(["certify", "D??"])
    out.append(["chromatic", "D??"])
    # every m inadmissible (an empty column); the normalized A is undefined (exit 2)
    out.extend(["sweep", "D??", "--bound", bound] for bound in GNP_SWEEP_BOUNDS)
    out.append(["certify", "Dh?"])
    out.append(["certify", "gen:complete(1)"])  # no m < n: min_margin n/a
    out.append(["certify", "gen:complete(8)"])
    out.append(["certify", "gen:complete_multipartite(3,3,3)"])
    out.append(["certify", "gen:petersen", "--colors", "5"])
    out.append(["certify", "gen:petersen", "--colors", "10"])
    out.append(["random-table", "--rows", "7:0.3,20:1.0", "--samples", "50"])
    out.append(["random-table", "--rows", "7:0.3,20:1.0,50:0.5", "--samples", "50", "--csv"])
    # a negative seed and edgeless redraws (114 and 50 regenerated pairs),
    # at full precision; each row is one chunk shorter than its chunk length
    out.append(
        ["random-table", "--rows", "2:0.3,3:0.2", "--samples", "37", "--seed", "-4", "--json"]
    )
    # several chunks per row: with OPENBLAS_NUM_THREADS=1 on two or more
    # CPUs they are solved on worker threads, and the 36 redraws of the
    # first row cross the chunk boundaries
    out.append(
        ["random-table", "--rows", "60:0.0005,50:0.5", "--samples", "40", "--seed", "3", "--json"]
    )
    edges = f"@{edge_file}"
    out.append(["bounds", "--json", edges])
    out.append(["certify", edges])
    out.append(["chromatic", edges])
    out.append(["sweep", edges, "--bound", "GenNormalizedHoffman"])  # exit 2: isolated vertex
    out.append(["bounds", "--json", f"@{g6_file}"])
    out.append(["certify", f"@{g6_file}"])
    out.append(["bounds", "--json", f"@{large_file}"])
    out.append(["sweep", f"@{large_file}", "--bound", "GenHoffman"])
    out.append(["certify", f"@{large_file}"])
    # graph6 text that parse_graph6 refuses (exit 2), and one with the optional prefix
    out.append(["bounds", "C~~"])  # a trailing byte
    out.append(["chromatic", "D"])  # truncated bit field
    out.append(["chromatic", "B@"])  # nonzero padding bits
    out.append(["chromatic", ">>graph6<<D?{"])
    out.append(["bounds", "~??IheA@GUAo"])  # a four-byte header for n = 10
    out.extend(["bounds", spec] for spec in UNCOVERED_FAMILIES + REFUSED_SPECS)
    out.append(["compare", *FAILING_COMPARE])
    out.append(["compare", "--csv", *FAILING_COMPARE])
    out.append(["compare", "--json", *FAILING_COMPARE])
    return out


def run(argv: list[str], tmp: Path) -> str:
    """One invocation's argv, exit code, stdout and stderr, with tmp shown as $TMP."""

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    text = f"$ spectral-chroma {' '.join(argv)}\nexit {code}\n{stdout.getvalue()}"
    if stderr.getvalue():
        text += f"stderr:\n{stderr.getvalue()}"
    return text.replace(str(tmp), "$TMP")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for argv in invocations(Path(tmp)):
            print(run(argv, Path(tmp)), end="", flush=True)
