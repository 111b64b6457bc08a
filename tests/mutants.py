"""Mutation checks: does the test suite still catch each recorded fault?

    python -m tests.mutants [NAME ...]

MUTANTS is a table of named faults, each a source file, an exact snippet of
it, the snippet's replacement, and the tests expected to fail.  For each
mutant (or each NAME given), src, tests, agqbench and pyproject.toml are
copied to a temporary directory, the snippet, which must occur exactly once
in its file, is replaced, and only the named tests run there, stopping at the
first failure.  A mutant is caught when pytest reports a failed test (exit
code 1) and survives when every named test passes.  One line per mutant
gives the verdict, the time and, for a caught mutant, the first test that
pytest reports as FAILED, or as ERROR where a fixture failed.  The exit code is 1 if any mutant survived,
a snippet did not match its file exactly once, or pytest could not run the
named tests; else 0, and 2 for a NAME that no mutant has.  It is not part of
the test suite: each mutant costs a pytest start-up and its tests.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "agqbench", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


CODES, FIELDS, CURVES = "src/agq/codes.py", "src/agq/fields.py", "src/agq/curves.py"
CONSTRUCTIONS, POINTS, CLI = "src/agq/constructions.py", "src/agq/points.py", "src/agq/cli.py"
T_CODES, T_FIELDS, T_CURVES = "tests/test_codes.py", "tests/test_fields.py", "tests/test_curves.py"
T_CONSTRUCTIONS, T_CLI = "tests/test_constructions.py", "tests/test_cli.py"
T_TWINS = "tests/test_twins.py::test_twins_agree_with_every_record"  # on every record mutant

MUTANTS = (
    # the O(q) start and the table build: the primitivity certificate, the slices and the zero coordinate
    Mutant("certificate-drops-coset-clause", FIELDS,
           "if np.any(log_b[1:] == sentinel) or not np.bincount(ratios, minlength=q).all():", "if False:",
           (f"{T_FIELDS}::test_primitivity_certificate_rejects_each_clause",)),
    Mutant("slice-offset-shifted-by-one", FIELDS,
           "small_exp[start:].take(log_a", "small_exp[start + 1 :].take(log_a",
           (f"{T_FIELDS}::test_build_tables_match_loop", f"{T_FIELDS}::test_build_tables_across_block_boundaries")),
    Mutant("zero-coordinate-reads-n0", FIELDS,
           "small_log = np.full(q, sentinel, dtype=np.int64)", "small_log = np.zeros(q, dtype=np.int64)",
           (f"{T_FIELDS}::test_build_tables_match_loop",)),
    # the computed exp and log reads, and the switch to the tables
    Mutant("computed-exp-zero-code-reads-n0", FIELDS,
           "        log_a[0] = q - 1\n", "",
           (f"{T_FIELDS}::test_build_tables_match_loop",)),
    Mutant("computed-log-drops-slot-q-1", FIELDS,
           "log_terms[2 * q - 2 : 3 * q - 2] = coset_log[-1]", "log_terms[2 * q - 2 : 3 * q - 2] = coset_log[0]",
           (f"{T_FIELDS}::test_build_tables_match_loop",)),
    Mutant("computed-log-reads-l-for-b-zero", FIELDS,
           "log_shift[0] = 3 * q - 2", "log_shift[0] = q - 1",
           (f"{T_FIELDS}::test_build_tables_match_loop",)),
    Mutant("computed-log-reduces-the-zero-code", FIELDS,
           "codes -= np.int32(n) * (codes > n)", "codes -= np.int32(n) * (codes >= n)",
           (f"{T_FIELDS}::test_build_tables_match_loop",)),
    Mutant("switch-never-taken", FIELDS,
           "if self._computed_reads < self.q2:", "if True:",
           (f"{T_FIELDS}::test_switch_builds_the_tables_on_the_read_that_reaches_q2",)),
    Mutant("switch-one-read-early", FIELDS,
           "if self._computed_reads < self.q2:", "if self._computed_reads < self.q2 - 1:",
           (f"{T_FIELDS}::test_switch_builds_the_tables_on_the_read_that_reaches_q2",)),
    # rows, chain guard, records and coset leaders
    Mutant("chain-guard-only-refuses-non-mds", CONSTRUCTIONS,
           "if cert.mds is not True:", "if cert.mds is False:",
           (f"{T_CONSTRUCTIONS}::test_chain_ends_at_first_member_not_certified_mds",)),
    Mutant("embedding-step-copies-its-member", CONSTRUCTIONS,
           "    member.build_s = perf_counter() - start\n    return member\n",
           "    return replace(member, build_s=perf_counter() - start)\n",
           (f"{T_CONSTRUCTIONS}::test_each_chain_member_is_one_certificate",)),
    Mutant("once-chain-ends-instead-of-rejecting", CONSTRUCTIONS,
           '            if request.embed == "once":\n                raise\n', "",
           (f"{T_CLI}::test_construct_rejected_gram",)),
    Mutant("monomial-rows-drop-e-positive", CODES,
           "zero = zero | (x == units) & (e > 0)", "zero = zero | (x == units)",
           (f"{T_CODES}::test_monomial_rows_match_per_row_oracle",)),
    Mutant("monomial-rows-drop-zero-twist-mask", CODES,
           "zero = v == units", "zero = v < 0",
           (f"{T_CODES}::test_monomial_rows_match_per_row_oracle",)),
    Mutant("quantum-record-keys-sorted", CLI,
           '"quantum": dict(vars(stabilizer_params(cert))),',
           '"quantum": dict(sorted(vars(stabilizer_params(cert)).items())),',
           (f"{T_CLI}::test_record_dicts_equal_asdict_in_key_order",)),
    Mutant("coset-leaders-drop-residue-check", POINTS,
           "if idx != 0 and idx not in seen and code % need == 0:", "if idx != 0 and code % need == 0:",
           ("tests/test_points.py::test_coset_leaders_fall_in_distinct_cosets",)),
    # the line record: the core's checks, the unit columns, and their readers
    Mutant("structure-drop-norm-step-check", CODES,
           "if np.count_nonzero(steps.reshape(d - 1, reps) != c * s):", "if False:",
           (f"{T_CODES}::test_structure_record_matches_brute_force", T_TWINS)),
    Mutant("structure-drop-distinct-points-check", CODES,
           "if np.count_nonzero(alpha[1:] == alpha[:-1]):", "if False:",
           (f"{T_CODES}::test_structure_record_matches_brute_force", T_TWINS)),
    Mutant("rank-check-always-row-reduces", CODES,
           "if verify_rank and self.k > 0 and not self.full_rank_on(self.n):",
           "if verify_rank and self.k > 0:",
           (f"{T_CODES}::test_rank_by_shape_matches_rref", T_TWINS)),
    Mutant("records-checked-all-at-once", CODES,
           "return (record for record in found if record is not None)",
           "return tuple(record for record in found if record is not None)",
           (f"{T_CONSTRUCTIONS}::test_a_line_record_spares_the_curve_check", T_TWINS)),
    Mutant("unit-column-keeps-a-second-entry", CODES,
           "if np.count_nonzero(np.count_nonzero(nonzero, axis=0) != 1):", "if False:",
           (f"{T_CODES}::test_structure_record_matches_brute_force", T_TWINS)),
    Mutant("zero-point-column-read-as-unit", CODES,
           "at = np.flatnonzero(g[0] == zero)", "at = np.flatnonzero(np.count_nonzero(g != zero, axis=0) == 1)",
           (f"{T_CODES}::test_structure_record_matches_brute_force", T_TWINS)),
    Mutant("unit-columns-left-out-of-orbit-gram", CODES,
           "np.concatenate((g[:, :reps], g[:, size:], full[:, at]), axis=1)",
           "np.concatenate((g[:, :reps], g[:, size:]), axis=1)",
           (f"{T_CODES}::test_structure_record_matches_brute_force",
            f"{T_CODES}::test_line_record_readers_match_their_oracles", T_TWINS)),
    Mutant("unit-columns-left-out-of-whole-gram", CODES,
           "whole = LineRecord(full, 1, None, unit_columns)", "whole = LineRecord(g, 1, None, unit_columns)",
           (f"{T_CODES}::test_structure_record_matches_brute_force",
            f"{T_CODES}::test_line_record_readers_match_their_oracles", T_TWINS)),
    Mutant("unit-column-entry-moved-to-another-row", CODES,
           "g[:, size:], full[:, at]), axis=1)", "g[:, size:], np.roll(full[:, at], 1, axis=0)), axis=1)",
           (f"{T_CODES}::test_structure_record_matches_brute_force",
            f"{T_CODES}::test_line_record_readers_match_their_oracles", T_TWINS)),
    Mutant("two-unit-columns-in-row-k-1-read-as-mds", CODES,
           "if rows == [code.k - 1]:", "if set(rows) == {code.k - 1}:",
           (f"{T_CODES}::test_line_record_readers_match_their_oracles", T_TWINS)),
    Mutant("unit-column-in-row-k-2-read-as-mds", CODES,
           "if rows == [code.k - 1]:", "if rows in ([code.k - 1], [code.k - 2]):",
           (f"{T_CODES}::test_line_record_readers_match_their_oracles", T_TWINS)),
    # curves
    Mutant("curve-right-side-drops-c", CURVES,
           "return rhs if spec.c is None else spec.tower.vadd(rhs, spec.c)", "return rhs",
           (f"{T_CURVES}::test_elliptic_support_size", f"{T_CURVES}::test_x_support_and_fibers_match_scalar_oracle")),
    Mutant("pole-x-always-2", CURVES,
           "return 2 if self.amap is AdditiveMap.SQUARE_PLUS_Y else self.tower.q", "return 2",
           (f"{T_CURVES}::test_genus_formulas", f"{T_CURVES}::test_rr_basis_hermitian_q4_k9")),
    # field kernels and digests
    Mutant("sum-products-zero-threshold-2n", FIELDS,
           "np.copyto(codes, n, where=slots >= 2 * n - 1)", "np.copyto(codes, n, where=slots >= 2 * n)",
           (T_FIELDS,)),
    Mutant("zech-raises-digit-1", FIELDS,
           "v -= self.p * (v % self.p == 0)", "v -= self.p * (v % self.p == 1)",
           (T_FIELDS,)),
    Mutant("cayley-zech-windows-n-1-to-0", FIELDS,
           "n)[n:0:-1]", "n)[n - 1 :: -1]",
           (T_FIELDS,)),
    Mutant("digest-through-hashlib", CODES,
           "try:\n    from _sha2 import sha256  # CPython 3.12+\nexcept ImportError:\n    try:\n"
           "        from _sha256 import sha256  # CPython 3.10-3.11\n    except ImportError:\n"
           "        from hashlib import sha256\n",
           "from hashlib import sha256\n",
           (f"{T_CLI}::test_certifying_a_code_loads_no_openssl",)),
    # the Cauchy certificate
    Mutant("cauchy-drop-rank-test", CODES,
           "if rank(tower, b if b.shape[1] <= b.shape[0] else b.T) != 2:", "if False:",
           (f"{T_CODES}::test_cauchy_verify_accepts_cauchy_matrices_and_rejects_changes",
            f"{T_CODES}::test_cauchy_verify_against_every_minor")),
    Mutant("cauchy-drop-row-test", CODES,
           "for lines in (b, b.T):", "for lines in (b.T,):",
           (f"{T_CODES}::test_cauchy_verify_accepts_cauchy_matrices_and_rejects_changes",
            f"{T_CODES}::test_cauchy_verify_against_every_minor")),
    Mutant("cauchy-drop-column-test", CODES,
           "for lines in (b, b.T):", "for lines in (b,):",
           (f"{T_CODES}::test_cauchy_verify_accepts_cauchy_matrices_and_rejects_changes",
            f"{T_CODES}::test_cauchy_verify_against_every_minor")),
    # designed distance
    Mutant("line-designed-distance-singleton", CONSTRUCTIONS,
           "designed_distance = eval_set.n - code.k + 1", "designed_distance = code.n - code.k + 1",
           (f"{T_CONSTRUCTIONS}::test_designed_distance_is_a_lower_bound_on_line_code_chains",)),
    # the column scan's keys and buffers
    Mutant("scan-short-keys-off", CODES,
           "_SHORT_KEY = 3", "_SHORT_KEY = 99",
           (f"{T_CODES}::test_column_scan_keys_few_entries_in_full",
            f"{T_CODES}::test_column_scan_memory_on_the_budget_capped_row")),
    Mutant("scan-two-short-coordinates", CODES,
           "_SHORT_KEY = 3", "_SHORT_KEY = 2",
           (f"{T_CODES}::test_column_scan_keys_few_entries_in_full",
            f"{T_CODES}::test_column_scan_memory_on_the_budget_capped_row")),
    Mutant("scan-sorts-keys-in-place", CODES,
           "np.copyto(ordered, keys)", "ordered = keys",
           (f"{T_CODES}::test_column_scan_matches_per_subset_scan",)),
    Mutant("column-keys-scale-by-row-0", CODES,
           "lead = g[(g != tower.zero_code).argmax(axis=0), np.arange(g.shape[1])]", "lead = g[0]",
           (f"{T_CODES}::test_column_scan_matches_per_subset_scan",)),
    Mutant("block-witness-reads-the-previous-partner", CODES,
           "int(e[partner]) + first", "int(e[partner - 1]) + first",
           (f"{T_CODES}::test_column_scan_matches_per_subset_scan",)),
    Mutant("scan-prefix-buffer-not-cleared", CODES,
           "            b.fill(0)\n", "",
           (f"{T_CODES}::test_column_scan_matches_per_subset_scan",)),
    # the schedule: chunks of whole groups, blocks that fill the cap, and the budget's last certified subset
    Mutant("scan-reads-the-next-groups-matrix", CODES,
           "at = (parent * m[0].size + last)", "at = (np.minimum(parent + 1, len(m) - 1) * m[0].size + last)",
           (f"{T_CODES}::test_column_scan_matches_per_subset_scan",)),
    Mutant("chunk-boundary-drops-a-group", CODES,
           "a, z = z, z + step", "a, z = z + 1, z + 1 + step",
           (f"{T_CODES}::test_chunked_scan_matches_per_subset_scan",)),
    Mutant("budget-certifies-one-subset-more", CODES,
           "_unrank(limit - 1, n, w)", "_unrank(limit, n, w)",
           (f"{T_CODES}::test_column_scan_budget_boundary",)),
    Mutant("first-block-fills-the-cap", CODES,
           "hi, first_block = min(hi, _FIRST_PREFIXES), False", "first_block = False",
           (f"{T_CODES}::test_column_scan_stops_at_the_first_dependent_prefix",)),
    # the table of construction parameters: a field a construction needs, and a scan's sweep
    Mutant("c2-needs-only-n", CONSTRUCTIONS,
           '"c2": Construction(("n", "t")),', '"c2": Construction(("n",)),',
           (f"{T_CLI}::test_a_missing_field_is_rejected",)),
    Mutant("c4-sweeps-one-t-more", CONSTRUCTIONS,
           "lambda tw: range(1, tw.q + 1)", "lambda tw: range(1, tw.q + 2)",
           (f"{T_CLI}::test_scan_sweeps_its_field_over_a_tower",)),
    Mutant("c8-scan-embeds", CONSTRUCTIONS,
           '"c8": Construction(scan_embeds=False),', '"c8": Construction(),',
           (f"{T_CLI}::test_curve_scans_build_the_base_code_alone",)),
    # the certificate's d(C)
    Mutant("distance-singleton-for-non-mds", CODES,
           "        if self.mds:\n", "        if self.mds is not None:\n",
           (f"{T_CLI}::test_catalog_distance_stops_at_the_exhaustive_cap",)),
    # the curve record: each check, and each reader
    Mutant("curve-record-drops-entry-check", CODES,
           "    if not np.array_equal(g, _monomial_rows(tower, v, [(x, a), (y, b)])):\n        return None\n", "",
           (f"{T_CODES}::test_curve_record_checks_each_hypothesis", T_TWINS)),
    Mutant("curve-record-drops-on-curve-check", CODES,
           "if np.count_nonzero(v == tower.zero_code) or not on_curve(spec, x, y):",
           "if np.count_nonzero(v == tower.zero_code):",
           (f"{T_CODES}::test_curve_record_checks_each_hypothesis", T_TWINS)),
    Mutant("curve-record-drops-distinct-points", CODES,
           "if np.count_nonzero(points[1:] == points[:-1]):", "if False:",
           (f"{T_CODES}::test_curve_record_checks_each_hypothesis", T_TWINS)),
    Mutant("curve-record-accepts-gcd-above-1", CODES,
           "if gcd(px, py) != 1 or not orders", "if not orders",
           (f"{T_CODES}::test_curve_record_checks_each_hypothesis",
            f"{T_CONSTRUCTIONS}::test_coprime_curve_codes_take_no_row_reduction_pair_scan_or_enumeration", T_TWINS)),
    Mutant("zero-count-one-too-generous", CODES,
           "return columns > self.m", "return columns >= self.m",
           (f"{T_CODES}::test_curve_record_readers_match_their_oracles", T_TWINS)),
    Mutant("pairwise-floor-without-the-y-row", CODES,
           "if {(1, 0), (0, 1)} <= set(self.monomials):", "if (1, 0) in self.monomials:",
           (f"{T_CODES}::test_curve_record_readers_match_their_oracles", T_TWINS)),
    Mutant("mds-reader-reads-a-lower-bound", CODES,
           "if dd is not None and dd.exact:", "if dd is not None:",
           (f"{T_CLI}::test_reproduce_enumerates_no_codewords", T_TWINS)),
    Mutant("curve-rank-row-reduces", CODES,
           "return columns > self.m", "return False",
           (f"{T_CONSTRUCTIONS}::test_coprime_curve_codes_take_no_row_reduction_pair_scan_or_enumeration", T_TWINS)),
    Mutant("curve-mds-screens-first", CODES,
           "dd = dual_distance_by_columns(code) if floor is not None else None", "dd = None",
           (f"{T_CONSTRUCTIONS}::test_coprime_curve_codes_take_no_row_reduction_pair_scan_or_enumeration", T_TWINS)),
    Mutant("curve-purity-takes-a-rank", CODES,
           "    if code.full_rank_on(code.n - len(dd.witness)):\n        return dd\n", "",
           (f"{T_CONSTRUCTIONS}::test_coprime_curve_codes_take_no_row_reduction_pair_scan_or_enumeration", T_TWINS)),
    Mutant("curve-pairs-scanned", CODES,
           'keys = code.ask("parallel_keys")\n', "keys = None\n",
           (f"{T_CONSTRUCTIONS}::test_coprime_curve_codes_take_no_row_reduction_pair_scan_or_enumeration", T_TWINS)),
    Mutant("light-word-floor-plus-one", CODES,
           "floor = code.n - self.m\n", "floor = code.n - self.m + 1\n",
           (f"{T_CONSTRUCTIONS}::test_designed_distance_is_a_lower_bound_on_curve_codes",
            f"{T_CONSTRUCTIONS}::test_coprime_curve_codes_take_no_row_reduction_pair_scan_or_enumeration", T_TWINS)),
    Mutant("light-word-one-root-short", CODES,
           "kind=\"stable\")[:j]\n", "kind=\"stable\")[: j - 1]\n",
           (f"{T_CONSTRUCTIONS}::test_designed_distance_is_a_lower_bound_on_curve_codes",
            f"{T_CONSTRUCTIONS}::test_coprime_curve_codes_take_no_row_reduction_pair_scan_or_enumeration", T_TWINS)),
    Mutant("distance-decided-eagerly-in-certify", CODES,
           "    return Certificate(code, gram, mds, witness, method, dd, _quantum_distance(code, dd))\n",
           "    certificate = Certificate(code, gram, mds, witness, method, dd, _quantum_distance(code, dd))\n"
           "    certificate.distance\n    return certificate\n",
           (f"{T_CLI}::test_reproduce_enumerates_no_codewords",)),
)


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=skip)
        else:
            shutil.copy2(source, dest / name)


def check(mutant: Mutant) -> tuple[str, str]:
    """(verdict, detail): caught, survived or error, for one mutant."""
    with tempfile.TemporaryDirectory(prefix="agq-mutant-") as tmp:
        tmp = Path(tmp)
        _copy_tree(tmp)
        path = tmp / mutant.file
        text = path.read_text()
        count = text.count(mutant.snippet)
        if count != 1:
            return "error", f"the snippet occurs {count} times in {mutant.file}"
        path.write_text(text.replace(mutant.snippet, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
    lines = proc.stdout.strip().splitlines()
    last = lines[-1] if lines else proc.stderr.strip()
    if proc.returncode == 1:
        failed = next((line.split(" - ")[0] for line in lines if line.startswith(("FAILED ", "ERROR "))), "no failed test")
        return "caught", f"{failed}; {last}"
    if proc.returncode == 0:
        return "survived", last
    return "error", f"pytest exit {proc.returncode}: {last}"


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    known = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"no mutant named {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [known[name] for name in names] if names else list(MUTANTS)
    failed = 0
    for mutant in chosen:
        start = time.perf_counter()
        verdict, detail = check(mutant)
        failed += verdict != "caught"
        print(f"{verdict:8s} {mutant.name} ({time.perf_counter() - start:.1f} s): {detail}", flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} mutants caught")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
