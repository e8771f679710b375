"""The genus layer of a discriminant (the character table X, the genus sums S,
the Eisenstein matrix E) against the one-character and one-genus oracles, and
the two genus checks against the details those oracles report when one entry
of the theta matrix, of E or of X is perturbed."""

import numpy as np
import pytest

import genusmass.series as series
import genusmass.verify as verify
from genusmass.class_group import build_class_group
from genusmass.genus import build_genus_characters, character_pairs
from genusmass.qseries import QSeries
from genusmass.series import eisenstein_for_genus, eisenstein_matrix, genus_eisenstein, twisted_sum
from genusmass.verify import run_suite
from oracles import (
    build_layers,
    character_table_oracle,
    eisenstein_for_genus_oracle,
    fundamental_deltas,
    genus_average_oracle,
    genus_ids,
    genus_mass_detail_oracle,
    twisted_eisenstein_detail_oracle,
    twisted_sum_oracle,
    verify_genus_mass,
    verify_twisted_eisenstein,
)

LAYER_DELTAS = fundamental_deltas(-1000) + [-120120]


@pytest.fixture(params=["int64", "object"])
def coeff_path(request, monkeypatch):
    """Both coefficient paths: int64, and Python ints with the int64 bound at 0."""
    if request.param == "object":
        monkeypatch.setattr(series, "INT64_BOUND", 0)
    return object if request.param == "object" else np.int64


def rows(group, layer) -> list[QSeries]:
    coeffs, unit = layer
    return [QSeries(group.delta, row, unit) for row in coeffs]


@pytest.mark.parametrize("n_max", [0, 1, 200])
def test_layer_rows_match_oracles(coeff_path, n_max):
    for delta in LAYER_DELTAS:
        group = build_class_group(delta)
        table = character_table_oracle(group)
        averages = rows(group, genus_eisenstein(group, n_max))
        twisted = rows(group, twisted_sum(group, n_max))
        mass = rows(group, eisenstein_for_genus(group, n_max))
        assert {s.coeffs.dtype for s in averages + twisted + mass} == {np.dtype(coeff_path)}
        assert averages == [genus_average_oracle(group, g, n_max) for g in genus_ids(group)], delta
        assert twisted == [twisted_sum_oracle(group, i, n_max, table) for i in range(len(table))], delta
        assert mass == [eisenstein_for_genus_oracle(group, g, n_max, table)
                        for g in genus_ids(group)], delta


def test_one_row_requests_match_the_matrices():
    for delta in (-84, -5460, -120120):
        group = build_class_group(delta)
        averages, unit = genus_eisenstein(group, 100)
        for k, g in enumerate(genus_ids(group)):
            row, row_unit = genus_eisenstein(group, 100, g)
            assert row_unit == unit and row.tolist() == averages[k].tolist()
        twisted, unit = twisted_sum(group, 100)
        for i, (d, _) in enumerate(character_pairs(delta)):
            row, row_unit = twisted_sum(group, 100, d)
            assert row_unit == unit and row.tolist() == twisted[i].tolist()


def perturbed_case(delta, n_max, monkeypatch, kind, column):
    """Perturb one entry of the theta matrix, of E or of X for delta, where the
    library reads it; returns the character table the oracle should use."""
    group = build_class_group(delta)
    table = build_genus_characters(group)
    if kind == "theta":
        original = series.representation_counts
        target = group.classes[-1]

        def perturbed(forms, n):
            counts = original(forms, n)
            counts[(forms == target).all(axis=1), column] += 1
            return counts

        monkeypatch.setattr(series, "representation_counts", perturbed)
    elif kind == "eisenstein":
        original = series.eisenstein_stack
        target = character_pairs(delta)[-1]

        def perturbed(deltas, class_numbers, n, reads, pairs=None):
            out = original(deltas, class_numbers, n, reads, pairs)
            rows = out.rows.copy()
            ours = np.array(deltas)[out.pair_owner] == delta
            rows[ours & (out.pairs == target).all(axis=1), column] += 1
            return out._replace(rows=rows)

        monkeypatch.setattr(series, "eisenstein_stack", perturbed)
        monkeypatch.setattr(verify, "eisenstein_stack", perturbed)
    else:
        table = table.copy()
        table[-1, -1] *= -1
        original = verify.character_tables

        def perturbed(stack, pair_d, pair_counts):
            out = original(stack, pair_d, pair_counts)
            blocks = []
            for members, block in out.blocks:
                block = block.copy()
                block[np.array(stack.deltas)[members] == delta] = table
                blocks.append((members, block))
            return out._replace(blocks=blocks)

        monkeypatch.setattr(series, "build_genus_characters", lambda group_: table)
        monkeypatch.setattr(verify, "character_tables", perturbed)
    return group, table


@pytest.mark.parametrize("delta", [-84, -455, -5460])
@pytest.mark.parametrize("kind,column", [("theta", 0), ("theta", 35), ("eisenstein", 7), ("x", None)])
def test_perturbed_entry_fails_with_the_oracle_detail(monkeypatch, delta, kind, column):
    n_max = 60
    group, table = perturbed_case(delta, n_max, monkeypatch, kind, column)
    layers = build_layers(delta, n_max, 1)
    twisted = verify_twisted_eisenstein(layers)
    mass = verify_genus_mass(layers)
    assert not twisted.passed and not mass.passed
    assert run_suite([delta], n_max, 1, workers=1)[0].checks[2:4] == (twisted, mass)
    assert twisted.detail == twisted_eisenstein_detail_oracle(group, n_max, table)
    assert mass.detail == genus_mass_detail_oracle(group, n_max, table)
    if kind == "theta" and column == 0:
        assert "constant terms" in mass.detail


def test_eisenstein_matrix_is_read_only():
    rows, _ = eisenstein_matrix(-84, 30)
    assert not rows.flags.writeable
